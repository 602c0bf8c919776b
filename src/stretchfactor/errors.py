"""Exception types shared across the toolkit.

Every error carries a message naming the invariant that failed; the CLI
maps exception classes to exit codes (input errors -> 2, resource
exhaustion -> 3, descent failure -> 4); any other exception is an engine
bug and exits 1.
"""


class InputError(ValueError):
    """Malformed or inconsistent user-supplied data."""


class NotReducedError(InputError):
    """A word contains an adjacent inverse pair."""


class NotCyclicallyReducedError(InputError):
    """A word cancels across the cyclic seam."""


class ProperPowerError(InputError):
    """A cyclically reduced word is a proper power of a shorter word."""


class NotInverseError(InputError):
    """Forward and backward letter maps do not compose to the identity."""


class NotStationaryError(InputError):
    """Markov initial distribution is not stationary for the transitions."""


class ForbiddenTransitionError(InputError):
    """Markov transition matrix sends a letter to its inverse."""


class NotStochasticError(InputError):
    """Markov rows or the initial distribution do not sum to one."""


class ComparableCylindersError(InputError):
    """Two cylinder labels are nested, so their product is not a geodesic cylinder."""


class ResourceLimitError(RuntimeError):
    """The node budget was exhausted before the computation finished.

    Raised instead of ever returning an approximate answer.
    """

    def __init__(self, message: str, spent: int = 0, limit: int = 0):
        super().__init__(message)
        self.spent = spent
        self.limit = limit


class DescentStuckError(RuntimeError):
    """No second-kind move strictly decreases the length of a non-simple map.

    This is a reportable finding, never silently worked around; the message
    carries the map's length L and the map itself.
    """
