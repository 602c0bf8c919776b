"""Exact stretching factors of free-group automorphisms via boundary currents.

The toolkit computes the generic stretching factor of an automorphism of
a free group as an exact rational, factors automorphisms by length
descent through second-kind moves, enumerates small length spectra, and
validates the measure identities the computation rests on.
"""

from .automorphisms import (
    Automorphism,
    SignedPermutation,
    WhiteheadSecondKind,
    compose,
    conj,
    enumerate_second_kind,
    enumerate_signed_permutations,
    identity,
    inner,
    is_simple,
    make_automorphism,
    parse_generator_expression,
    parse_map_text,
)
from .boundary import (
    Budget,
    CylinderPartition,
    PartitionCache,
    depth1_profile,
    partition_mass,
    preimage_partition,
    pushforward_current_value,
    pushforward_table,
    recenter,
)
from .errors import (
    ComparableCylindersError,
    DescentStuckError,
    ForbiddenTransitionError,
    InputError,
    NotCyclicallyReducedError,
    NotInverseError,
    NotReducedError,
    NotStationaryError,
    NotStochasticError,
    ProperPowerError,
    ResourceLimitError,
)
from .length import LengthReport, McEstimate, eta_length, length_exact, length_mc
from .measures import (
    CriterionReport,
    FrequencyMeasure,
    MarkovSpec,
    consistency_check,
    criterion_check,
    current_length,
    current_pair_value,
    frac_str,
    load_markov_spec,
    markov_measure,
    rational_measure,
    uniform_as_markov,
    uniform_measure,
)
from .whitehead import (
    FactorizationReport,
    SpectrumReport,
    canonical_out_key,
    descent_step,
    factorize,
    spectrum,
)
from .words import (
    Word,
    alphabet,
    all_words,
    comparable,
    concat,
    cyclic_length,
    cyclic_reduce,
    free_reduce,
    inverse,
    lcp,
    occurrences_in_cyclic,
    parse_word,
    format_word,
    random_reduced,
)

__version__ = "0.1.0"
