"""An unreduced word sent to any public entry point raises NotReducedError.

Every function exported at the package root is classified: it takes a
word and rejects an unreduced one, it reduces its input on purpose, or
it takes no word at all.  A new export that is in none of the three
lists fails `test_every_root_function_is_classified`.
"""

import inspect

import pytest

import stretchfactor as sf
from stretchfactor import NotReducedError, Word

BAD = (1, -1, 2)  # aAb
PHI = sf.parse_generator_expression(2, "W2[a; b:RIGHT]")
MU = sf.uniform_measure(2)

# name -> a call that hands the unreduced word to the entry point
REJECTS = {
    "Word": lambda: Word(BAD),
    "Automorphism": lambda: sf.Automorphism(2, [BAD, (2,)], [(1,), (2,)]),
    "make_automorphism": lambda: sf.make_automorphism(2, [BAD, (2,)], [(1,), (2,)]),
    "parse_map_text": lambda: sf.parse_map_text(2, "a->aAb, b->b"),
    "parse_generator_expression": lambda: sf.parse_generator_expression(2, "inner[aAb]"),
    "parse_word": lambda: sf.parse_word("aAb"),
    "inner": lambda: sf.inner(2, BAD),
    "conj": lambda: sf.conj(PHI, BAD),
    "CylinderPartition.from_words": lambda: sf.CylinderPartition.from_words(2, [BAD]),
    "preimage_partition": lambda: sf.preimage_partition(PHI, BAD),
    "pushforward_current_value": lambda: sf.pushforward_current_value(PHI, MU, BAD),
    "FrequencyMeasure.eval": lambda: MU.eval(BAD),
    "rational_measure": lambda: sf.rational_measure(2, BAD),
    "current_pair_value": lambda: sf.current_pair_value(MU, (2,), BAD),
    "comparable": lambda: sf.comparable(BAD, (1,)),
    "concat": lambda: sf.concat((1,), (-1, 1, 2)),  # the product would be reduced
    "cyclic_length": lambda: sf.cyclic_length(BAD),
    "cyclic_reduce": lambda: sf.cyclic_reduce((1, -1)),
    "inverse": lambda: sf.inverse(BAD),
    "lcp": lambda: sf.lcp(BAD, (1,)),
    "occurrences_in_cyclic": lambda: sf.occurrences_in_cyclic((1,), BAD),
}

# Deliberate exceptions: name -> (call, expected result).  A homomorphism
# is defined on every letter sequence and free_reduce and
# parse_word(reduce=True) exist to reduce; format_word must print the
# word an error message names.
REDUCES = {
    "Automorphism.apply": (lambda: PHI.apply(BAD), Word((2, 1))),
    "Automorphism.apply_inverse": (lambda: PHI.apply_inverse(BAD), Word((2, -1))),
    "free_reduce": (lambda: sf.free_reduce(BAD), Word((2,))),
    "parse_word(reduce=True)": (lambda: sf.parse_word("aAb", reduce=True), Word((2,))),
    "format_word": (lambda: sf.format_word(BAD), "aAb"),
}

TAKES_NO_WORD = {
    "all_words", "alphabet", "canonical_out_key", "compose", "consistency_check",
    "criterion_check", "current_length", "depth1_profile", "descent_step",
    "enumerate_second_kind", "enumerate_signed_permutations", "eta_length",
    "factorize", "frac_str", "identity", "is_simple", "length_exact", "length_mc",
    "load_markov_spec", "markov_measure", "partition_mass", "pushforward_table",
    "random_reduced", "recenter", "spectrum", "uniform_as_markov", "uniform_measure",
}


@pytest.mark.parametrize("name", sorted(REJECTS))
def test_unreduced_word_is_rejected(name):
    with pytest.raises(NotReducedError):
        REJECTS[name]()


@pytest.mark.parametrize("name", sorted(REDUCES))
def test_deliberate_exceptions_reduce_or_read_the_word(name):
    call, expected = REDUCES[name]
    assert call() == expected


def test_every_root_function_is_classified():
    functions = {
        name
        for name in dir(sf)
        if not name.startswith("_") and inspect.isfunction(getattr(sf, name))
    }
    classified = set(REJECTS) | set(REDUCES) | TAKES_NO_WORD
    assert functions - classified == set()
    assert not TAKES_NO_WORD & (set(REJECTS) | set(REDUCES))
