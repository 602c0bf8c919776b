import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stretchfactor import (
    ComparableCylindersError,
    ForbiddenTransitionError,
    InputError,
    MarkovSpec,
    NotCyclicallyReducedError,
    NotStationaryError,
    NotStochasticError,
    ProperPowerError,
    consistency_check,
    criterion_check,
    current_length,
    current_pair_value,
    load_markov_spec,
    markov_measure,
    parse_word,
    rational_measure,
    uniform_as_markov,
    uniform_measure,
)
from stretchfactor.measures import frac_str
from stretchfactor.words import all_words, alphabet

from conftest import doubly_stochastic_markov, reversible_markov, sample_measures
from oracles import dump_markov_spec, markov_chain_by_fractions, validate_by_fractions

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "pools"


def w(text):
    return parse_word(text)


@pytest.mark.parametrize("rank, depth", [(2, 5), (3, 4), (4, 3)])
def test_chain_matches_eval(rank, depth):
    # E D^(n-1) mu(v) = init[v_1] step[v_2] ... step[v_n] 1 for every kind
    for mu in sample_measures(rank, random.Random(rank)):
        e, d, init, step = mu.chain
        for n in range(1, depth + 1):
            for v in all_words(n, rank):
                vec = dict(init[v[0]])
                for x in v[1:]:
                    nxt = {}
                    for (s, t), q in step[x].items():
                        if s in vec:
                            nxt[t] = nxt.get(t, 0) + vec[s] * q
                    vec = nxt
                assert sum(vec.values()) == e * d ** (n - 1) * mu.eval(v), (mu.label, v)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_uniform_measure_is_built_once_per_rank(rank):
    assert uniform_measure(rank) is uniform_measure(rank)


@pytest.mark.parametrize(
    "mu",
    [uniform_measure(2), markov_measure(uniform_as_markov(2)), rational_measure(2, w("aab"))],
    ids=lambda mu: mu.kind,
)
def test_chain_rows_are_read_only(mu):
    # a shared measure, and the constants read off its chain, cannot go stale
    _, _, init, step = mu.chain
    row, mat = init[1], step[1]
    with pytest.raises(TypeError):
        row[next(iter(row))] = 7
    with pytest.raises(TypeError):
        mat[next(iter(mat))] = 7
    with pytest.raises(TypeError):
        init[1] = {}
    with pytest.raises(TypeError):
        step[1] = {}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_walk_constants_match_the_chain(rank):
    # ends, lasts and the one-state scalars, recomputed from the chain
    for mu in sample_measures(rank, random.Random(rank)):
        _, d, init, step = mu.chain
        states = {s for row in init.values() for s in row}
        states |= {s for mat in step.values() for pair in mat for s in pair}
        for x in alphabet(rank):
            ends = {}
            for (s, t), q in step[x].items():
                ends[s] = ends.get(s, 0) + q
            assert mu.ends[x] == ends, (mu.label, x)
            back = sum(q * ends.get(s, 0) for s, q in init[-x].items())
            assert mu.lasts[x] == sum(init[x].values()) * d + back, (mu.label, x)
        if len(states) > 1:
            assert mu.scalars is None, mu.label
            continue
        (s,) = states
        assert [dict(m) for m in mu.scalars] == [
            {x: init[x].get(s, 0) for x in alphabet(rank)},
            {x: mu.ends[x].get(s, 0) for x in alphabet(rank)},
            {x: step[x].get((s, s), 0) for x in alphabet(rank)},
        ], mu.label


def test_walk_constants_stay_out_of_equality_and_repr():
    mu = uniform_measure(2)
    same = type(mu)(
        rank=2, kind="uniform", mass=mu.mass, _eval=mu._eval, chain=mu.chain, label="uniform"
    )
    assert same == mu
    for name in ("ends", "lasts", "scalars"):
        assert f"{name}=" not in repr(mu)


def test_uniform_values():
    mu = uniform_measure(2)
    assert mu.eval(w("a")) == F(1, 4)
    assert mu.eval(w("ab")) == F(1, 12)
    assert mu.eval(w("")) == 1 and mu.mass == 1


def test_uniform_consistency_depth5():
    assert consistency_check(uniform_measure(2), 5)


def test_markov_uniform_matches_uniform_to_depth5():
    mu = markov_measure(uniform_as_markov(2))
    uni = uniform_measure(2)
    for n in range(0, 6):
        for v in all_words(n, 2):
            assert mu.eval(v) == uni.eval(v)


def test_markov_validation_errors():
    spec = uniform_as_markov(2)
    bad_p = dict(spec.initial)
    bad_p[1], bad_p[2] = F(1, 2), F(0)
    with pytest.raises(NotStationaryError):
        MarkovSpec(2, F(1), bad_p, spec.transitions).validate()
    bad_rows = {x: dict(r) for x, r in spec.transitions.items()}
    bad_rows[1][-1], bad_rows[1][2] = F(1, 3), F(0)
    with pytest.raises(ForbiddenTransitionError):
        MarkovSpec(2, F(1), spec.initial, bad_rows).validate()
    short_rows = {x: dict(r) for x, r in spec.transitions.items()}
    short_rows[1][2] = F(0)
    with pytest.raises(NotStochasticError):
        MarkovSpec(2, F(1), spec.initial, short_rows).validate()


@pytest.mark.parametrize("field", ["mass", "p", "P"])
def test_a_float_entry_is_input_error_naming_it(field):
    spec = uniform_as_markov(2)
    mass, p = spec.mass, dict(spec.initial)
    rows = {x: dict(r) for x, r in spec.transitions.items()}
    if field == "mass":
        mass, name = 1.0, "mass"
    elif field == "p":
        p[2], name = 0.25, "p(b)"
    else:
        rows[-1][2], name = 1 / 3, "P(A, b)"
    bad = MarkovSpec(2, mass, p, rows)
    for check in (bad.validate, lambda: markov_measure(bad)):
        with pytest.raises(InputError, match=rf"markov spec {re.escape(name)} must be .* not float"):
            check()


def _outcome(check, spec):
    try:
        check(spec)
    except Exception as e:  # the two validators must fail alike
        return type(e), str(e)
    return None


_FRACTIONS = st.fractions(min_value=-1, max_value=2, max_denominator=12)


@given(
    st.integers(2, 4),
    st.integers(0, 2),
    st.integers(0, 2**32),
    st.sampled_from([
        "mass", "p", "P", "P(x, x^-1)", "p moved", "P moved", "missing p", "missing P",
        "missing row",
    ]),
    _FRACTIONS,
)
@settings(max_examples=200, deadline=None)
def test_integer_checks_fail_as_the_fraction_checks(rank, kind, seed, field, value):
    rng = random.Random(seed)
    spec = [
        lambda: uniform_as_markov(rank),
        lambda: reversible_markov(rank, rng, F(3, 2)),
        lambda: doubly_stochastic_markov(rank, rng),
    ][kind]()
    letters = alphabet(rank)
    mass, p = spec.mass, dict(spec.initial)
    rows = {x: dict(r) for x, r in spec.transitions.items()}
    x, y, z = rng.choice(letters), rng.choice(letters), rng.choice(letters)
    # "moved" takes up to the smaller entry from one entry to the other,
    # keeping the sum and the signs
    if field == "mass":
        mass = value
    elif field == "p":
        p[x] = value
    elif field == "P":
        rows[x][y] = value
    elif field == "P(x, x^-1)":
        rows[x][-x] = value
    elif field == "p moved":
        shift = value * min(p[y], p[z]) / 2
        p[y], p[z] = p[y] + shift, p[z] - shift
    elif field == "P moved":
        shift = value * min(rows[x][y], rows[x][z]) / 2
        rows[x][y], rows[x][z] = rows[x][y] + shift, rows[x][z] - shift
    elif field == "missing p":
        del p[x]
    elif field == "missing P":
        del rows[x][y]
    else:
        del rows[x]
    perturbed = MarkovSpec(rank, mass, p, rows)
    assert _outcome(MarkovSpec.validate, perturbed) == _outcome(validate_by_fractions, perturbed)


def _pooled_markov_specs():
    with open(POOLS / "currents.json", encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    texts = {e["measure"] for e in entries if e["measure"].startswith("markov:")}
    return [load_markov_spec(t[len("markov:"):]) for t in sorted(texts)]


def test_the_chain_is_built_as_from_fractions():
    specs = _pooled_markov_specs()
    assert len(specs) == 96
    for spec in specs + [uniform_as_markov(k) for k in (2, 3, 4)]:
        assert markov_measure(spec).chain == markov_chain_by_fractions(spec)


def test_biased_stationary_markov_consistent():
    # Reversible chain from symmetric positive weights: stationarity for free.
    letters = alphabet(2)
    weight = {}
    for x in letters:
        for y in letters:
            if y == -x:
                weight[(x, y)] = F(0)
            else:
                weight[(x, y)] = F(2) if (x, y) in ((1, 2), (2, 1)) else F(1)
    w_tot = {x: sum(weight[(x, y)] for y in letters) for x in letters}
    total = sum(w_tot.values())
    spec = MarkovSpec(
        rank=2,
        mass=F(1),
        initial={x: w_tot[x] / total for x in letters},
        transitions={x: {y: weight[(x, y)] / w_tot[x] for y in letters} for x in letters},
    )
    spec.validate()
    assert consistency_check(markov_measure(spec), 4)


def test_rational_measure_examples():
    mu = rational_measure(2, w("ab"))
    assert mu.eval(w("a")) == 1
    assert mu.mass == 2
    assert current_length(mu) == 2
    mu = rational_measure(2, w("aab"))
    assert mu.eval(w("a")) == 2
    assert current_length(mu) == 3
    with pytest.raises(ProperPowerError):
        rational_measure(2, w("abab"))
    with pytest.raises(NotCyclicallyReducedError):
        rational_measure(2, w("abA"))


def test_rational_consistency():
    for text in ["ab", "aab", "abAB", "aabAB"]:
        assert consistency_check(rational_measure(2, w(text)), len(text))


def test_current_pair_value_examples():
    mu = uniform_measure(2)
    assert current_pair_value(mu, w("A"), w("a")) == F(1, 12)
    assert current_pair_value(mu, w("aa"), w("ab")) == F(1, 12)
    eta_ab = rational_measure(2, w("ab"))
    assert current_pair_value(eta_ab, w("A"), w("a")) == 0
    with pytest.raises(ComparableCylindersError):
        current_pair_value(mu, w("a"), w("ab"))


def test_current_length_equals_mass():
    for mu in [
        uniform_measure(2),
        markov_measure(uniform_as_markov(2)),
        rational_measure(2, w("aabAB")),
    ]:
        assert current_length(mu) == mu.mass


def test_corrupted_table_detected():
    mu = uniform_measure(2)
    broken = type(mu)(
        rank=2,
        kind="uniform",
        mass=F(1),
        _eval=lambda v: F(1, 5) if tuple(v) == (1,) else mu.eval(v),
        chain=mu.chain,
        label="broken",
    )
    assert not consistency_check(broken, 2)


def test_criterion_uniform_passes():
    report = criterion_check(uniform_as_markov(2))
    assert report.passes
    for a in alphabet(2):
        assert report.c1[a] == report.c2[a] == F(1, 3)
        assert report.b[a] == F(1, 3)


def _cycle_mix_spec():
    """Doubly stochastic, stationary-uniform, fails C1(a^-1) >= C2(a)."""
    letters = alphabet(2)
    nxt = {1: 2, 2: -1, -1: -2, -2: 1}  # a -> b -> A -> B -> a
    rows = {}
    for x in letters:
        rows[x] = {}
        for y in letters:
            if y == -x:
                rows[x][y] = F(0)
                continue
            cycle = F(1, 2) if y in (nxt[x], x) else F(0)
            unif = F(1, 3)
            rows[x][y] = F(3, 4) * cycle + F(1, 4) * unif
    return MarkovSpec(
        rank=2,
        mass=F(1),
        initial={x: F(1, 4) for x in letters},
        transitions=rows,
    )


def test_criterion_failure_with_witness():
    spec = _cycle_mix_spec()
    spec.validate()  # genuinely stationary
    report = criterion_check(spec)
    assert not report.passes
    assert report.witness is not None
    a = report.witness
    assert report.c1[-a] < report.c2[a]
    # stationarity forces every per-letter ratio to stay <= 1
    assert all(q <= 1 for q in report.c2.values())


def test_criterion_ratio_above_one_needs_nonstationary_data():
    # A self-reinforcing letter pushes p(a)P(a,b)/p(b) above 1, which is
    # impossible for stationary specs, and criterion_check validates first.
    letters = alphabet(2)
    p = {1: F(3, 4), 2: F(1, 12), -1: F(1, 12), -2: F(1, 12)}
    rows = {
        x: {y: (F(0) if y == -x else F(1, 3)) for y in letters} for x in letters
    }
    spec = MarkovSpec(rank=2, mass=F(1), initial=p, transitions=rows)
    assert p[1] * rows[1][2] / p[2] == 3
    with pytest.raises(NotStationaryError):
        criterion_check(spec)


def test_markov_spec_file_round_trip(tmp_path):
    spec = uniform_as_markov(2)
    text = dump_markov_spec(spec)
    back = load_markov_spec(text)
    assert back == spec
    assert frac_str(back.mass) == "1/1"
