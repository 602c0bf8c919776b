"""Pooled benchmark inputs keep their answers and their node counts.

For every (category, stratum) of the committed `length-cold` and
`currents` pools, the cheapest input is run through the public API: one
with an expected value where the pool stores one, checked exactly, and
for `rational:` strata one checked against the cyclic length of the
image of the rational word.  The `whitehead` pool contributes the
cheapest input with an expected value of each stratum: a factorization
must recompose to its input with strictly increasing lengths ending at
the expected length, and a spectrum must list the expected values.  The
nodes each input spends are pinned, so a wrong translation, a wrong
pair sum or a drift in the work done fails here, not only in the
benchmark.  The pool files are read, never written.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import stretchfactor as sf
from stretchfactor.words import cyclic_length

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "pools"

# Budget.spent of each sampled input, as the engine spends it.
SPENT = {
    "chain2-0010": 4, "chain2-0019": 4, "chain2-0034": 12, "chain2-0060": 14,
    "chain2-0068": 14, "chain2-0095": 29, "chain2-0096": 21, "chain2-0113": 54,
    "chain2-0128": 63, "chain2-0144": 57, "chain2-0175": 49, "chain2-0184": 39,
    "chain2-0198": 94, "chain2-0221": 54, "chain2-0237": 78, "chain2-0247": 74,
    "chain2-0258": 107, "chain2-0284": 115, "chain2-0295": 200, "chain2-0318": 123,
    "chain2-0324": 162, "chain2-0345": 169, "chain2-0361": 249, "chain2-0374": 105,
    "chain3-0006": 6, "chain3-0015": 6, "chain3-0025": 28, "chain3-0039": 15,
    "chain4-0011": 8, "chain4-0014": 21, "chain4-0025": 55, "chain4-0044": 36,
    "nielsen-0000": 6, "nielsen-0001": 9, "nielsen-0002": 13, "nielsen-0003": 18,
    "nielsen-0004": 24, "nielsen-0005": 31, "nielsen-0006": 39, "nielsen-0007": 48,
    "nielsen-0008": 58, "nielsen-0009": 69, "nielsen-0010": 81, "nielsen-0011": 94,
    "nielsen-0012": 108, "nielsen-0013": 123, "nielsen-0014": 139,
    "nielsen-0015": 156, "nielsen-0016": 174, "nielsen-0017": 193,
    "nielsen-0018": 213, "nielsen-0019": 234, "nielsen-0020": 256,
    "nielsen-0021": 279, "nielsen-0022": 303, "nielsen-0023": 328,
    "nielsen-0024": 354, "nielsen-0025": 381, "nielsen-0026": 409,
    "nielsen-0027": 438, "nielsen-0028": 468, "nielsen-0029": 499,
    "nielsen-0030": 531, "raw2-0017": 4, "raw2-0023": 6, "raw2-0055": 4,
    "markov-0004": 4, "markov-0015": 12, "markov-0018": 4, "markov-0027": 12,
    "markov-0035": 23, "markov-0046": 17, "markov-0052": 22, "markov-0058": 50,
    "markov-0068": 28, "markov-0074": 46, "markov-0087": 72, "markov-0095": 69,
    "rational-0005": 6, "rational-0008": 4, "rational-0017": 11, "rational-0026": 21,
    "rational-0038": 19, "rational-0042": 23, "rational-0054": 22,
    "rational-0058": 25, "rational-0068": 44, "rational-0074": 49,
    "rational-0084": 64, "rational-0094": 82, "uniform_as_markov-0003": 4,
    "uniform_as_markov-0011": 9, "uniform_as_markov-0017": 12,
    "uniform_as_markov-0028": 23, "uniform_as_markov-0037": 19,
    "uniform_as_markov-0046": 37, "uniform_as_markov-0048": 35,
    "uniform_as_markov-0057": 42, "uniform_as_markov-0070": 53,
    "uniform_as_markov-0072": 45, "uniform_as_markov-0083": 33,
    "uniform_as_markov-0090": 69,
}

# Budget.spent of each sampled whitehead input.
WHITEHEAD_SPENT = {
    "factorize2-0002": 9, "factorize2-0046": 11, "factorize2-0075": 27,
    "factorize2-0094": 21, "factorize2-0135": 45, "factorize3-0004": 22,
    "factorize3-0035": 41, "spectrum-0000": 18, "spectrum-0001": 50,
    "spectrum-0002": 161,
}


def _sample():
    """The cheapest checkable input of every (category, stratum) of both pools."""
    chosen = {}
    for workload in ("length-cold", "currents"):
        with open(POOLS / f"{workload}.json", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        for entry in entries:
            rational = entry.get("measure", "").startswith("rational:")
            if not rational and "expect" not in entry:
                continue
            key = (workload, entry["cat"], entry["stratum"])
            best = chosen.get(key)
            if best is None or (entry["ms"], entry["id"]) < (best["ms"], best["id"]):
                chosen[key] = entry
    return [chosen[key] for key in sorted(chosen, key=str)]


SAMPLE = _sample()


def _whitehead_sample():
    """The cheapest input with an expected value of every whitehead stratum."""
    with open(POOLS / "whitehead.json", encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    chosen = {}
    for entry in entries:
        if "expect" not in entry:
            continue
        key = (entry["cat"], str(entry["stratum"]))
        best = chosen.get(key)
        if best is None or (entry["ms"], entry["id"]) < (best["ms"], best["id"]):
            chosen[key] = entry
    return [chosen[key] for key in sorted(chosen)]


WHITEHEAD_SAMPLE = _whitehead_sample()


def _measure(rank, text):
    if text == "uniform_as_markov":
        return sf.markov_measure(sf.uniform_as_markov(rank))
    if text.startswith("markov:"):
        return sf.markov_measure(sf.load_markov_spec(text[len("markov:"):]))
    return sf.rational_measure(rank, sf.parse_word(text[len("rational:"):]))


def test_sample_covers_every_stratum():
    # 66 length-cold strata and 24 currents strata carry an expected
    # value; 12 currents strata are rational words
    assert len(SAMPLE) == 102
    assert sorted(e["id"] for e in SAMPLE) == sorted(SPENT)


@pytest.mark.parametrize("entry", SAMPLE, ids=lambda e: e["id"])
def test_pooled_answer_and_nodes(entry):
    rank = entry["rank"]
    if "inverse" in entry:
        auto = sf.make_automorphism(
            rank, sf.parse_map_text(rank, entry["map"]), sf.parse_map_text(rank, entry["inverse"])
        )
    else:
        auto = sf.parse_generator_expression(rank, entry["map"])
    budget = sf.Budget()
    measure = entry.get("measure")
    if measure is None:
        value = sf.length_exact(auto, budget=budget).value
    else:
        value = sf.eta_length(auto, _measure(rank, measure), budget=budget).value
    if "expect" in entry:
        assert value == Fraction(entry["expect"])
    else:
        assert value == cyclic_length(auto.apply(sf.parse_word(measure[len("rational:"):])))
    assert budget.spent == SPENT[entry["id"]]


def test_whitehead_sample_covers_every_stratum():
    # factorize2 strata 1-5, factorize3 strata 1-2 and spectrum (2, 1..3)
    # carry an expected value; spectrum (3, 1) has none
    assert len(WHITEHEAD_SAMPLE) == 10
    assert sorted(e["id"] for e in WHITEHEAD_SAMPLE) == sorted(WHITEHEAD_SPENT)


@pytest.mark.parametrize("entry", WHITEHEAD_SAMPLE, ids=lambda e: e["id"])
def test_pooled_whitehead_answer_and_nodes(entry):
    budget = sf.Budget()
    if entry["op"] == "factorize":
        auto = sf.parse_generator_expression(entry["rank"], entry["map"])
        report = sf.factorize(auto, budget=budget)
        assert report.recomposed() == auto
        lengths = report.lengths
        assert all(a < b for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] == Fraction(entry["expect"])
    else:
        report = sf.spectrum(entry["rank"], entry["max_factors"], budget=budget)
        assert list(report.values()) == [Fraction(v) for v in entry["expect"]]
    assert budget.spent == WHITEHEAD_SPENT[entry["id"]]
