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
    "chain2-0010": 4, "chain2-0019": 12, "chain2-0034": 59, "chain2-0060": 64,
    "chain2-0068": 72, "chain2-0095": 174, "chain2-0096": 169, "chain2-0113": 341,
    "chain2-0128": 516, "chain2-0144": 357, "chain2-0175": 367, "chain2-0184": 399,
    "chain2-0198": 694, "chain2-0221": 365, "chain2-0237": 735, "chain2-0247": 569,
    "chain2-0258": 829, "chain2-0284": 801, "chain2-0295": 1654, "chain2-0318": 999,
    "chain2-0324": 1110, "chain2-0345": 1402, "chain2-0361": 2127, "chain2-0374": 1025,
    "chain3-0006": 6, "chain3-0015": 18, "chain3-0025": 206, "chain3-0039": 115,
    "chain4-0011": 8, "chain4-0014": 139, "chain4-0025": 893, "chain4-0044": 479,
    "nielsen-0000": 6, "nielsen-0001": 28, "nielsen-0002": 57, "nielsen-0003": 93,
    "nielsen-0004": 136, "nielsen-0005": 186, "nielsen-0006": 243, "nielsen-0007": 307,
    "nielsen-0008": 378, "nielsen-0009": 456, "nielsen-0010": 541, "nielsen-0011": 633,
    "nielsen-0012": 732, "nielsen-0013": 838, "nielsen-0014": 951,
    "nielsen-0015": 1071, "nielsen-0016": 1198, "nielsen-0017": 1332,
    "nielsen-0018": 1473, "nielsen-0019": 1621, "nielsen-0020": 1776,
    "nielsen-0021": 1938, "nielsen-0022": 2107, "nielsen-0023": 2283,
    "nielsen-0024": 2466, "nielsen-0025": 2656, "nielsen-0026": 2853,
    "nielsen-0027": 3057, "nielsen-0028": 3268, "nielsen-0029": 3486,
    "nielsen-0030": 3711, "raw2-0017": 4, "raw2-0023": 16, "raw2-0055": 4,
    "markov-0004": 4, "markov-0015": 53, "markov-0018": 16, "markov-0027": 68,
    "markov-0035": 133, "markov-0046": 102, "markov-0052": 121, "markov-0058": 347,
    "markov-0068": 228, "markov-0074": 277, "markov-0087": 469, "markov-0095": 546,
    "rational-0005": 6, "rational-0008": 12, "rational-0017": 44, "rational-0026": 168,
    "rational-0038": 109, "rational-0042": 110, "rational-0054": 145,
    "rational-0058": 206, "rational-0068": 276, "rational-0074": 326,
    "rational-0084": 393, "rational-0094": 683, "uniform_as_markov-0003": 4,
    "uniform_as_markov-0011": 28, "uniform_as_markov-0017": 61,
    "uniform_as_markov-0028": 126, "uniform_as_markov-0037": 104,
    "uniform_as_markov-0046": 247, "uniform_as_markov-0048": 202,
    "uniform_as_markov-0057": 310, "uniform_as_markov-0070": 302,
    "uniform_as_markov-0072": 329, "uniform_as_markov-0083": 197,
    "uniform_as_markov-0090": 627,
}

# Budget.spent of each sampled whitehead input.
WHITEHEAD_SPENT = {
    "factorize2-0002": 34, "factorize2-0046": 34, "factorize2-0075": 126,
    "factorize2-0094": 144, "factorize2-0135": 218, "factorize3-0004": 211,
    "factorize3-0035": 537, "spectrum-0000": 130, "spectrum-0001": 486,
    "spectrum-0002": 1604,
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
