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
benchmark.  Every input of all three pools is also run and checked the
way the benchmark checks it, through `perfbench/workloads.py`, with no
node count pinned.  The pool files are read, never written.
"""

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stretchfactor as sf
from stretchfactor.words import cyclic_length

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POOLS = PERFBENCH / "pools"

# Budget.spent of each sampled input, as the engine spends it.
SPENT = {
    "chain2-0010": 4, "chain2-0019": 4, "chain2-0034": 10, "chain2-0060": 11,
    "chain2-0068": 11, "chain2-0095": 23, "chain2-0096": 16, "chain2-0113": 41,
    "chain2-0128": 52, "chain2-0144": 42, "chain2-0175": 36, "chain2-0184": 34,
    "chain2-0198": 74, "chain2-0221": 42, "chain2-0237": 63, "chain2-0247": 54,
    "chain2-0258": 87, "chain2-0284": 88, "chain2-0295": 173, "chain2-0318": 96,
    "chain2-0324": 115, "chain2-0345": 141, "chain2-0361": 210, "chain2-0374": 89,
    "chain3-0006": 6, "chain3-0015": 6, "chain3-0025": 17, "chain3-0039": 13,
    "chain4-0011": 8, "chain4-0014": 17, "chain4-0025": 29, "chain4-0044": 20,
    "nielsen-0000": 6, "nielsen-0001": 9, "nielsen-0002": 14, "nielsen-0003": 21,
    "nielsen-0004": 30, "nielsen-0005": 41, "nielsen-0006": 54, "nielsen-0007": 69,
    "nielsen-0008": 86, "nielsen-0009": 105, "nielsen-0010": 126, "nielsen-0011": 149,
    "nielsen-0012": 174, "nielsen-0013": 201, "nielsen-0014": 230,
    "nielsen-0015": 261, "nielsen-0016": 294, "nielsen-0017": 329,
    "nielsen-0018": 366, "nielsen-0019": 405, "nielsen-0020": 446,
    "nielsen-0021": 489, "nielsen-0022": 534, "nielsen-0023": 581,
    "nielsen-0024": 630, "nielsen-0025": 681, "nielsen-0026": 734,
    "nielsen-0027": 789, "nielsen-0028": 846, "nielsen-0029": 905,
    "nielsen-0030": 966, "raw2-0017": 4, "raw2-0023": 6, "raw2-0055": 4,
    "markov-0004": 4, "markov-0015": 10, "markov-0018": 4, "markov-0027": 10,
    "markov-0035": 18, "markov-0046": 12, "markov-0052": 16, "markov-0058": 39,
    "markov-0068": 23, "markov-0074": 33, "markov-0087": 58, "markov-0095": 53,
    "rational-0005": 6, "rational-0008": 4, "rational-0017": 10, "rational-0026": 21,
    "rational-0038": 15, "rational-0042": 20, "rational-0054": 18,
    "rational-0058": 20, "rational-0068": 31, "rational-0074": 36,
    "rational-0084": 46, "rational-0094": 64, "uniform_as_markov-0003": 4,
    "uniform_as_markov-0011": 9, "uniform_as_markov-0017": 10,
    "uniform_as_markov-0028": 18, "uniform_as_markov-0037": 15,
    "uniform_as_markov-0046": 30, "uniform_as_markov-0048": 27,
    "uniform_as_markov-0057": 34, "uniform_as_markov-0070": 35,
    "uniform_as_markov-0072": 33, "uniform_as_markov-0083": 24,
    "uniform_as_markov-0090": 64,
}

# Budget.spent of each sampled whitehead input.
WHITEHEAD_SPENT = {
    "factorize2-0002": 9, "factorize2-0046": 9, "factorize2-0075": 21,
    "factorize2-0094": 21, "factorize2-0135": 33, "factorize3-0004": 19,
    "factorize3-0035": 31, "spectrum-0000": 16, "spectrum-0001": 48,
    "spectrum-0002": 164,
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


@pytest.mark.parametrize("workload", ["length-cold", "currents", "whitehead"])
def test_every_pooled_answer(monkeypatch, workload):
    # the benchmark's own prepare, execute and check, one fresh budget and
    # cache per input; importing writes no bytecode under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    wrong = []
    entries = workloads.load_pool(workload)
    for entry in entries:
        prepared = workloads.prepare(sf, entry)
        answer = workloads.execute(sf, entry, prepared, sf.Budget(), sf.PartitionCache())
        try:
            workloads.check(entry, answer)
        except workloads.WrongAnswer as e:
            wrong.append(str(e))
    assert wrong == []
    assert len(entries) == {"length-cold": 571, "currents": 288, "whitehead": 194}[workload]
