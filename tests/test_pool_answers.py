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
node count pinned, and every pooled map's shortest conjugate is held to
the former letter-by-letter descent.  The pool files are read, never
written.
"""

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stretchfactor as sf
from stretchfactor.words import cyclic_length

from conftest import assert_class_rep_by_steps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POOLS = PERFBENCH / "pools"

# Budget.spent of each sampled input, as the engine spends it.
SPENT = {
    "chain2-0010": 0, "chain2-0019": 0, "chain2-0034": 0, "chain2-0060": 7,
    "chain2-0068": 7, "chain2-0095": 7, "chain2-0096": 6, "chain2-0113": 7,
    "chain2-0128": 3, "chain2-0144": 12, "chain2-0175": 3, "chain2-0184": 7,
    "chain2-0198": 0, "chain2-0221": 20, "chain2-0237": 7, "chain2-0247": 6,
    "chain2-0258": 0, "chain2-0284": 21, "chain2-0295": 13, "chain2-0318": 7,
    "chain2-0324": 3, "chain2-0345": 7, "chain2-0361": 45, "chain2-0374": 13,
    "chain3-0006": 0, "chain3-0015": 0, "chain3-0025": 10, "chain3-0039": 6,
    "chain4-0011": 0, "chain4-0014": 6, "chain4-0025": 12, "chain4-0044": 12,
    "nielsen-0000": 3, "nielsen-0001": 6, "nielsen-0002": 11, "nielsen-0003": 18,
    "nielsen-0004": 27, "nielsen-0005": 38, "nielsen-0006": 51, "nielsen-0007": 66,
    "nielsen-0008": 83, "nielsen-0009": 102, "nielsen-0010": 123, "nielsen-0011": 146,
    "nielsen-0012": 171, "nielsen-0013": 198, "nielsen-0014": 227,
    "nielsen-0015": 258, "nielsen-0016": 291, "nielsen-0017": 326,
    "nielsen-0018": 363, "nielsen-0019": 402, "nielsen-0020": 443,
    "nielsen-0021": 486, "nielsen-0022": 531, "nielsen-0023": 578,
    "nielsen-0024": 627, "nielsen-0025": 678, "nielsen-0026": 731,
    "nielsen-0027": 786, "nielsen-0028": 843, "nielsen-0029": 902,
    "nielsen-0030": 963, "raw2-0017": 0, "raw2-0023": 3, "raw2-0055": 0,
    "markov-0004": 0, "markov-0015": 0, "markov-0018": 0, "markov-0027": 6,
    "markov-0035": 3, "markov-0046": 3, "markov-0052": 3, "markov-0058": 0,
    "markov-0068": 6, "markov-0074": 3, "markov-0087": 3, "markov-0095": 3,
    "rational-0005": 3, "rational-0008": 0, "rational-0017": 7, "rational-0026": 0,
    "rational-0038": 0, "rational-0042": 7, "rational-0054": 3,
    "rational-0058": 3, "rational-0068": 0, "rational-0074": 6,
    "rational-0084": 7, "rational-0094": 3, "uniform_as_markov-0003": 0,
    "uniform_as_markov-0011": 6, "uniform_as_markov-0017": 0,
    "uniform_as_markov-0028": 0, "uniform_as_markov-0037": 6,
    "uniform_as_markov-0046": 3, "uniform_as_markov-0048": 7,
    "uniform_as_markov-0057": 0, "uniform_as_markov-0070": 3,
    "uniform_as_markov-0072": 3, "uniform_as_markov-0083": 6,
    "uniform_as_markov-0090": 10,
}

# Budget.spent of each sampled whitehead input.
WHITEHEAD_SPENT = {
    "factorize2-0002": 0, "factorize2-0046": 0, "factorize2-0075": 0,
    "factorize2-0094": 0, "factorize2-0135": 0, "factorize3-0004": 0,
    "factorize3-0035": 0, "spectrum-0000": 0, "spectrum-0001": 12,
    "spectrum-0002": 41,
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
def test_every_pooled_class_rep(monkeypatch, workload):
    # every pooled map's shortest conjugate, conjugator and inverse images
    # are those of the former letter-by-letter descent
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    maps = 0
    for entry in workloads.load_pool(workload):
        prepared = workloads.prepare(sf, entry)
        if prepared is not None:
            assert_class_rep_by_steps(prepared[0] if entry["op"] == "eta" else prepared)
            maps += 1
    assert maps == {"length-cold": 571, "currents": 288, "whitehead": 190}[workload]


@pytest.mark.parametrize("workload", ["length-cold", "currents", "whitehead"])
def test_every_pooled_answer(monkeypatch, workload):
    # the benchmark's own prepare, execute and check, one fresh budget and
    # cache per input; importing writes no bytecode under perfbench/.  The
    # pool's total spend pins the node counts of the inputs SPENT omits.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    wrong = []
    spent = 0
    entries = workloads.load_pool(workload)
    for entry in entries:
        prepared = workloads.prepare(sf, entry)
        budget = sf.Budget()
        answer = workloads.execute(sf, entry, prepared, budget, sf.PartitionCache())
        spent += budget.spent
        try:
            workloads.check(entry, answer)
        except workloads.WrongAnswer as e:
            wrong.append(str(e))
    assert wrong == []
    assert len(entries) == {"length-cold": 571, "currents": 288, "whitehead": 194}[workload]
    assert spent == {"length-cold": 16044, "currents": 1662, "whitehead": 942}[workload]
