"""The benchmark's per-layer hooks (perfbench/tracing.py) still fit the engine.

The hooks rebind module globals and class attributes for the whole
process, so they run in a subprocess that leaves this test session as
it was.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_TRACE_ONE_OP_PER_KIND = """
import json, sys
sys.path.insert(0, sys.argv[1])
import stretchfactor as sf
import tracing

tr = tracing.Tracer()
tracing.install(tr)
phi = sf.parse_generator_expression(2, "W2[a; b:CONJ] * inner[ab]")
for mu in (
    sf.uniform_measure(2),
    sf.markov_measure(sf.uniform_as_markov(2)),
    sf.rational_measure(2, sf.parse_word("abAAB")),
):
    sf.eta_length(phi, mu, cache=sf.PartitionCache())
print(json.dumps({"absent": tr.absent, "calls": tr.calls, "counts": tr.counts}))
"""


def _trace(script):
    """Run a tracing script in a subprocess and read the JSON it prints."""
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-c", script, str(root / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# Hook targets that perfbench still names but the engine no longer has,
# and the preimage hook, whose counter reads the deleted partition cache.
_ABSENT = [
    "stretchfactor.boundary:_atom_depth1",
    "stretchfactor.boundary:_frontier_depth",
    "stretchfactor.boundary:translate_cylinder",
    "stretchfactor.boundary:canonical_words",
    "stretchfactor.whitehead:_normalize",
    "boundary.preimage",
]


def test_benchmark_hooks_find_every_layer():
    doc = _trace(_TRACE_ONE_OP_PER_KIND)
    # every hook target but those is found; the generic walk's pair
    # counter reads a third argument, which `_pair_mass(mu, parts)` no
    # longer takes, so that counter is marked absent
    assert doc["absent"] == _ABSENT + ["boundary.pair_mass.generic"]
    calls = doc["calls"]
    # one pair-sum walk per eta_length, spans labelled by mu.kind
    assert calls["boundary.pair_mass.uniform"] == 1
    assert calls["boundary.pair_mass.generic"] == 2
    assert calls["length.eta_length"] == 3
    # pair sums read the measure's automaton, not eval
    assert "measures.eval" not in calls
    # every engine layer the trace hooks is still on the path, so a
    # refactor that routes around a hook fails here instead of reading 0
    for layer in (
        "boundary.preimage",
        "boundary.family",
        "boundary.assemble",
    ):
        assert calls.get(layer, 0) >= 1, layer
    assert "boundary.pair_mass.generic.pairs" not in doc["counts"]


_TRACE_TABLES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import stretchfactor as sf
import tracing

tr = tracing.Tracer()
tracing.install(tr)
phi = sf.parse_generator_expression(2, "W2[a; b:CONJ] * inner[ab]")
sf.pushforward_table(phi, sf.uniform_measure(2), 3)
sf.pushforward_table(phi, sf.markov_measure(sf.uniform_as_markov(2)), 2)
print(json.dumps({"absent": tr.absent, "calls": tr.calls, "counts": tr.counts}))
"""


def test_benchmark_hook_sees_the_preimages_of_each_table():
    # a table of depth n >= 2 walks the depth-(n-1) preimages once
    # (`boundary._cross_mass`), which the pair-mass hook does not wrap, so
    # the trace reads no pair-mass walk for these tables
    doc = _trace(_TRACE_TABLES)
    assert doc["absent"] == _ABSENT
    calls = doc["calls"]
    assert not any(layer.startswith("boundary.pair_mass") for layer in calls)
    assert doc["counts"] == {}
    # the 12 depth-2 preimages of the depth-3 table and the 4 families of
    # the depth-2 one, each asked for once
    assert calls["boundary.preimage"] == 12 + 4
    assert calls["boundary.family"] == 2
