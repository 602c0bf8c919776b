"""Per-layer tracing from the benchmark's side of the API.

The engine is not edited: each layer function is wrapped in every
namespace that bound it (module globals, the package root, or the class
for methods).  A wrapper opens a span (name, start, end, parent) around
the call; when the span closes its duration is charged to the parent's
child time, and its self time (duration minus the time its child spans
cover) is added to the layer's totals.  Spans are aggregated as they
close, so memory stays flat however many calls a run makes.

A hook target that a refactor renamed or deleted is reported as absent,
and its metrics read 0.
"""

from __future__ import annotations

import sys
import time

# (metric, unit, better) in the order they are printed
PER_LAYER = (
    ("boundary.sweep.calls", "count", "lower"),
    ("boundary.sweep.nodes", "nodes", "lower"),
    ("boundary.sweep.self_ms", "ms", "lower"),
    ("boundary.sweep.max_depth", "letters", "lower"),
    ("boundary.refused.upfront", "count", "lower"),
    ("boundary.refused.spent", "count", "lower"),
    ("boundary.assemble.calls", "count", "lower"),
    ("boundary.assemble.self_ms", "ms", "lower"),
    ("boundary.translate.calls", "count", "lower"),
    ("boundary.translate.pieces", "count", "lower"),
    ("boundary.translate.self_ms", "ms", "lower"),
    ("boundary.canonical.calls", "count", "lower"),
    ("boundary.canonical.words_in", "count", "lower"),
    ("boundary.canonical.self_ms", "ms", "lower"),
    ("boundary.family.calls", "count", "lower"),
    ("boundary.family.hit_ratio", "ratio", "higher"),
    ("boundary.preimage.calls", "count", "lower"),
    ("boundary.preimage.hit_ratio", "ratio", "higher"),
    ("boundary.preimage.self_ms", "ms", "lower"),
    ("boundary.pair_mass.uniform.calls", "count", "lower"),
    ("boundary.pair_mass.uniform.self_ms", "ms", "lower"),
    ("boundary.pair_mass.generic.calls", "count", "lower"),
    ("boundary.pair_mass.generic.pairs", "count", "lower"),
    ("boundary.pair_mass.generic.self_ms", "ms", "lower"),
    ("measures.eval.calls", "count", "lower"),
    ("measures.eval.self_ms", "ms", "lower"),
    ("boundary.nodes_per_op", "nodes", "lower"),
    ("automorphisms.construct.calls", "count", "lower"),
    ("automorphisms.construct.self_ms", "ms", "lower"),
    ("automorphisms.verify.calls", "count", "lower"),
    ("automorphisms.verify.self_ms", "ms", "lower"),
    ("automorphisms.compose.calls", "count", "lower"),
    ("automorphisms.compose.self_ms", "ms", "lower"),
    ("words.word_new.calls", "count", "lower"),
    ("whitehead.normalize.calls", "count", "lower"),
    ("whitehead.normalize.self_ms", "ms", "lower"),
    ("whitehead.descent_step.calls", "count", "lower"),
    ("whitehead.descent_step.candidates", "count", "lower"),
    ("length.eta_length.calls", "count", "lower"),
    ("length.eta_length.ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.child_s = name, start, 0.0, parent, 0.0


class Tracer:
    def __init__(self):
        self.stack: list[Span] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    def add(self, metric: str, n: float = 1) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def peak(self, metric: str, value: float) -> None:
        self.counts[metric] = max(self.counts.get(metric, 0), value)

    def _wrap(self, name, fn, enter, leave):
        stack, clock = self.stack, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            ctx = self._guard(label, enter, args) if enter else None
            span = Span(label, clock(), stack[-1] if stack else None)
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                dur = span.end - span.start
                if span.parent is not None:
                    span.parent.child_s += dur
                calls[label] = calls.get(label, 0) + 1
                self_s[label] = self_s.get(label, 0.0) + dur - span.child_s
                total_s[label] = total_s.get(label, 0.0) + dur
                if leave:
                    self._guard(label, leave, args, result, ctx)

        return traced

    def _guard(self, label, counter, *args):
        """Run a counter hook; one that no longer fits the call marks its layer absent."""
        try:
            return counter(*args)
        except (AttributeError, TypeError, IndexError, KeyError):
            if label not in self.absent:
                self.absent.append(label)
            return None

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def hook(self, target: str, name, enter=None, leave=None, adapt=None, count_only=False) -> None:
        """Wrap `module:function` or `module:Class.method` wherever it is bound."""
        mod_name, _, path = target.partition(":")
        owner_name, _, attr = path.rpartition(".")
        try:
            owner = sys.modules[mod_name]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
        except (KeyError, AttributeError):
            self.absent.append(target)
            return
        body = adapt(original) if adapt else original
        if count_only:
            wrapped = self._count(name, body)
        else:
            wrapped = self._wrap(name, body, enter, leave)
        if owner_name:
            setattr(owner, attr, staticmethod(wrapped) if attr == "__new__" else wrapped)
            return
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == mod_name.split(".")[0]]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def install(tr: Tracer) -> None:
    """Hook every layer the per-layer metrics name."""
    boundary = sys.modules.get("stretchfactor.boundary")
    frontier = getattr(boundary, "_frontier_depth", None)
    b = "stretchfactor.boundary"

    def sweep_leave(args, result, spent0):
        tr.add("boundary.sweep.nodes", args[1].spent - spent0)
        if frontier is not None:
            tr.peak("boundary.sweep.max_depth", frontier(args[0]))

    tr.hook(f"{b}:_atom_depth1", "boundary.sweep", lambda a: a[1].spent, sweep_leave)
    if frontier is None:
        tr.absent.append(f"{b}:_frontier_depth")
    tr.hook(f"{b}:_family_from_factors", "boundary.assemble")
    tr.hook(f"{b}:translate_cylinder", "boundary.translate",
            leave=lambda a, r, c: tr.add("boundary.translate.pieces", _len(r)))

    def count_words(canonical):
        def canonical_words(rank, words):
            words = list(words)
            tr.add("boundary.canonical.words_in", len(words))
            return canonical(rank, words)
        return canonical_words

    tr.hook(f"{b}:canonical_words", "boundary.canonical", adapt=count_words)

    def cache_hits(metric, attr):
        def enter(a):
            return len(getattr(a[-1], attr))

        def leave(a, r, before):
            if r is not None and len(getattr(a[-1], attr)) == before:
                tr.add(metric)
        return enter, leave

    tr.hook(f"{b}:_depth1_family", "boundary.family", *cache_hits("boundary.family.hits", "families"))
    tr.hook(f"{b}:_preimage", "boundary.preimage", *cache_hits("boundary.preimage.hits", "partitions"))

    def pair_kind(a):
        return "boundary.pair_mass.uniform" if a[0].kind == "uniform" else "boundary.pair_mass.generic"

    def pair_leave(a, r, c):
        if a[0].kind != "uniform":
            tr.add("boundary.pair_mass.generic.pairs", _len(a[1]) * _len(a[2]))

    tr.hook(f"{b}:_pair_mass", pair_kind, leave=pair_leave)
    tr.hook("stretchfactor.measures:FrequencyMeasure.eval", "measures.eval")
    tr.hook("stretchfactor.automorphisms:Automorphism.__init__", "automorphisms.construct")
    tr.hook("stretchfactor.automorphisms:Automorphism._verify", "automorphisms.verify")
    tr.hook("stretchfactor.automorphisms:compose", "automorphisms.compose")
    tr.hook("stretchfactor.words:Word.__new__", "words.word_new", count_only=True)
    tr.hook("stretchfactor.whitehead:_normalize", "whitehead.normalize")
    tr.hook("stretchfactor.whitehead:descent_step", "whitehead.descent_step",
            lambda a: tr.calls.get("length.eta_length", 0),
            lambda a, r, before: tr.add("whitehead.descent_step.candidates",
                                        tr.calls.get("length.eta_length", 0) - before))
    tr.hook("stretchfactor.length:eta_length", "length.eta_length")


def per_layer(tr: Tracer, ops: int, nodes: int, outcomes: dict, overhead: float) -> dict:
    """Every per-layer metric as {name: value}."""

    def ratio(hits, calls):
        return hits / calls if calls else 0.0

    out: dict = {}
    for name, unit, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = tr.calls.get(layer, 0)
        elif what == "self_ms":
            out[name] = 1000 * tr.self_s.get(layer, 0.0)
        elif what == "ms":
            out[name] = 1000 * tr.total_s.get(layer, 0.0)
        elif what == "hit_ratio":
            out[name] = ratio(tr.counts.get(f"{layer}.hits", 0), tr.calls.get(layer, 0))
        else:
            out[name] = tr.counts.get(name, 0)
    out["boundary.refused.upfront"] = outcomes.get("refused_upfront", 0)
    out["boundary.refused.spent"] = outcomes.get("refused_spent", 0)
    out["boundary.nodes_per_op"] = nodes / ops
    out["trace.overhead_frac"] = overhead
    return out
