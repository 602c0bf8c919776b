"""Command-line front end.

Exit codes: 0 success, 1 internal error (an engine bug, reported with its
traceback), 2 input errors, 3 node-budget exhaustion, 4 stuck descent.
All rationals print as "p/q"; decimal renderings are labeled
approximations.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from . import boundary, length, measures, whitehead
from .automorphisms import (
    Automorphism,
    make_automorphism,
    parse_generator_expression,
    parse_map_text,
)
from .errors import DescentStuckError, InputError, ResourceLimitError
from .measures import frac_str
from .selftest import run_selftest
from .words import format_letter, format_word, letter_key, parse_word, word_key

DECIMAL_DIGITS = 12


def _approx(q: Fraction) -> str:
    return format(float(q), f".{DECIMAL_DIGITS}g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretchfactor",
        description="Exact stretching factors of free-group automorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_map=True, formats=("text", "json")):
        p.add_argument("--rank", type=int, required=True, help="free group rank k")
        if needs_map:
            p.add_argument(
                "--map",
                required=True,
                help="basis images 'a->a,b->ba' or an expression "
                "W2[a; b:RIGHT] * perm[a->b,b->a] * inner[ab]",
            )
            p.add_argument(
                "--inverse",
                default=None,
                help="inverse basis images (required for raw '->' maps)",
            )
        p.add_argument("--budget", type=int, default=boundary.DEFAULT_BUDGET)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument(
            "--reduce",
            action="store_true",
            help="freely reduce word arguments instead of rejecting them",
        )
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("length", help="exact length of the map")
    add_common(p)
    p.add_argument("--measure", default="uniform")

    p = sub.add_parser("estimate", help="Monte Carlo length estimate")
    add_common(p)
    p.add_argument("--n", type=int, default=2000, help="random word length")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pushforward", help="pushforward cylinder table")
    add_common(p)
    p.add_argument("--measure", default="uniform")
    p.add_argument("--depth", type=int, default=2)

    p = sub.add_parser("preimage", help="exact cylinder preimage partition")
    add_common(p)
    p.add_argument("--target", required=True, help="cylinder label, e.g. 'ab'")

    p = sub.add_parser("recenter", help="greedy mass recentering")
    add_common(p)

    p = sub.add_parser("factorize", help="descent factorization")
    add_common(p)

    p = sub.add_parser("spectrum", help="length spectrum of bounded compositions")
    add_common(p, needs_map=False, formats=("text", "json", "csv"))
    p.add_argument("--max-factors", type=int, default=1)
    p.add_argument("--emit", default=None, help="write the spectrum as CSV")

    p = sub.add_parser("check-current", help="validate a measure / criterion check")
    add_common(p, needs_map=False)
    p.add_argument("--measure", required=True)
    p.add_argument("--depth", type=int, default=4)

    p = sub.add_parser("selftest", help="run the exact invariant suite")
    add_common(p, needs_map=False)
    p.add_argument("--depth", type=int, default=5)
    return parser


def _resolve_map(args) -> Automorphism:
    text = args.map.strip()
    if "[" in text:
        return parse_generator_expression(args.rank, text)
    fwd = parse_map_text(args.rank, text)
    if args.inverse is None:
        raise InputError(
            "raw maps need --inverse (or use W2[...]/perm[...]/inner[...] expressions)"
        )
    bwd = parse_map_text(args.rank, args.inverse)
    return make_automorphism(args.rank, fwd, bwd)


def _cache(args) -> boundary.PartitionCache:
    if args.no_cache:
        return boundary.PartitionCache()
    cache = boundary.PartitionCache()
    if args.cache_dir:
        cache.load(args.cache_dir)
    return cache


def _save_cache(args, cache: boundary.PartitionCache) -> None:
    if args.cache_dir and not args.no_cache:
        cache.save(args.cache_dir)


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _measure(args) -> measures.FrequencyMeasure:
    return measures.parse_measure_selector(
        args.rank, args.measure, reduce=getattr(args, "reduce", False)
    )


def _report_length(rep: length.LengthReport, fmt: str) -> list[str]:
    by_letter = sorted(rep.breakdown.items(), key=lambda kv: letter_key(kv[0]))
    if fmt == "json":
        doc = {
            "value": frac_str(rep.value),
            "decimal_approx": _approx(rep.value),
            "breakdown": {format_letter(x): frac_str(q) for x, q in by_letter},
            "measure": rep.measure,
            "nodes": rep.nodes,
        }
        return [json.dumps(doc, sort_keys=True)]
    lines = [f"length = {frac_str(rep.value)} (decimal approx {_approx(rep.value)})"]
    for x, q in by_letter:
        lines.append(f"breakdown {format_letter(x)} = {frac_str(q)}")
    lines.append(f"measure = {rep.measure}")
    lines.append(f"nodes = {rep.nodes}")
    return lines


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except DescentStuckError as e:
        print(f"descent stuck: {e}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    cache = _cache(args)
    if args.command == "length":
        auto = _resolve_map(args)
        rep = length.eta_length(
            auto, _measure(args), budget=args.budget, cache=cache
        )
        _emit(_report_length(rep, args.format))
    elif args.command == "estimate":
        auto = _resolve_map(args)
        est = length.length_mc(auto, args.n, args.trials, args.seed)
        if args.format == "json":
            doc = {
                "mean": est.mean, "stderr": est.stderr, "n": est.n,
                "trials": est.trials, "seed": est.seed,
            }
            _emit([json.dumps(doc, sort_keys=True)])
        else:
            _emit([
                f"mean = {est.mean!r} (decimal approximation; not exact)",
                f"stderr = {est.stderr!r}",
                f"n = {est.n}",
                f"trials = {est.trials}",
                f"seed = {est.seed}",
            ])
    elif args.command == "pushforward":
        auto = _resolve_map(args)
        table = boundary.pushforward_table(
            auto, _measure(args), args.depth, budget=args.budget, cache=cache
        )
        items = sorted(table.items(), key=lambda kv: word_key(kv[0]))
        if args.format == "json":
            _emit([json.dumps({format_word(w): frac_str(q) for w, q in items}, sort_keys=True)])
        else:
            _emit([f"{format_word(w)} = {frac_str(q)}" for w, q in items])
    elif args.command == "preimage":
        auto = _resolve_map(args)
        target = parse_word(args.target, reduce=args.reduce)
        part = boundary.preimage_partition(
            auto, target, budget=args.budget, cache=cache
        )
        mu = measures.uniform_measure(args.rank)
        mass = boundary.partition_mass(mu, part)
        if args.format == "json":
            doc = {
                "target": format_word(target),
                "cylinders": [format_word(w) for w in part.words],
                "uniform_mass": frac_str(mass),
            }
            _emit([json.dumps(doc, sort_keys=True)])
        else:
            lines = [f"preimage of Cyl({format_word(target)}):"]
            lines += [f"  {format_word(w)}" for w in part.words]
            lines.append(f"uniform mass = {frac_str(mass)}")
            _emit(lines)
    elif args.command == "recenter":
        auto = _resolve_map(args)
        v, psi = boundary.recenter(auto, budget=args.budget, cache=cache)
        if args.format == "json":
            _emit([json.dumps({"v": format_word(v), "conjugated": psi.key()}, sort_keys=True)])
        else:
            _emit([f"v = {format_word(v)}", f"conjugated map = {psi.key()}"])
    elif args.command == "factorize":
        auto = _resolve_map(args)
        rep = whitehead.factorize(auto, budget=args.budget, cache=cache)
        if args.format == "json":
            doc = {
                "sigma": rep.sigma.key(),
                "taus": [t.label() for t in rep.taus],
                "lengths": [frac_str(q) for q in rep.lengths],
            }
            _emit([json.dumps(doc, sort_keys=True)])
        else:
            lines = [f"sigma = {rep.sigma.key()}"]
            lines += [f"tau_{i + 1} = {t.label()}" for i, t in enumerate(rep.taus)]
            lines.append("lengths = " + ", ".join(frac_str(q) for q in rep.lengths))
            _emit(lines)
    elif args.command == "spectrum":
        fmt = args.format
        rep = whitehead.spectrum(
            args.rank, args.max_factors, budget=args.budget, cache=cache
        )
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rep.csv_lines()) + "\n")
        if fmt == "csv":
            _emit(rep.csv_lines())
        elif fmt == "json":
            doc = {
                "entries": [
                    {"length": frac_str(v), "multiplicity": m, "representative": r}
                    for v, m, r in rep.entries
                ],
                "min_gap": frac_str(rep.min_gap) if rep.min_gap is not None else None,
            }
            _emit([json.dumps(doc, sort_keys=True)])
        else:
            lines = [
                f"{frac_str(v)} (decimal approx {_approx(v)}) multiplicity {m} rep {r}"
                for v, m, r in rep.entries
            ]
            gap = frac_str(rep.min_gap) if rep.min_gap is not None else "n/a"
            lines.append(f"min gap = {gap}")
            _emit(lines)
    elif args.command == "check-current":
        mu = _measure(args)
        ok = measures.consistency_check(mu, args.depth)
        lines = [f"consistency depth {args.depth} = {'pass' if ok else 'FAIL'}"]
        if not ok:
            raise InputError("measure failed the cylinder consistency identities")
        if args.measure.startswith("markov:"):
            spec = measures.read_markov_file(args.measure.split(":", 1)[1])
            crit = measures.criterion_check(spec)
            doc = crit.as_dict()
            if args.format == "json":
                _emit([json.dumps({"consistency": ok, **doc}, sort_keys=True)])
                _save_cache(args, cache)
                return 0
            lines.append(f"criterion passes = {crit.passes}")
            for name in ("C1", "C2", "b"):
                for letter, q in doc[name].items():
                    lines.append(f"{name}({letter}) = {q}")
            if crit.witness is not None:
                lines.append(f"witness = {format_letter(crit.witness)} ({crit.reason})")
        _emit(lines)
    elif args.command == "selftest":
        code = run_selftest(args.rank, args.depth)
        _save_cache(args, cache)
        return code
    _save_cache(args, cache)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
