"""Command-line front end.

Exit codes: 0 success, 1 internal error (an engine bug, reported with its
traceback), 2 input errors (an unknown option included), 3 node-budget
exhaustion, 4 stuck descent.  Each subcommand takes only the options it
reads.  All rationals print as "p/q"; decimal renderings are labeled
approximations.  Identical invocations produce byte-identical output,
and no command writes files.
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

    common = {
        "--map": dict(
            required=True,
            help="basis images 'a->a,b->ba' or an expression "
            "W2[a; b:RIGHT] * perm[a->b,b->a] * inner[ab]",
        ),
        "--inverse": dict(
            default=None, help="inverse basis images (required for raw '->' maps)"
        ),
        "--budget": dict(type=int, default=boundary.DEFAULT_BUDGET),
        "--format": dict(choices=("text", "json"), default="text"),
        "--reduce": dict(
            action="store_true",
            help="freely reduce word arguments instead of rejecting them",
        ),
    }

    def add(name, help, *options):
        """A subcommand with --rank and the named common options."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--rank", type=int, required=True, help="free group rank k")
        for option in options:
            p.add_argument(option, **common[option])
        return p

    mapped = ("--map", "--inverse", "--budget", "--format")

    p = add("length", "exact length of the map", *mapped, "--reduce")
    p.add_argument("--measure", default="uniform")

    p = add("estimate", "Monte Carlo length estimate", "--map", "--inverse", "--format")
    p.add_argument("--n", type=int, default=2000, help="random word length")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("pushforward", "pushforward cylinder table", *mapped, "--reduce")
    p.add_argument("--measure", default="uniform")
    p.add_argument("--depth", type=int, default=2)

    p = add("preimage", "exact cylinder preimage partition", *mapped, "--reduce")
    p.add_argument("--target", required=True, help="cylinder label, e.g. 'ab'")

    add("recenter", "greedy mass recentering", *mapped)
    add("factorize", "descent factorization", *mapped)

    p = add("spectrum", "length spectrum of bounded compositions", "--budget")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--max-factors", type=int, default=1)

    p = add("check-current", "validate a measure / criterion check", "--format", "--reduce")
    p.add_argument("--measure", required=True)
    p.add_argument("--depth", type=int, default=4)

    p = add("selftest", "run the exact invariant suite")
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


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _measure(args) -> measures.FrequencyMeasure:
    return measures.parse_measure_selector(args.rank, args.measure, reduce=args.reduce)


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
    if args.command == "length":
        auto = _resolve_map(args)
        rep = length.eta_length(auto, _measure(args), budget=args.budget)
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
            auto, _measure(args), args.depth, budget=args.budget
        )
        items = sorted(table.items(), key=lambda kv: word_key(kv[0]))
        if args.format == "json":
            _emit([json.dumps({format_word(w): frac_str(q) for w, q in items}, sort_keys=True)])
        else:
            _emit([f"{format_word(w)} = {frac_str(q)}" for w, q in items])
    elif args.command == "preimage":
        auto = _resolve_map(args)
        target = parse_word(args.target, reduce=args.reduce)
        part = boundary.preimage_partition(auto, target, budget=args.budget)
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
        v, psi = boundary.recenter(auto, budget=args.budget)
        if args.format == "json":
            _emit([json.dumps({"v": format_word(v), "conjugated": psi.key()}, sort_keys=True)])
        else:
            _emit([f"v = {format_word(v)}", f"conjugated map = {psi.key()}"])
    elif args.command == "factorize":
        auto = _resolve_map(args)
        rep = whitehead.factorize(auto, budget=args.budget)
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
        rep = whitehead.spectrum(args.rank, args.max_factors, budget=args.budget)
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
        # a Markov spec is read once, for the measure and the criterion both
        spec = None
        if args.measure.startswith("markov:"):
            spec = measures._markov_spec(args.rank, args.measure.split(":", 1)[1])
        mu = _measure(args) if spec is None else measures.markov_measure(spec)
        if not measures.consistency_check(mu, args.depth):
            raise InputError("measure failed the cylinder consistency identities")
        doc = {"consistency": True}
        lines = [f"consistency depth {args.depth} = pass"]
        if spec is not None:
            crit = measures.criterion_check(spec)
            doc.update(crit.as_dict())
            lines.append(f"criterion passes = {crit.passes}")
            for name in ("C1", "C2", "b"):
                for letter, q in doc[name].items():
                    lines.append(f"{name}({letter}) = {q}")
            if crit.witness is not None:
                lines.append(f"witness = {format_letter(crit.witness)} ({crit.reason})")
        _emit([json.dumps(doc, sort_keys=True)] if args.format == "json" else lines)
    elif args.command == "selftest":
        return run_selftest(args.rank, args.depth)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
