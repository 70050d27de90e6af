"""Command-line interface: generate corpus graphs, analyze single graphs,
and verify the whole corpus.

Exit codes are a stable contract for CI: 0 success, 2 usage or input error,
3 verification violation, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import families
from .bounds import verify_theorem
from .errors import PreconditionViolated, ToughlabError
from .graph import (
    Graph,
    VertexSet,
    _require_connected,
    emit_edge_list,
    emit_graph6,
    is_connected,
    parse_graph,
    regularity,
)
from .mixing import (
    EXHAUSTIVE_MAX_N,
    component_count_bound,
    exhaustive_mixing_verify,
    sampled_mixing_verify,
    verify_component_bound,
)
from .partition import claim2_partition
from .spectra import LAMBDA_EPS, _check_lambda, spectrum
from .toughness import COMPONENT_BOUND_MAX_N, DEFAULT_MAX_N, exact_toughness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
# What a shell reports for a process ended by SIGPIPE (128 + 13).
EXIT_BROKEN_PIPE = 141

REPORT_SCHEMA = "toughlab-report/1"

DEFAULT_SAMPLES = 100_000
# 10^6 sampled pairs take about 0.08 s at n = 64 (hypercube 6 or K_64; 2-core
# x86-64, CPython 3.11, numpy 2.4), so the cap bounds one graph's sampling to
# about a second.
MAX_SAMPLES = 10_000_000
DEFAULT_SEED = 42


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse ``type`` for an integer in low..high (no upper limit when
    ``high`` is None), so a bad value exits 2 before any output."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"{value} is outside {low}..{'' if high is None else high}")
        return value
    return parse


# Report keys that differ from the field names of the records they print.
_REPORT_KEYS = {"lam": "lambda", "a": "A", "b": "B", "x": "X", "y": "Y"}


def _report_json(obj: object) -> object:
    """``json.dumps`` default for the records a report holds.

    A ``VertexSet`` prints as its ascending vertex list and a ``Fraction`` as
    ``{num, den}``; any other record prints its dataclass fields, renamed
    through ``_REPORT_KEYS``.  So a record's field order is its report key
    order, which the pinned report digests hold.
    """
    if isinstance(obj, VertexSet):
        return list(obj)
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    return {_REPORT_KEYS.get(f.name, f.name): getattr(obj, f.name)
            for f in dataclasses.fields(obj)}


def _read_graph(path: str) -> Graph:
    return parse_graph(sys.stdin.read() if path == "-" else Path(path).read_text())


def cmd_gen(args: argparse.Namespace) -> int:
    spec = families.parse_family_spec(" ".join([args.family, *args.params]))
    g = families.build(spec)
    payload = emit_graph6(g) + "\n" if args.format == "graph6" else emit_edge_list(g)
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _check_graph(g: Graph, *, toughness_cap: int | None, bounds: bool,
                 mixing: str | None, component_bound: bool, partition: bool,
                 samples: int, seed: int) -> tuple[dict, bool]:
    """The ``toughlab-report/1`` dict for one graph, and whether it records a
    violation.

    ``toughness_cap`` is the exact search's ``max_n``, or None to leave t out;
    ``mixing`` is None, ``"exhaustive"`` or ``"sampled"``.  Sections not asked
    for stay None.  The sections hold the library's result records, which
    ``_report_json`` serializes.
    """
    report: dict = {
        "schema": REPORT_SCHEMA,
        "graph_meta": {
            "n": g.n,
            "m": g.m,
            "d": regularity(g),
            "connected": is_connected(g),
        },
        "spectral": None,
        "bounds": None,
        "toughness": None,
        "mixing": None,
        "component_bound": None,
        "partition": None,
    }
    if bounds or mixing or component_bound:
        report["spectral"] = profile = spectrum(g)
        lam = _check_lambda(profile.lam)
    tough = None
    if toughness_cap is not None:
        tough = exact_toughness(g, toughness_cap)
        report["toughness"] = {"undefined": True} if tough is None else tough
    violation = False
    if bounds:
        report["bounds"] = bound_report = verify_theorem(g, lam, tough)
        violation = violation or bound_report.violation
    if mixing:
        sampled = mixing == "sampled"
        if sampled:
            worst = sampled_mixing_verify(g, samples, seed, lam)
        else:
            worst = exhaustive_mixing_verify(g, lam)
        report["mixing"] = {"mode": mixing,
                            "samples": samples if sampled else None,
                            "seed": seed if sampled else None,
                            "worst": worst}
        violation = violation or worst.slack < -LAMBDA_EPS
    if component_bound:
        value = component_count_bound(g, lam)
        verified = None
        if g.n <= COMPONENT_BOUND_MAX_N:
            verified = verify_component_bound(g, lam)
            violation = violation or not verified
        report["component_bound"] = {"value": value, "verified": verified}
    if partition:
        if tough is None:
            report["partition"] = {"precondition_failed": "toughness undefined"}
        else:
            try:
                report["partition"] = claim2_partition(g, tough.witness)
            except PreconditionViolated as exc:
                report["partition"] = {"precondition_failed": str(exc)}
    return report, violation


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.partition and not args.toughness:
        raise ToughlabError("--partition requires --toughness")
    g = _read_graph(args.input)
    cap = None
    if args.toughness:
        cap = g.n if args.force else DEFAULT_MAX_N
    report, violation = _check_graph(
        g, toughness_cap=cap, bounds=args.bounds, mixing=args.mixing,
        component_bound=args.component_bound, partition=args.partition,
        samples=args.samples, seed=args.seed)
    sys.stdout.write(json.dumps(report, indent=2, default=_report_json) + "\n")
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_verify_corpus(args: argparse.Namespace) -> int:
    if args.manifest:
        specs = families.load_manifest(Path(args.manifest).read_text())
    else:
        specs = families.default_corpus()
    # Every graph is built and vetted before the header, so a bad line prints nothing.
    graphs = [families.build(spec) for spec in specs]
    for spec, g in zip(specs, graphs):
        where = f"{spec.label()!r}: verify-corpus"
        if g.n < 2:
            raise PreconditionViolated(f"{where} needs n >= 2, got {g.n}")
        _require_connected(g, where)
    header = (
        f"{'graph':<28}{'n':>4}{'d':>4}{'lambda':>10}{'theorem':>10}"
        f"{'exact_t':>10}{'slack':>10}{'mix_slack':>11}{'comp_ok':>9}"
    )
    print(header)
    print("-" * len(header))
    violations = 0
    for spec, g in zip(specs, graphs):
        report, bad = _check_graph(
            g, toughness_cap=DEFAULT_MAX_N if g.n <= DEFAULT_MAX_N else None,
            bounds=True,
            mixing="exhaustive" if g.n <= EXHAUSTIVE_MAX_N else "sampled",
            component_bound=True, partition=False,
            samples=args.samples, seed=args.seed)
        violations += bad
        bounds = report["bounds"]
        exact = "-" if bounds.exact_t is None else str(bounds.exact_t)
        slack = "-" if bounds.slack is None else f"{bounds.slack:.6f}"
        verified = report["component_bound"]["verified"]
        comp = "-" if verified is None else str(verified)
        print(
            f"{spec.label():<28}{g.n:>4}{bounds.d:>4}{bounds.lam:>10.6f}"
            f"{bounds.theorem:>10.6f}{exact:>10}{slack:>10}"
            f"{report['mixing']['worst'].slack:>11.6f}{comp:>9}"
        )
    print(f"\n{len(specs)} graphs checked, {violations} violation(s)")
    return EXIT_VIOLATION if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toughlab",
        description="Exact graph toughness and spectral bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family graph")
    gen.add_argument("family")
    gen.add_argument("params", nargs="*")
    gen.add_argument("--format", choices=["graph6", "edgelist"], default="graph6")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="analyze one graph file")
    analyze.add_argument("input", help="graph6 or edge-list file, '-' for stdin")
    analyze.add_argument("--toughness", action="store_true")
    analyze.add_argument("--bounds", action="store_true")
    analyze.add_argument("--mixing", choices=["exhaustive", "sampled"], default=None)
    analyze.add_argument("--samples", type=_int_in(1, MAX_SAMPLES), default=DEFAULT_SAMPLES)
    analyze.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)
    analyze.add_argument("--component-bound", action="store_true")
    analyze.add_argument("--partition", action="store_true")
    analyze.add_argument("--force", action="store_true",
                         help=f"lift the exact-toughness size cap ({DEFAULT_MAX_N})")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify-corpus", help="verify bounds on a corpus")
    verify.add_argument("manifest", nargs="?", default=None,
                        help="family specs, one per line (default: shipped corpus)")
    verify.add_argument("--samples", type=_int_in(1, MAX_SAMPLES), default=DEFAULT_SAMPLES)
    verify.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)
    verify.set_defaults(func=cmd_verify_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader left, as ``| head`` does; point stdout at devnull so
        # that the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ToughlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
