"""Command-line interface: generate corpus graphs, analyze single graphs,
and verify the whole corpus.

Exit codes are a stable contract for CI: 0 success, 2 usage or input error,
3 verification violation, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import families
from .bounds import _check_lambda, _rational_dict, verify_theorem
from .errors import MalformedGraph6, ToughlabError
from .graph import (
    Graph,
    NotRegular,
    components,
    emit_edge_list,
    emit_graph6,
    is_connected,
    parse_edge_list,
    parse_graph6,
    regularity,
)
from .mixing import (
    EXHAUSTIVE_MAX_N,
    MixingCheck,
    component_count_bound,
    exhaustive_mixing_verify,
    sampled_mixing_verify,
    verify_component_bound,
)
from .partition import claim2_partition
from .spectra import LAMBDA_EPS, spectrum
from .toughness import COMPONENT_BOUND_MAX_N, DEFAULT_MAX_N, exact_toughness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
# What a shell reports for a process ended by SIGPIPE (128 + 13).
EXIT_BROKEN_PIPE = 141

REPORT_SCHEMA = "toughlab-report/1"

DEFAULT_SAMPLES = 100_000
# Sampled mixing draws all pairs in one getrandbits call of 64*ceil(n/32)
# bits per pair, and CPython refuses a draw of 2^31 bits or more: past
# 16.7M pairs at n > 32 it raised OverflowError.
MAX_SAMPLES = 10_000_000
DEFAULT_SEED = 42

MAX_N_ENV = "TOUGHLAB_MAX_N"


def toughness_search_cap() -> int:
    """Exact-toughness size cap: ``TOUGHLAB_MAX_N`` if set, else the library default."""
    raw = os.environ.get(MAX_N_ENV)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise ToughlabError(f"{MAX_N_ENV}={raw!r} is not an integer") from None
    if cap < 1:
        raise ToughlabError(f"{MAX_N_ENV}={cap} is below 1")
    return cap


def _sample_count(text: str) -> int:
    """``--samples`` value, checked while the arguments are parsed."""
    try:
        samples = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 1 <= samples <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"{samples} is outside 1..{MAX_SAMPLES}")
    return samples


def _read_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    first = lines[0] if lines else ""
    parts = first.split()
    looks_like_edgelist = len(parts) == 2 and all(
        p.lstrip("-").isdigit() for p in parts
    )
    if looks_like_edgelist:
        return parse_edge_list(text)
    if len(lines) > 1:
        raise MalformedGraph6(
            f"{len(lines)} graph6 lines in {path}; analyze reads exactly one graph"
        )
    return parse_graph6(first)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = families.parse_family_spec(" ".join([args.family, *args.params]))
    g = families.build(spec)
    payload = emit_graph6(g) + "\n" if args.format == "graph6" else emit_edge_list(g)
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _worst_mixing_pair(g: Graph, mode: str, args: argparse.Namespace,
                       lam: float) -> MixingCheck:
    if mode == "exhaustive":
        return exhaustive_mixing_verify(g, lam)
    return sampled_mixing_verify(g, args.samples, args.seed, lam)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.partition and not args.toughness:
        raise ToughlabError("--partition requires --toughness")
    g = _read_graph(args.input)
    d = regularity(g)
    report: dict = {
        "schema": REPORT_SCHEMA,
        "graph_meta": {
            "n": g.n,
            "m": g.m,
            "d": None if isinstance(d, NotRegular) else d,
            "connected": is_connected(g),
        },
        "spectral": None,
        "bounds": None,
        "toughness": None,
        "mixing": None,
        "component_bound": None,
        "partition": None,
    }
    if args.bounds or args.mixing or args.component_bound:
        profile = spectrum(g)
        lam = _check_lambda(profile.lam)
        report["spectral"] = {
            "eigenvalues": list(profile.eigenvalues),
            "lambda1": profile.lambda1,
            "lambda": profile.lam,
            "residual": profile.residual,
        }
    violation = False

    tough = None
    if args.toughness:
        tough = exact_toughness(g, g.n if args.force else toughness_search_cap())
        if tough is None:
            report["toughness"] = {"undefined": True}
        else:
            report["toughness"] = {
                "t": _rational_dict(tough.t),
                "witness": list(tough.witness.members()),
                "components": tough.components,
            }
    if args.bounds:
        bound_report = verify_theorem(g, lam, tough)
        report["bounds"] = bound_report.to_json_dict()
        violation = violation or bound_report.violation
    if args.mixing:
        worst = _worst_mixing_pair(g, args.mixing, args, lam)
        sampled = args.mixing == "sampled"
        report["mixing"] = {"mode": args.mixing,
                            "samples": args.samples if sampled else None,
                            "seed": args.seed if sampled else None,
                            "worst": worst.to_json_dict()}
        violation = violation or worst.slack < -LAMBDA_EPS
    if args.component_bound:
        value = component_count_bound(g, lam)
        verified = None
        if g.n <= COMPONENT_BOUND_MAX_N:
            verified = verify_component_bound(g, lam)
            violation = violation or not verified
        report["component_bound"] = {"value": value, "verified": verified}
    if args.partition:
        if tough is None:
            report["partition"] = {"precondition_failed": "toughness undefined"}
        else:
            comps = components(g, tough.witness)
            try:
                witness = claim2_partition(comps, graph=g)
                report["partition"] = witness.to_json_dict()
            except ToughlabError as exc:
                report["partition"] = {"precondition_failed": str(exc)}

    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_verify_corpus(args: argparse.Namespace) -> int:
    if args.manifest:
        specs = families.load_manifest(Path(args.manifest).read_text())
    else:
        specs = families.default_corpus()
    cap = toughness_search_cap()
    header = (
        f"{'graph':<28}{'n':>4}{'d':>4}{'lambda':>10}{'theorem':>10}"
        f"{'exact_t':>10}{'slack':>10}{'mix_slack':>11}{'comp_ok':>9}"
    )
    print(header)
    print("-" * len(header))
    violations = 0
    for spec in specs:
        g = families.build(spec)
        lam = _check_lambda(spectrum(g).lam)
        tough = exact_toughness(g, cap) if g.n <= cap else None
        report = verify_theorem(g, lam, tough)
        mode = "exhaustive" if g.n <= EXHAUSTIVE_MAX_N else "sampled"
        worst = _worst_mixing_pair(g, mode, args, lam)
        comp_ok = None
        if g.n <= COMPONENT_BOUND_MAX_N:
            comp_ok = verify_component_bound(g, lam)
        bad = (
            report.violation
            or worst.slack < -LAMBDA_EPS
            or comp_ok is False
        )
        violations += bad
        exact = "-" if report.exact_t is None else str(report.exact_t)
        slack = "-" if report.slack is None else f"{report.slack:.6f}"
        comp = "-" if comp_ok is None else str(comp_ok)
        print(
            f"{spec.label():<28}{g.n:>4}{report.d:>4}{report.lam:>10.6f}"
            f"{report.theorem:>10.6f}{exact:>10}{slack:>10}"
            f"{worst.slack:>11.6f}{comp:>9}"
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
    analyze.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLES)
    analyze.add_argument("--seed", type=int, default=DEFAULT_SEED)
    analyze.add_argument("--component-bound", action="store_true")
    analyze.add_argument("--partition", action="store_true")
    analyze.add_argument("--force", action="store_true",
                         help="lift the exact-toughness size cap "
                         f"({MAX_N_ENV}, default {DEFAULT_MAX_N})")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify-corpus", help="verify bounds on a corpus")
    verify.add_argument("manifest", nargs="?", default=None,
                        help="family specs, one per line (default: shipped corpus)")
    verify.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLES)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
