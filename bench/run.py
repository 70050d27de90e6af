"""toughlab benchmark: runs one workload in this process through
``toughlab.cli.main``, the code path users run, and checks its outputs.

    python3 bench/run.py --workload frontier --seed 42 --seconds 30 --trace 0
    python3 bench/run.py          # every workload, untraced and then traced

Run it from the repository root; it imports the package from ``src/``.  A run
sets up the workload's inputs several times, then repeats full passes over the
workload until ``--seconds`` are spent and reports medians over passes.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  Times are given at a nominal CPU speed (see ``speed.py``);
the raw wall-clock figures are printed on ``# raw:`` lines.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  On a 2-core machine OpenBLAS's
# default of one thread per core spun both cores and made corpus passes
# slower and noisier (3.0-5.0 s against 2.7-3.4 s with one thread).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

# Every run compiles the package from source, as a fresh checkout does, so
# set-up time does not depend on a bytecode cache left by an earlier run.
sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome  # noqa: E402

SETUP_REPS = 5


class _LineClock(io.StringIO):
    """stdout stand-in that notes when each line is completed."""

    def __init__(self) -> None:
        super().__init__()
        self.line_ends: list[float] = []

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self.line_ends.extend(now for _ in range(text.count("\n")))
        return super().write(text)


def _import_program(workdir: Path, workload, seed: int):
    """Import the package afresh and write the workload's inputs."""
    for name in [m for m in sys.modules if m == "toughlab" or m.startswith("toughlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("toughlab")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"toughlab imported from {package.__file__}, not from {SRC}")
    tl = types.SimpleNamespace(package=package, **{
        name: importlib.import_module(f"toughlab.{name}")
        for name in ("cli", "families", "graph", "toughness", "mixing")
    })
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return tl, workload.setup(tl, seed, workdir)


def _run_pass(tl, jobs) -> tuple[tuple[float, float], list[Outcome]]:
    outcomes = []
    saved = sys.stdout, sys.stderr
    start = time.perf_counter()
    for job in jobs:
        out = _LineClock()
        sys.stdout, sys.stderr = out, io.StringIO()
        t0 = time.perf_counter()
        code = error = None
        try:
            code = tl.cli.main(list(job.argv))
        except Exception as exc:  # a crash is a failed graph, not a benchmark error
            error = type(exc).__name__
        finally:
            t1 = time.perf_counter()
            sys.stdout, sys.stderr = saved
        outcomes.append(Outcome(job, code, error, out.getvalue(), out.line_ends, t0, t1))
    return (start, time.perf_counter()), outcomes


# ---------------------------------------------------------------------------
# per-layer metrics


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _add(data: dict, key: str, value: float) -> None:
    data[key] = data.get(key, 0) + value


def _spectrum_hook(data, args, kwargs, result) -> None:
    _add(data, "n3_sum", args[0].n ** 3)
    data["residual_max"] = max(data.get("residual_max", 0.0), result.residual)


HOOKS = {
    "spectrum": _spectrum_hook,
    "sampled_mixing_verify": lambda d, a, k, r: _add(d, "sampled_pairs", _arg(a, k, 1, "samples")),
    "exhaustive_mixing_verify": lambda d, a, k, r: _add(d, "exhaustive_pairs", 4 ** a[0].n),
    "parse_graph6": lambda d, a, k, r: _add(d, "parse_bytes", len(a[0])),
    "parse_edge_list": lambda d, a, k, r: _add(d, "parse_bytes", len(a[0])),
}

LAYERS = ["graph", "spectra", "toughness", "bounds", "mixing", "partition", "families", "cli"]


def _layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    st = tr.stat
    cc = st("graph", "count_components")
    masks, useful = tr.leaf_totals("exact_toughness", "count_components")
    cuts, _ = tr.leaf_totals("verify_component_bound", "count_components")
    parse = [st("graph", "parse_graph6"), st("graph", "parse_edge_list")]
    spec = st("spectra", "spectrum")
    data = tr.hooks_data
    m = {
        "graph.count_components.calls": (cc.calls, "count"),
        "graph.count_components.self_s": (cc.self_s, "s"),
        "graph.count_components.us_per_call": (1e6 * cc.self_s / cc.calls if cc.calls else 0.0, "us"),
        "graph.components.calls": (st("graph", "components").calls, "count"),
        "graph.components.self_s": (st("graph", "components").self_s, "s"),
        "graph.parse.self_s": (sum(p.self_s for p in parse), "s"),
        "graph.parse.bytes": (data.get("parse_bytes", 0), "bytes"),
        "toughness.exact.self_s": (st("toughness", "exact_toughness").self_s, "s"),
        "toughness.masks": (masks, "count"),
        "toughness.useful_frac": (useful / masks if masks else 0.0, "ratio"),
        "spectra.spectrum.calls": (spec.calls, "count"),
        "spectra.spectrum.self_s": (spec.self_s, "s"),
        "spectra.spectrum.residual_max": (data.get("residual_max", 0.0), "1"),
        "spectra.n3_sum": (data.get("n3_sum", 0), "count"),
        "bounds.verify_theorem.self_s": (st("bounds", "verify_theorem").self_s, "s"),
        "mixing.sampled.self_s": (st("mixing", "sampled_mixing_verify").self_s, "s"),
        "mixing.sampled.pairs": (data.get("sampled_pairs", 0), "count"),
        "mixing.exhaustive.self_s": (st("mixing", "exhaustive_mixing_verify").self_s, "s"),
        "mixing.exhaustive.pairs": (data.get("exhaustive_pairs", 0), "count"),
        "mixing.component_bound.self_s": (st("mixing", "verify_component_bound").self_s, "s"),
        "mixing.component_bound.cuts": (cuts, "count"),
        "partition.claim2.calls": (st("partition", "claim2_partition").calls, "count"),
        "partition.claim2.self_s": (st("partition", "claim2_partition").self_s, "s"),
        "families.build.calls": (st("families", "build").calls, "count"),
        "families.build.self_s": (st("families", "build").self_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.module_self_s(layer), "s")
    return m


# Counts that must repeat exactly from pass to pass and from seed to seed.
EXACT_COUNTS = ["graph.count_components.calls", "toughness.masks", "mixing.sampled.pairs",
                "mixing.exhaustive.pairs", "mixing.component_bound.cuts"]


def _counter_self_test(tl, tracer: Tracer, workdir: Path) -> list[str]:
    """Exact counter values on Petersen: 638 = sum C(10, s) for s = 0..5 masks
    before the pruned search stops, 2^10 - 1 = 1023 component-bound cuts, and
    one mixing pair per requested sample."""
    path = workdir / "petersen.g6"
    path.write_text(tl.graph.emit_graph6(tl.families.petersen()) + "\n")
    tracer.install(HOOKS)
    tracer.reset()
    saved = sys.stdout
    sys.stdout = io.StringIO()
    try:
        tl.cli.main(["analyze", str(path), "--toughness", "--mixing", "sampled",
                     "--samples", "1000", "--component-bound"])
    finally:
        sys.stdout = saved
        tracer.uninstall()
    m = _layer_metrics(tracer)
    want = {"toughness.masks": 638, "mixing.component_bound.cuts": 1023,
            "mixing.sampled.pairs": 1000}
    return [f"self-test: {k} = {m[k][0]}, expected {v}" for k, v in want.items() if m[k][0] != v]


# ---------------------------------------------------------------------------


def _machine_info() -> str:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name")
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas} blas_threads={BLAS_THREADS}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _raw(t0: float, t1: float) -> float:
    return t1 - t0


def _typical_pass(passes, verdicts, duration) -> tuple[float, list[float]]:
    """Time of one pass and median time to verdict of each graph over passes.

    ``duration(t0, t1)`` turns an interval into seconds.  The pass time is
    the sum of the per-graph medians plus the median time outside any graph;
    taking medians per graph before summing keeps a slow spell that hits a
    few graphs of one pass out of the result.
    """
    graph_s = [_median([duration(*span) for span in spans])
               for spans in zip(*(v.graph_spans for v in verdicts))]
    rest_s = _median([duration(*span) - sum(duration(*g) for g in v.graph_spans)
                      for (span, _), v in zip(passes, verdicts)])
    return rest_s + sum(graph_s), graph_s


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    golden = json.loads((BENCH / "golden.json").read_text())
    workload = WORKLOADS[name](golden)
    workdir = WORK / f"{name}-{os.getpid()}"
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (loads once per process, so it is timed once)
    numpy_span = (t0, time.perf_counter())
    from speed import SpeedSampler  # its kernels need numpy

    sampler = SpeedSampler()
    sampler.start()
    try:
        setup_spans = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            tl, jobs = _import_program(workdir, workload, seed)
            setup_spans.append((t0, time.perf_counter()))
        return _measure(tl, workload, jobs, seed, seconds, trace, workdir, sampler,
                        numpy_span, setup_spans)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def _measure(tl, workload, jobs, seed, seconds, trace, workdir, sampler,
             numpy_span, setup_spans) -> int:
    tracer = Tracer(tl.package) if trace else None
    problems: list[str] = []
    if tracer:
        problems += _counter_self_test(tl, tracer, workdir)
    plain, traced = [], []  # ((start, end), outcomes) per pass
    layer_runs, mask_runs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(_run_pass(tl, jobs))
        if tracer:
            tracer.install(HOOKS)
            tracer.reset()
            traced.append(_run_pass(tl, jobs))
            tracer.uninstall()
            layer_runs.append(_layer_metrics(tracer))
            mask_runs.append(tracer.leaf_by_root("exact_toughness", "count_components"))
        unit = time.perf_counter() - t0
        if time.perf_counter() - start + unit > seconds:
            break
    sampler.stop()

    verdicts = [workload.verdict(tl, outcomes) for _, outcomes in plain + traced]
    first = plain[0][1]
    for _, outcomes in plain[1:] + traced:
        if [o.stdout for o in outcomes] != [o.stdout for o in first]:
            problems.append("a later pass printed different output")
            break
    for v in verdicts:
        problems += v.wrong
    for key in EXACT_COUNTS:
        if len({r[key][0] for r in layer_runs}) > 1:
            problems.append(f"{key} differs between traced passes")
    if len({tuple(m) for m in mask_runs}) > 1:
        problems.append("per-graph mask counts differ between traced passes")
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)

    plain_verdicts = verdicts[:len(plain)]
    wall_s, graph_s = _typical_pass(plain, plain_verdicts, sampler.nominal)
    raw_wall_s, raw_graph_s = _typical_pass(plain, plain_verdicts, _raw)
    setup_s = (sampler.nominal(*numpy_span)
               + _median([sampler.nominal(*span) for span in setup_spans]))
    raw_setup_s = _raw(*numpy_span) + _median([_raw(*span) for span in setup_spans])
    speed = _median([sampler.factor(*span) for span, _ in plain + traced])

    print(f"# machine: {_machine_info()}")
    print(f"# workload: {workload.name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"passes={len(plain)} untraced, {len(traced)} traced")
    masks = mask_runs[0] if mask_runs else []
    for i, (label, time_s) in enumerate(zip(verdicts[0].graph_labels, graph_s)):
        extra = ""
        if len(first) > 1:
            job = first[i].job
            extra = (f" n={job.graph.n} d={job.graph.degree(0)} format={job.meta['format']}"
                     f" t={job.meta.get('t', '-')}")
            if "random_regular" in label:
                extra += f" relabel_seed={seed}"
            if any(masks):
                extra += f" masks={masks[i]}"
        print(f"# graph: {label}{extra} time_s={time_s:.4f} raw_s={raw_graph_s[i]:.4f}")
    for failure in verdicts[0].failures:
        print(f"# failure: {failure}")
    print(f"# raw: wall_s={raw_wall_s:.4f} graph_max_s={max(raw_graph_s, default=0.0):.4f} "
          f"setup_s={raw_setup_s:.4f} speed_factor={speed:.4f}")

    if tracer:
        metrics = {}
        for key, (value, unit) in layer_runs[0].items():
            if unit == "s":
                value = _median([r[key][0] / sampler.factor(*span)
                                 for r, (span, _) in zip(layer_runs, traced)])
            metrics[key] = {"value": value, "unit": unit}
        traced_s, _ = _typical_pass(traced, verdicts[len(plain):], sampler.nominal)
        metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": (traced_s - wall_s) / wall_s, "unit": "ratio"}
        metrics["trace.speed_factor"] = {"value": speed, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "graph_max_s": {"value": max(graph_s, default=0.0), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "pass_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    for problem in problems:
        print(f"# WRONG: {problem}")
    for key, m in metrics.items():
        value = m["value"]
        print(f"{key} {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
