"""The benchmark's workloads: input generation, the program calls, and the
output checks.

A workload is a list of jobs, each one ``toughlab.cli.main`` call over one
input.  ``setup`` draws the seeded inputs and writes them as files, which the
program reads back as a user's file would be.  The checks run after the timed
passes and use references computed outside them.

Random regular graphs are drawn once from a fixed generator seed, and the
workload seed draws a vertex relabelling of each.  Exact-toughness cost is
set by the graph's toughness t (it fixes the size class where the pruned
search stops), and t varies with the generator seed: rr(20,3,s) for
s = 0..23 took 0.3 s to 4.2 s.  A relabelling leaves t, the cut count and the
spectrum unchanged, so every workload seed costs the same work while the
program still sees different input bytes, witnesses and vertex orders.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 42
EPS = 1e-9


@dataclass
class Job:
    label: str
    argv: list[str]
    graph: object = None  # the Graph written to the input file, for checks
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    job: Job
    code: int | None  # exit code, None when main raised
    error: str | None  # exception class name when main raised
    stdout: str
    line_ends: list[float]  # perf_counter when each stdout line was completed
    start: float
    end: float


@dataclass
class Verdict:
    attempted: int
    failed: int
    wrong: list[str]  # output-check failures (wrong answers)
    failures: list[str]  # graphs with no answer: exceptions, bad exit codes
    graph_labels: list[str]
    # perf_counter interval from the start of each graph to its verdict
    graph_spans: list[tuple[float, float]]


def _relabel(tl, g, seed: int):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return tl.graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _write(tl, g, path: Path, fmt: str) -> None:
    if fmt == "graph6":
        path.write_text(tl.graph.emit_graph6(g) + "\n")
    else:
        path.write_text(tl.graph.emit_edge_list(g))


def _build(tl, spec: str):
    return tl.families.build(tl.families.parse_family_spec(spec))


def _analyze_jobs(tl, specs, seed: int, workdir: Path, flags: list[str]) -> list[Job]:
    jobs = []
    for i, (spec, fmt) in enumerate(specs):
        g = _build(tl, spec)
        if spec.startswith("random_regular"):
            g = _relabel(tl, g, seed)
        path = workdir / f"g{i}.{'g6' if fmt == 'graph6' else 'txt'}"
        _write(tl, g, path, fmt)
        jobs.append(Job(spec, ["analyze", str(path), *flags], g, {"format": fmt}))
    return jobs


def _analyze_verdict(outcomes, check) -> Verdict:
    wrong, failures = [], []
    for o in outcomes:
        if o.error is not None:
            failures.append(f"{o.job.label}: {o.error}")
            continue
        try:
            report = json.loads(o.stdout)
            problem = check(o.job, o.code, report)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report ({type(exc).__name__}: {exc})"
        if problem:
            wrong.append(f"{o.job.label}: {problem}")
    return Verdict(len(outcomes), len(failures) + len(wrong), wrong, failures,
                   [o.job.label for o in outcomes], [(o.start, o.end) for o in outcomes])


# ---------------------------------------------------------------------------
# corpus: verify-corpus on the shipped manifest


class Corpus:
    name = "corpus"

    def __init__(self, golden: dict) -> None:
        self.golden = golden

    def setup(self, tl, seed: int, workdir: Path) -> list[Job]:
        count = len(tl.families.default_corpus())
        return [Job("verify-corpus", ["verify-corpus", "--seed", str(seed)],
                    meta={"graphs": count, "seed": seed})]

    def verdict(self, tl, outcomes) -> Verdict:
        (o,) = outcomes
        count = o.job.meta["graphs"]
        lines = o.stdout.split("\n")
        rows = []
        for line in lines[2:]:
            if not line:
                break
            rows.append(line)
        # Line i of stdout was completed at line_ends[i]; rows start at line 2.
        spans = [(o.line_ends[i - 1], o.line_ends[i]) for i in range(2, 2 + len(rows))]
        labels = [row[:28].strip() for row in rows]
        wrong, failures = [], []
        if o.error is not None:
            failures.append(f"verify-corpus: {o.error} after {len(rows)} graphs")
            return Verdict(count, count - len(rows), wrong, failures, labels, spans)
        summary = lines[-2] if len(lines) >= 2 else ""
        expected = f"{count} graphs checked, 0 violation(s)"
        if o.code != 0 or summary != expected or len(rows) != count:
            wrong.append(f"exit {o.code}, {len(rows)} rows, summary {summary!r}")
        elif (o.job.meta["seed"] == DEFAULT_SEED
              and hashlib.sha256(o.stdout.encode()).hexdigest() != self.golden["corpus_sha256"]):
            wrong.append("table digest differs from the golden")
        violations = sum(1 for row in rows if _corpus_row_bad(row))
        return Verdict(count, violations + (count - len(rows)), wrong, failures, labels, spans)


def _corpus_row_bad(row: str) -> bool:
    # Columns: ... slack mix_slack comp_ok; a negative slack or a False
    # component check is a violation of the verified inequalities.
    cells = row.split()
    slack, mix, comp = cells[-3], cells[-2], cells[-1]
    return (slack != "-" and float(slack) < -EPS) or float(mix) < -EPS or comp == "False"


# ---------------------------------------------------------------------------
# frontier: exact toughness near the search cap

FRONTIER_GRAPHS = [
    ("random_regular 18 3 1", "graph6"),
    ("random_regular 20 3 1", "edgelist"),
    ("random_regular 18 4 1", "graph6"),
]


class Frontier:
    name = "frontier"

    def __init__(self, golden: dict) -> None:
        self.golden_t = {k: Fraction(v) for k, v in golden["frontier_t"].items()}

    def setup(self, tl, seed: int, workdir: Path) -> list[Job]:
        return _analyze_jobs(tl, FRONTIER_GRAPHS, seed, workdir,
                             ["--toughness", "--bounds", "--partition"])

    def verdict(self, tl, outcomes) -> Verdict:
        def check(job, code, report):
            g = job.graph
            if code != 0:
                return f"exit {code}"
            tough = report["toughness"]
            t = Fraction(tough["t"]["num"], tough["t"]["den"])
            witness = tl.graph.VertexSet.of(g.n, tough["witness"])
            if t != self.golden_t[job.label]:
                return f"t = {t}, naive oracle gave {self.golden_t[job.label]}"
            if tl.toughness.toughness_of_cut(g, witness) != t:
                return f"witness {tough['witness']} does not give t = {t}"
            bounds = report["bounds"]
            if bounds["slack"] < -EPS or bounds["violation"]:
                return f"theorem slack {bounds['slack']}"
            part = report["partition"]
            if "precondition_failed" not in part:
                x = tl.graph.VertexSet.of(g.n, part["X"])
                y = tl.graph.VertexSet.of(g.n, part["Y"])
                c = tough["components"]
                if (not x.isdisjoint(y) or (x | y) != witness.complement()
                        or tl.graph.e_between(g, x, y) != 0 or min(len(x), len(y)) < c):
                    return "partition blocks overlap, miss G - S, touch or are smaller than c"
            job.meta["t"] = t
            return None

        return _analyze_verdict(outcomes, check)


# ---------------------------------------------------------------------------
# spectral_wide: spectra and sampled mixing past the toughness cap

SPECTRAL_WIDE_GRAPHS = [
    ("kneser 7 3", "graph6"),
    ("kneser 8 3", "edgelist"),
    ("hypercube 6", "graph6"),
    ("circulant 40 1 5 9", "edgelist"),
    ("random_regular 48 3 1", "graph6"),
    ("random_regular 60 4 1", "edgelist"),
]


class SpectralWide:
    name = "spectral_wide"

    def __init__(self, golden: dict) -> None:
        pass

    def setup(self, tl, seed: int, workdir: Path) -> list[Job]:
        return _analyze_jobs(
            tl, SPECTRAL_WIDE_GRAPHS, seed, workdir,
            ["--bounds", "--mixing", "sampled", "--component-bound", "--seed", str(seed)])

    def verdict(self, tl, outcomes) -> Verdict:
        import numpy as np  # imported here so that set-up time includes loading numpy

        def check(job, code, report):
            g = job.graph
            if code != 0:
                return f"exit {code}"
            a = np.zeros((g.n, g.n))
            for u, v in g.edges():
                a[u, v] = a[v, u] = 1.0
            ref = np.linalg.eigvalsh(a)[::-1]
            spec = report["spectral"]
            ev = np.array(spec["eigenvalues"])
            if ev.shape != ref.shape or np.abs(ev - ref).max() > EPS:
                return "eigenvalues differ from numpy.linalg.eigvalsh by more than 1e-9"
            if abs(spec["lambda"] - max(abs(ref[1]), abs(ref[-1]))) > EPS:
                return f"lambda {spec['lambda']} differs from the reference"
            if abs(ev.sum()) > EPS * g.n or abs((ev ** 2).sum() - 2 * g.m) > EPS * 2 * g.m:
                return "trace or sum of squared eigenvalues off"
            mixing = report["mixing"]["worst"]
            if mixing["slack"] < -EPS or report["bounds"]["violation"]:
                return f"mixing slack {mixing['slack']}"
            if not math.isfinite(report["component_bound"]["value"]):
                return "component bound not finite"
            return None

        return _analyze_verdict(outcomes, check)


WORKLOADS = {w.name: w for w in (Corpus, Frontier, SpectralWide)}
