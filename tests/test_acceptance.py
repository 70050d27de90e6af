"""Acceptance gate: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  The corpus fixtures live in conftest.py.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from toughlab import (
    alon_bound,
    brouwer_bound,
    claim2_partition,
    e_between,
    exact_toughness,
    exhaustive_mixing_verify,
    gu_bound,
    index_subset,
    max_components_over_cuts,
    mixing_check,
    naive_toughness,
    sampled_mixing_verify,
    spectrum,
    theorem_bound,
    verify_component_bound,
    verify_theorem,
)
from toughlab.families import petersen, random_regular
from toughlab.graph import VertexSet, emit_graph6

from conftest import independent_sets_of_size
from test_partition import ascending_vectors, clique_components, subset_sums

TOUGHNESS_CAP = 24
EXHAUSTIVE_MIXING_CAP = 10
COMPONENT_BOUND_CAP = 12
ORACLE_CAP = 12

MIXING_SAMPLES = 100_000
MIXING_SEED = 42

EPS = 1e-9


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_theorem_on_corpus(corpus, corpus_spectra):
    checked = defined = 0
    for spec, g in corpus:
        result = exact_toughness(g) if g.n <= TOUGHNESS_CAP else None
        bound_report = verify_theorem(g, corpus_spectra[spec].lam, result)
        checked += 1
        if result is not None:
            defined += 1
            assert float(result.t) >= bound_report.theorem - EPS, spec.label()
            assert not bound_report.violation, spec.label()
    report(1, f"t >= d/lambda - 1 on all {checked} corpus graphs "
              f"({defined} with defined toughness), zero violations")


def test_criterion_2_petersen_goldens():
    p = petersen()
    prof = spectrum(p)
    assert prof.lam == pytest.approx(2, abs=EPS)
    result = exact_toughness(p)
    assert result.t == Fraction(4, 3)
    lam = 2.0
    assert alon_bound(3, lam) == pytest.approx(-1 / 30, abs=1e-12)
    assert brouwer_bound(3, lam) == pytest.approx(-1 / 2, abs=1e-12)
    assert gu_bound(3, lam) == pytest.approx(3 / 2 - math.sqrt(2), abs=1e-12)
    assert theorem_bound(3, lam) == pytest.approx(1 / 2, abs=1e-12)
    report(2, "Petersen: lambda=2, t=4/3, all four bound values exact")


def test_criterion_3_mixing_lemma(corpus, corpus_spectra):
    exhaustive = sampled = 0
    for spec, g in corpus:
        lam = corpus_spectra[spec].lam
        if g.n <= EXHAUSTIVE_MIXING_CAP:
            worst = exhaustive_mixing_verify(g, lam)
            exhaustive += 1
        else:
            worst = sampled_mixing_verify(g, MIXING_SAMPLES, MIXING_SEED, lam)
            sampled += 1
        assert worst.slack >= -EPS, spec.label()
    # equality attained on Petersen at an independent-set pair
    p = petersen()
    lam = spectrum(p).lam
    ind = VertexSet(10, independent_sets_of_size(p, 4)[0])
    assert mixing_check(p, ind, ind, lam).slack == pytest.approx(0.0, abs=EPS)
    assert exhaustive_mixing_verify(p, lam).slack == pytest.approx(0.0, abs=EPS)
    report(3, f"mixing slack >= -1e-9 ({exhaustive} graphs exhaustive, "
              f"{sampled} sampled at {MIXING_SAMPLES} pairs, seed {MIXING_SEED}); "
              f"equality on Petersen")


def test_criterion_4_component_bound(corpus, corpus_spectra):
    checked = 0
    for spec, g in corpus:
        if g.n > COMPONENT_BOUND_CAP:
            continue
        lam = corpus_spectra[spec].lam
        assert verify_component_bound(g, lam), spec.label()
        checked += 1
    assert max_components_over_cuts(petersen()) == 4  # equals the bound exactly
    report(4, f"c(G-S) <= lambda*n/(d+lambda) on all cuts of {checked} graphs; "
              f"Petersen attains the bound at 4")


def test_criterion_5_index_lemma():
    cases = 0
    for c in range(1, 7):
        for xs in ascending_vectors(c, 2 * c - 1):
            sums = subset_sums(xs)
            for ell in range(sum(xs) + 1):
                assert ell in sums
                chosen = index_subset(list(xs), ell)
                assert sum(xs[i] for i in chosen) == ell
                cases += 1
        # sharpness: one more vertex breaks the guarantee
        infeasible = [ell for ell in range(2 * c + 1)
                      if ell not in subset_sums((2,) * c)]
        assert infeasible
    report(5, f"index lemma exact on {cases} (vector, target) cases; "
              f"sum = 2c counterexamples found for every c <= 6")


def test_criterion_6_claim2_partition():
    checked = 0
    for c in range(2, 7):
        for sizes in ascending_vectors(c, 20):
            if sum(sizes) < 2 * c + 1:
                continue
            if sizes[-1] >= c and sum(sizes[:-1]) < c:
                continue
            g, comps = clique_components(list(sizes))
            witness = claim2_partition(g, VertexSet(g.n))
            assert witness.x.isdisjoint(witness.y)
            assert (witness.x | witness.y) == VertexSet(g.n, (1 << g.n) - 1)
            assert witness.size_x >= c and witness.size_y >= c
            assert e_between(g, witness.x, witness.y) == 0
            assert witness.cross_edges == 0
            checked += 1
    report(6, f"two-block partition valid on {checked} size vectors (c <= 6)")


def test_criterion_7_spectral_soundness(corpus, corpus_spectra):
    for spec, g in corpus:
        prof = corpus_spectra[spec]
        assert abs(sum(prof.eigenvalues)) <= 1e-8, spec.label()
        assert abs(sum(x * x for x in prof.eigenvalues) - 2 * g.m) <= 1e-6, spec.label()
        assert prof.residual <= 1e-8, spec.label()
        d = g.degree(0)
        assert prof.lambda1 == pytest.approx(d, abs=EPS), spec.label()
    report(7, f"trace, Frobenius, residual, and lambda1=d checks on all "
              f"{len(corpus)} corpus spectra")


def test_criterion_8_oracle_equivalence(corpus):
    checked = 0
    for spec, g in corpus:
        if g.n > ORACLE_CAP:
            continue
        # t, the component count and the first-mask witness alike.
        assert exact_toughness(g) == naive_toughness(g), spec.label()
        checked += 1
    report(8, f"pruned search equals the 2^n oracle on {checked} graphs (n <= 12)")


def test_criterion_9_determinism(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text(emit_graph6(petersen()) + "\n")
    cmd = [sys.executable, "-m", "toughlab.cli", "analyze", str(path),
           "--bounds", "--toughness", "--mixing", "sampled",
           "--samples", "1000", "--seed", str(MIXING_SEED)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # sanity: it is a report
    assert random_regular(12, 3, seed=5) == random_regular(12, 3, seed=5)
    report(9, "byte-identical analyze output and seed-stable random graphs")
