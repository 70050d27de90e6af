import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from toughlab import spectrum
from toughlab import spectra
from toughlab.errors import NoConvergence, PreconditionViolated
from toughlab.families import (
    circulant,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    kneser,
    petersen,
    random_regular,
)
from toughlab.graph import MAX_VERTICES, from_edge_list

from conftest import graphs, two_cycles


@given(graphs())
@example(two_cycles(MAX_VERTICES))
def test_adjacency_matrix_matches_rows(g):
    # A relabelled matrix has the same eigenvalues, so the spectrum tests
    # cannot see one; compare each entry with the adjacency bitmask.
    a = spectra.adjacency_matrix(g)
    assert a.dtype == np.float64 and a.shape == (g.n, g.n)
    assert all(a[u, v] == g.adj[u] >> v & 1 for u in range(g.n) for v in range(g.n))


def test_complete4_spectrum():
    prof = spectrum(complete(4))
    assert prof.eigenvalues == pytest.approx([3, -1, -1, -1], abs=1e-9)
    assert prof.lam == pytest.approx(1, abs=1e-9)


def test_cycle4_spectrum():
    # circulant eigenvalues 2*cos(2*pi*j/4)
    prof = spectrum(cycle(4))
    assert prof.eigenvalues == pytest.approx([2, 0, 0, -2], abs=1e-9)
    assert prof.lam == pytest.approx(2, abs=1e-9)


def test_cycle5_spectrum():
    expected = sorted((2 * math.cos(2 * math.pi * j / 5) for j in range(5)),
                      reverse=True)
    assert spectrum(cycle(5)).eigenvalues == pytest.approx(expected, abs=1e-9)


def test_petersen_spectrum():
    prof = spectrum(petersen())
    assert prof.eigenvalues == pytest.approx([3] + [1] * 5 + [-2] * 4, abs=1e-9)
    assert prof.lam == pytest.approx(2, abs=1e-9)


def test_second_largest_abs():
    assert spectrum(complete_bipartite(3, 3)).lam == pytest.approx(3, abs=1e-9)
    assert spectrum(complete(5)).lam == pytest.approx(1, abs=1e-9)
    assert spectrum(complete(2)).lam == pytest.approx(1, abs=1e-9)


def test_single_vertex_spectrum():
    prof = spectrum(from_edge_list(1, []))
    assert prof.eigenvalues == (0.0,)
    assert prof.lam is None


def test_empty_graph_spectrum():
    with pytest.raises(PreconditionViolated, match="at least one vertex"):
        spectrum(from_edge_list(0, []))


@pytest.mark.parametrize("g", [cycle(7), complete(6), petersen(),
                               complete_bipartite(4, 4)])
def test_soundness_identities(g):
    prof = spectrum(g)
    assert abs(sum(prof.eigenvalues)) <= 1e-8
    assert abs(sum(x * x for x in prof.eigenvalues) - 2 * g.m) <= 1e-6
    assert prof.residual <= 1e-8
    assert all(abs(x) <= prof.lambda1 + 1e-9 for x in prof.eigenvalues[1:])
    assert list(prof.eigenvalues) == sorted(prof.eigenvalues, reverse=True)


def test_bipartite_regular_lambda_equals_degree():
    for a in (2, 3, 4):
        prof = spectrum(complete_bipartite(a, a))
        assert prof.lam == pytest.approx(a, abs=1e-9)


def test_determinism():
    p = petersen()
    assert spectrum(p) == spectrum(p)


def reference_jacobi_eigh(a0):
    """Per-column cyclic Jacobi: rotate A's columns, then its rows, then V's
    columns.  The fused row rotation in ``spectra`` must match it bit for bit."""
    a = a0.copy()
    n = a.shape[0]
    v = np.eye(n)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(spectra.DEFAULT_MAX_SWEEPS):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < spectra.DEFAULT_TOL:
            return np.diagonal(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                sign = 1.0 if theta >= 0.0 else -1.0
                t = sign / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    raise AssertionError("reference Jacobi did not converge")


def assert_jacobi_bit_identical(g):
    a0 = spectra.adjacency_matrix(g)
    diag, vecs = spectra._jacobi_eigh(a0)
    ref_diag, ref_vecs = reference_jacobi_eigh(a0)
    assert diag.tobytes() == ref_diag.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()


def test_jacobi_matches_reference_on_corpus(corpus):
    for _, g in corpus:
        assert_jacobi_bit_identical(g)


@pytest.mark.parametrize("g", [
    kneser(7, 3),
    hypercube(5),
    random_regular(20, 3, 1),
    circulant(40, 1, 5, 9),
    kneser(8, 3),
    hypercube(6),
    from_edge_list(5, [(i, i + 1) for i in range(4)]),
    from_edge_list(1, []),
    from_edge_list(2, [(0, 1)]),
], ids=["kneser7_3", "hypercube5", "rr20_3_1", "circulant40_1_5_9",
        "kneser8_3", "hypercube6", "path5", "n1", "n2"])
def test_jacobi_matches_reference(g):
    assert_jacobi_bit_identical(g)


def per_rotation_jacobi_eigh(a0):
    """The fused solver writing A's column p after every rotation, not once
    after each p-loop: ``spectra`` must match it bit for bit."""
    n = a0.shape[0]
    m = np.hstack([a0, np.eye(n)])
    a = m[:, :n]
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(spectra.DEFAULT_MAX_SWEEPS):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < spectra.DEFAULT_TOL:
            return np.diagonal(a).copy(), m[:, n:].T.copy()
        for p in range(n - 1):
            rp = m[p]
            for q in range(p + 1, n):
                apq = rp.item(q)
                if apq == 0.0:
                    continue
                rq = m[q]
                app = rp.item(p)
                aqq = rq.item(q)
                theta = (aqq - app) / (2.0 * apq)
                sign = 1.0 if theta >= 0.0 else -1.0
                t = sign / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                pp = c * app - s * apq
                qp = c * apq - s * aqq
                pq = s * app + c * apq
                qq = s * apq + c * aqq
                cp = c * rp
                sq = s * rq
                sp = s * rp
                cq = c * rq
                np.subtract(cp, sq, out=rp)
                np.add(sp, cq, out=rq)
                rp[p] = c * pp - s * qp
                rq[q] = s * pq + c * qq
                rp[q] = rq[p] = 0.0
                a[:, p] = rp[:n]
                a[:, q] = rq[:n]
    raise AssertionError("per-rotation Jacobi did not converge")


# The spectral_wide benchmark's graphs, all past the toughness cap.
SPECTRAL_WIDE = [kneser(7, 3), kneser(8, 3), hypercube(6), circulant(40, 1, 5, 9),
                 random_regular(48, 3, 1), random_regular(60, 4, 1)]


def test_jacobi_column_p_once_per_p_loop(corpus):
    for g in [g for _, g in corpus] + SPECTRAL_WIDE:
        a0 = spectra.adjacency_matrix(g)
        diag, vecs = spectra._jacobi_eigh(a0)
        ref_diag, ref_vecs = per_rotation_jacobi_eigh(a0)
        assert diag.tobytes() == ref_diag.tobytes()
        assert vecs.tobytes() == ref_vecs.tobytes()


# Each graph skips every rotation of some p-loop, so the row pair is copied
# in and out untouched: no edges, two components, one vertex, one edge.
@settings(deadline=None)
@given(graphs(24))
@example(from_edge_list(4, []))
@example(from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
@example(from_edge_list(1, []))
@example(from_edge_list(2, [(0, 1)]))
def test_jacobi_bit_identical_on_random_graphs(g):
    a0 = spectra.adjacency_matrix(g)
    diag, vecs = spectra._jacobi_eigh(a0)
    for ref in (reference_jacobi_eigh, per_rotation_jacobi_eigh):
        ref_diag, ref_vecs = ref(a0)
        assert diag.tobytes() == ref_diag.tobytes()
        assert vecs.tobytes() == ref_vecs.tobytes()


def with_examples(gs):
    """``@example(g)`` for each graph g of ``gs``."""
    def decorate(test):
        for g in gs:
            test = example(g)(test)
        return test
    return decorate


@settings(deadline=None)
@given(graphs(MAX_VERTICES))
@with_examples([two_cycles(MAX_VERTICES)] + SPECTRAL_WIDE)
def test_spectrum_matches_eigvalsh(g):
    # An oracle outside the Jacobi family: LAPACK's symmetric solver on a
    # matrix built here from the adjacency bitmasks.
    a = np.array([[g.adj[u] >> v & 1 for v in range(g.n)] for u in range(g.n)],
                 dtype=float)
    want = np.linalg.eigvalsh(a)[::-1]
    prof = spectrum(g)
    assert np.abs(np.array(prof.eigenvalues) - want).max() <= 1e-9
    if g.n >= 2:
        assert abs(prof.lam - max(abs(want[1]), abs(want[-1]))) <= 1e-9
    else:
        assert prof.lam is None
    assert prof.residual <= 1e-8


def test_no_convergence(monkeypatch):
    monkeypatch.setattr(spectra, "DEFAULT_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence,
                       match=r"did not reach off-diagonal norm 1e-12 in 1 sweeps"):
        spectrum(petersen())
