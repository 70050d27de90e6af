"""Full adjacency spectra via cyclic Jacobi rotations.

Dense O(n^3) diagonalization is deliberate: the vertex cap makes it trivial,
and the bounds need the most negative eigenvalue as well as the second
largest, which extremal iteration schemes complicate.  The sweep order is
fixed (row-major over the upper triangle) so results are bit-stable across
runs on one platform.

The solver keeps A and the transposed eigenvector matrix V side by side in one
n x 2n array, so a rotation is one pass over two rows of length 2n; A's rows
are then copied into its columns.  This equals rotating A's columns, then its
rows, then V's columns, bit for bit: A stays exactly symmetric, so off the
2x2 pivot block the row rotation computes the same products and the same
difference as the column rotation, and the block itself is computed in the
two-stage order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PreconditionViolated
from .graph import Graph

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 100

# Epsilon used by every comparison that consumes an eigenvalue downstream.
LAMBDA_EPS = 1e-9


def _check_lambda(lam: float | None) -> float:
    """Return ``lam``, refusing None, NaN, infinity and lam <= 0; a graph's
    lambda is positive exactly when n >= 2 and m > 0."""
    if lam is None or not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite (n >= 2 and m > 0), got {lam}")
    return lam


@dataclass(frozen=True)
class SpectralProfile:
    """Eigenvalues of the adjacency matrix, sorted descending.

    ``lam`` is the second largest absolute eigenvalue max(|l2|, |ln|), the
    quantity every toughness bound consumes; it is None for n < 2.
    ``residual`` is the worst max-norm of A v - l v over all eigenpairs.
    """

    eigenvalues: tuple[float, ...]
    lambda1: float
    lam: float | None
    residual: float


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        row = g.adj[u]
        while row:
            low = row & -row
            a[u, low.bit_length() - 1] = 1.0
            row ^= low
    return a


def _jacobi_eigh(a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi sweeps until the off-diagonal norm drops below DEFAULT_TOL."""
    n = a0.shape[0]
    m = np.hstack([a0, np.eye(n)])  # row i: A's row i, then V's column i
    a = m[:, :n]
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(DEFAULT_MAX_SWEEPS):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < DEFAULT_TOL:
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
                # hypot keeps this finite even for near-zero pivots
                t = sign / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # The 2x2 block as a column rotation followed by a row
                # rotation leaves it; off the block, A's new rows already
                # equal its new columns.
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
    raise NoConvergence(
        f"Jacobi sweeps did not reach off-diagonal norm {DEFAULT_TOL} "
        f"in {DEFAULT_MAX_SWEEPS} sweeps"
    )


def spectrum(g: Graph) -> SpectralProfile:
    """Full adjacency spectrum with eigenpair residuals."""
    if g.n < 1:
        raise PreconditionViolated("spectrum needs at least one vertex")
    a0 = adjacency_matrix(g)
    diag, vecs = _jacobi_eigh(a0)
    order = np.argsort(-diag, kind="stable")
    eigenvalues = diag[order]
    vecs = vecs[:, order]
    residual = float(np.abs(a0 @ vecs - vecs * eigenvalues).max())
    lambda1 = float(eigenvalues[0])
    lam = None
    if g.n >= 2:
        lam = max(abs(float(eigenvalues[1])), abs(float(eigenvalues[-1])))
    return SpectralProfile(
        eigenvalues=tuple(float(x) for x in eigenvalues),
        lambda1=lambda1,
        lam=lam,
        residual=residual,
    )
