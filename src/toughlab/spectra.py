"""Full adjacency spectra via cyclic Jacobi rotations.

Dense O(n^3) diagonalization is deliberate: the vertex cap makes it trivial,
and the bounds need the most negative eigenvalue as well as the second
largest, which extremal iteration schemes complicate.  The sweep order is
fixed (row-major over the upper triangle) so results are bit-stable across
runs on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, TooFewVertices
from .graph import Graph, _require_regular

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 100

# Epsilon used by every comparison that consumes an eigenvalue downstream.
LAMBDA_EPS = 1e-9


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
    a = a0.copy()
    n = a.shape[0]
    v = np.eye(n)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(DEFAULT_MAX_SWEEPS):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < DEFAULT_TOL:
            diag = np.diagonal(a).copy()
            return diag, v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                sign = 1.0 if theta >= 0.0 else -1.0
                # hypot keeps this finite even for near-zero pivots
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
    raise NoConvergence(
        f"Jacobi sweeps did not reach off-diagonal norm {DEFAULT_TOL} "
        f"in {DEFAULT_MAX_SWEEPS} sweeps"
    )


def spectrum(g: Graph) -> SpectralProfile:
    """Full adjacency spectrum with eigenpair residuals."""
    if g.n < 1:
        raise TooFewVertices("spectrum needs at least one vertex")
    a0 = adjacency_matrix(g)
    diag, vecs = _jacobi_eigh(a0)
    order = np.argsort(-diag, kind="stable")
    eigenvalues = diag[order]
    vecs = vecs[:, order]
    residual = float(np.abs(a0 @ vecs - vecs * eigenvalues).max()) if g.n else 0.0
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


def check_regular_spectrum(g: Graph, profile: SpectralProfile) -> bool:
    """True iff lambda1 matches the common degree within 1e-9."""
    return abs(profile.lambda1 - _require_regular(g)) <= LAMBDA_EPS
