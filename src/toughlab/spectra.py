"""Full adjacency spectra via cyclic Jacobi rotations.

Dense O(n^3) diagonalization is deliberate: the vertex cap makes it trivial,
and the bounds need the most negative eigenvalue as well as the second
largest, which extremal iteration schemes complicate.  The sweep order is
fixed (row-major over the upper triangle) so results are bit-stable across
runs on one platform.

The solver keeps A and the transposed eigenvector matrix V side by side in one
n x 2n array m, so a rotation is one pass over two rows of length 2n; A's rows
are then copied into its columns.  This equals rotating A's columns, then its
rows, then V's columns, bit for bit: A stays exactly symmetric, so off the
2x2 pivot block the row rotation computes the same products and the same
difference as the column rotation, and the block itself is computed in the
two-stage order.

Rows p and q are rotated in a preallocated 2 x 2n buffer.  Row p stays in its
first row for the whole p-loop and row q is copied into its second; two
multiplies form c and s times both rows, one subtract gives the new row p in
the buffer and one add writes the new row q straight into m.  Each new entry
is still one rounded difference or sum of two rounded products, so no bit
changes (no BLAS, einsum or matmul, which may fuse multiply-adds).  m[p] is
stale during its own p-loop and nothing reads it: a rotation reads only
row q from m, and the column-q writes into m[p] are overwritten when the
buffer's row p is copied back at the loop's end.  A[p, p] is carried as a
Python float and stored then.  Column q is written after each rotation,
column p once after its p-loop.  Entry p of the buffer's row p and of m's
row q hold stale values inside the loop, but they feed only each other and
column p's write overwrites row q's entry p, so it needs no zero store.

A rotation costs a few microseconds of call overhead and little arithmetic,
so the loop avoids numpy's Python-level dispatch.  Copies are ``dst[...] =
src``, not ``np.copyto``, whose ``__array_function__`` dispatcher runs in
Python on every call under numpy 2: a 128-element row copy took about
0.75 us with ``np.copyto`` and 0.27 us with ``[...] =``, a strided column
copy 0.9 and 0.45 us (timeit, numpy 2.4.6).  The three ufuncs are bound to
locals once per call and take ``out`` positionally, which spares a module
lookup and a keyword argument per call.  Neither choice changes a copied
value or a rounded product, difference or sum.
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
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def _jacobi_eigh(a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi sweeps until the off-diagonal norm drops below DEFAULT_TOL."""
    n = a0.shape[0]
    m = np.hstack([a0, np.eye(n)])  # row i: A's row i, then V's column i
    a = m[:, :n]
    rows, heads, cols = list(m), list(a), list(a.T)
    pair, pc, ps = np.empty((3, 2, 2 * n))  # rows p and q; times c; times s
    rp, rq = pair
    pc0, pc1 = pc
    ps0, ps1 = ps
    # c and s go in as 0-d arrays: numpy wraps a Python float operand in a
    # fresh array on every call.
    cv, sv = np.empty(()), np.empty(())
    multiply, subtract, add = np.multiply, np.subtract, np.add
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(DEFAULT_MAX_SWEEPS):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < DEFAULT_TOL:
            return np.diagonal(a).copy(), m[:, n:].T.copy()
        for p in range(n - 1):
            rp[...] = rows[p]  # m[p] is stale until the loop ends
            app = rp.item(p)
            for q in range(p + 1, n):
                apq = rp.item(q)
                if apq == 0.0:
                    continue
                mq = rows[q]
                aqq = mq.item(q)
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
                rq[...] = mq
                cv[()] = c
                sv[()] = s
                multiply(pair, cv, pc)
                multiply(pair, sv, ps)
                subtract(pc0, ps1, rp)
                add(ps0, pc1, mq)
                app = c * pp - s * qp
                mq[q] = s * pq + c * qq
                rp[q] = 0.0
                cols[q][...] = heads[q]
            rp[p] = app
            rows[p][...] = rp
            cols[p][...] = heads[p]
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
