"""Expander mixing lemma checks and the spectral component-count bound.

For a d-regular graph on n vertices with second largest absolute eigenvalue
lam, every pair of vertex subsets A, B satisfies

    |e(A,B) - d|A||B|/n|  <=  lam * sqrt(|A||B| (1-|A|/n)(1-|B|/n))

where e(A,B) counts the edge incidences from A to B.  The single-set form,
on the number e(A) of edges inside A, is ``mixing_check(g, a, a, lam)``:
e(A,A) = 2e(A), so its e_ab, expected, bound and slack are each twice those
of |e(A) - d|A|^2/(2n)| <= (lam/2) |A| (1-|A|/n).

``slack`` is bound minus deviation; the lemma says it is never below zero
(minus the eigenvalue epsilon, since lam itself is computed numerically).

The exhaustive two-set scan (n <= ``EXHAUSTIVE_MAX_N``) never forms the 4^n
pairs: for a fixed A and |B| the least slack is at the least or the greatest
e(A,B), so each A costs one sort of its n counts |N(v) & A|, and ties
resolve to the first (A, B) by mask, A before B.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bounds import _check_lambda
from .errors import GraphTooLarge
from .graph import Graph, VertexSet, _require_regular, e_between
from .spectra import LAMBDA_EPS
from .toughness import max_components_over_cuts

EXHAUSTIVE_MAX_N = 10
# Pairs scored per step of the sampled scan: each uint64 work array is then
# 64 KiB, under glibc's default 128 KiB mmap threshold, so the scan reuses
# heap pages instead of faulting in fresh ones for every temporary.
SAMPLE_CHUNK = 8192


@dataclass(frozen=True)
class MixingCheck:
    a: VertexSet
    b: VertexSet
    e_ab: int
    expected: float
    bound: float
    slack: float

    def to_json_dict(self) -> dict:
        return {
            "A": list(self.a),
            "B": list(self.b),
            "e_ab": self.e_ab,
            "expected": self.expected,
            "bound": self.bound,
            "slack": self.slack,
        }


def mixing_check(g: Graph, a: VertexSet, b: VertexSet, lam: float) -> MixingCheck:
    """Two-set mixing inequality for one pair (A, B)."""
    _check_lambda(lam)
    d = _require_regular(g)
    n = g.n
    e_ab = e_between(g, a, b)
    ka, kb = len(a), len(b)
    expected = d * ka * kb / n
    bound = lam * math.sqrt(ka * kb * (1.0 - ka / n) * (1.0 - kb / n))
    slack = bound - abs(e_ab - expected)
    return MixingCheck(a, b, e_ab, expected, bound, slack)


def exhaustive_mixing_verify(g: Graph, lam: float) -> MixingCheck:
    """Return the minimum-slack check over every (A, B) pair, in O(2^n n log n).

    The scan's slack is ``bound[|A|,|B|] - |e(A,B) - expected[|A|,|B|]|``
    in floats, with ``expected = (|A||B|) * (d/n)`` and ``bound = (lam*n) *
    (root(|A|) root(|B|))``, ``root(s) = sqrt(s(n-s))/n``.  The rounded
    ``e - expected`` is monotone in the integer e, its ``abs`` is largest at
    one end of any range of e, and ``bound - x`` falls as x grows; so for a
    fixed A and |B| = b the least slack, to the last bit, is at the least or
    the greatest e(A, B).  Since e(A, B) = sum over v in B of |N(v) & A|,
    those are the sums of the b smallest and the b largest of the n counts
    |N(v) & A|.  The first A (by mask) whose least slack is the global
    minimum is then scanned over every B, and the first B reaching it is
    taken: the first minimum in (A, B) mask order, A before B.  The
    worst pair is re-evaluated through ``mixing_check`` so the returned
    record comes from the same code path as single checks.
    """
    _check_lambda(lam)
    d = _require_regular(g)
    n = g.n
    if n > EXHAUSTIVE_MAX_N:
        raise GraphTooLarge(
            f"exhaustive mixing on n={n} exceeds the cap {EXHAUSTIVE_MAX_N}"
        )
    s = np.arange(n + 1, dtype=np.float64)
    expected = np.outer(s, s) * (d / n)
    root = np.sqrt(s * (n - s)) / n
    bound = lam * n * np.outer(root, root)

    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(masks)
    # hits[A, v] = |N(v) & A|; e(A, B) is the sum of hits[A, v] over v in B.
    hits = np.bitwise_count(masks[:, None] & np.array(g.adj, dtype=np.int64))
    # least[A, b] / most[A, b]: the sum of the b smallest / largest hits.
    least = np.zeros((1 << n, n + 1), dtype=np.int64)
    least[:, 1:] = np.cumsum(np.sort(hits, axis=1), axis=1)
    most = least[:, -1:] - least[:, ::-1]
    row_bound, row_expected = bound[sizes], expected[sizes]
    row_worst = np.minimum(
        row_bound - np.abs(least - row_expected),
        row_bound - np.abs(most - row_expected),
    ).min(axis=1)
    a_mask = int(np.argmin(row_worst))

    e_row = ((masks[:, None] >> np.arange(n)) & 1) @ hits[a_mask]
    size_a = sizes[a_mask]
    slack = bound[size_a, sizes] - np.abs(e_row - expected[size_a, sizes])
    b_mask = int(np.argmin(slack))
    return mixing_check(g, VertexSet(n, a_mask), VertexSet(n, b_mask), lam)


def _random_masks(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``count`` successive ``rng.getrandbits(n)`` draws, 1 <= n <= 64, as uint64.

    CPython builds ``getrandbits(k)`` from 32-bit outputs, least significant
    word first, and shifts the last word right by 32*ceil(k/32) - k.  So one
    draw of 32*w*count bits, w = ceil(n/32), holds the words of every draw in
    order, and the stream is the same as drawing them one at a time.
    """
    w = -(-n // 32)
    raw = rng.getrandbits(32 * w * count).to_bytes(4 * w * count, "little")
    words = np.frombuffer(raw, dtype="<u4").reshape(count, w).astype(np.uint64)
    words[:, -1] >>= np.uint64(32 * w - n)
    masks = words[:, 0]
    for i in range(1, w):
        masks = masks | words[:, i] << np.uint64(32 * i)
    return masks


def sampled_mixing_verify(g: Graph, samples: int, seed: int, lam: float) -> MixingCheck:
    """Check ``samples`` uniformly random (A, B) pairs, deterministic in seed.

    Each set includes every vertex independently with probability 1/2: the
    i-th pair is A = ``getrandbits(n)`` draw 2i and B = draw 2i+1 of
    ``random.Random(seed)``, so runs are reproducible.  The pairs are scored
    ``SAMPLE_CHUNK`` at a time, drawn in order from the one stream, and the
    first pair of least slack is kept, as a single pass would keep it.
    """
    _check_lambda(lam)
    d = _require_regular(g)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = g.n
    rng = random.Random(seed)
    adj = np.array(g.adj, dtype=np.uint64)
    worst = None
    for start in range(0, samples, SAMPLE_CHUNK):
        count = min(SAMPLE_CHUNK, samples - start)
        # Draws alternate A, B; the transposed copy makes each side contiguous.
        a_masks, b_masks = _random_masks(rng, n, 2 * count).reshape(count, 2).T.copy()
        # e(A,B) = sum over v in B of |N(v) & A|, in exact integers.
        e = np.zeros(count, dtype=np.uint64)
        for v, row in enumerate(adj):
            e += np.bitwise_count(a_masks & row) * ((b_masks >> np.uint64(v)) & np.uint64(1))
        e = e.astype(np.float64)
        sa = np.bitwise_count(a_masks).astype(np.float64)
        sb = np.bitwise_count(b_masks).astype(np.float64)
        expected = sa * sb * (d / n)
        bound = lam * np.sqrt(sa * sb * (1.0 - sa / n) * (1.0 - sb / n))
        slack = bound - np.abs(e - expected)
        i = int(np.argmin(slack))
        # A finite lam makes every slack finite, so no NaN can hide a minimum.
        if worst is None or slack[i] < worst[0]:
            worst = (slack[i], int(a_masks[i]), int(b_masks[i]))
    _, a_mask, b_mask = worst
    return mixing_check(g, VertexSet(n, a_mask), VertexSet(n, b_mask), lam)


def component_count_bound(g: Graph, lam: float) -> float:
    """Spectral ceiling lam*n/(d+lam) on c(G-S) for any vertex cut S."""
    d = _require_regular(g)
    _check_lambda(lam)
    return lam * g.n / (d + lam)


def verify_component_bound(g: Graph, lam: float) -> bool:
    """Exhaustively confirm c(G-S) <= lam*n/(d+lam) on every disconnecting cut S.

    The cut scan, and so its size cap, runs before lam is checked.
    """
    _require_regular(g)
    worst = max_components_over_cuts(g)
    return worst <= component_count_bound(g, lam) + LAMBDA_EPS
