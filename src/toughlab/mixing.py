"""Expander mixing lemma checks and the spectral component-count bound.

For a d-regular graph on n vertices with second largest absolute eigenvalue
lam, every pair of vertex subsets A, B satisfies

    |e(A,B) - d|A||B|/n|  <=  lam * sqrt(|A||B| (1-|A|/n)(1-|B|/n))

with the single-set specialization

    |e(A) - d|A|^2/(2n)|  <=  (lam/2) |A| (1-|A|/n).

``slack`` is bound minus deviation; the lemma says it is never below zero
(minus the eigenvalue epsilon, since lam itself is computed numerically).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bounds import _check_lambda
from .errors import GraphTooLarge
from .graph import Graph, VertexSet, _require_regular, e_between, e_within
from .spectra import LAMBDA_EPS, adjacency_matrix
from .toughness import max_components_over_cuts

EXHAUSTIVE_MAX_N = 10


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
            "A": list(self.a.members()),
            "B": list(self.b.members()),
            "e_ab": self.e_ab,
            "expected": self.expected,
            "bound": self.bound,
            "slack": self.slack,
        }


def mixing_check(g: Graph, a: VertexSet, b: VertexSet, lam: float) -> MixingCheck:
    """Two-set mixing inequality for one pair (A, B)."""
    d = _require_regular(g)
    n = g.n
    e_ab = e_between(g, a, b)
    ka, kb = len(a), len(b)
    expected = d * ka * kb / n
    bound = lam * math.sqrt(ka * kb * (1.0 - ka / n) * (1.0 - kb / n))
    slack = bound - abs(e_ab - expected)
    return MixingCheck(a, b, e_ab, expected, bound, slack)


def mixing_check_single(g: Graph, a: VertexSet, lam: float) -> MixingCheck:
    """Single-set mixing inequality on e(A) (edges inside A)."""
    d = _require_regular(g)
    n, ka = g.n, len(a)
    e_a = e_within(g, a)
    expected = d * ka * ka / (2.0 * n)
    bound = (lam / 2.0) * ka * (1.0 - ka / n)
    return MixingCheck(a, a, e_a, expected, bound, bound - abs(e_a - expected))


def _slack_matrix(g: Graph, d: int, lam: float) -> np.ndarray:
    """Slack of every (A, B) pair as a 2^n x 2^n matrix (vectorized scan)."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    x = (masks[:, None] >> np.arange(n)) & 1
    x = x.astype(np.float64)
    adj = adjacency_matrix(g)
    e = x @ adj @ x.T
    sizes = x.sum(axis=1)
    expected = np.outer(sizes, sizes) * (d / n)
    root = np.sqrt(sizes * (n - sizes)) / n
    bound = lam * n * np.outer(root, root)
    return bound - np.abs(e - expected)


def exhaustive_mixing_verify(g: Graph, lam: float) -> MixingCheck:
    """Scan every (A, B) pair and return the minimum-slack check.

    The scan itself runs as one vectorized pass; the worst pair is then
    re-evaluated through ``mixing_check`` so the returned record comes from
    the same code path as single checks.
    """
    d = _require_regular(g)
    if g.n > EXHAUSTIVE_MAX_N:
        raise GraphTooLarge(
            f"exhaustive mixing on n={g.n} exceeds the cap {EXHAUSTIVE_MAX_N}"
        )
    slack = _slack_matrix(g, d, lam)
    flat = int(np.argmin(slack))
    a_mask, b_mask = divmod(flat, 1 << g.n)
    return mixing_check(g, VertexSet(g.n, a_mask), VertexSet(g.n, b_mask), lam)


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
    ``random.Random(seed)``, so runs are reproducible.
    """
    d = _require_regular(g)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = g.n
    draws = _random_masks(random.Random(seed), n, 2 * samples)
    # Draws alternate A, B; the transposed copy makes each side contiguous.
    a_masks, b_masks = draws.reshape(samples, 2).T.copy()
    # e(A,B) = sum over v in B of |N(v) & A|, in exact integers.
    e = np.zeros(samples, dtype=np.uint64)
    for v, row in enumerate(np.array(g.adj, dtype=np.uint64)):
        e += np.bitwise_count(a_masks & row) * ((b_masks >> np.uint64(v)) & np.uint64(1))
    e = e.astype(np.float64)
    sa = np.bitwise_count(a_masks).astype(np.float64)
    sb = np.bitwise_count(b_masks).astype(np.float64)
    expected = sa * sb * (d / n)
    bound = lam * np.sqrt(sa * sb * (1.0 - sa / n) * (1.0 - sb / n))
    slack = bound - np.abs(e - expected)
    worst_i = int(np.argmin(slack))
    return mixing_check(
        g, VertexSet(n, int(a_masks[worst_i])), VertexSet(n, int(b_masks[worst_i])), lam
    )


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
