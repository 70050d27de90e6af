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
from typing import Iterator

import numpy as np

from .errors import GraphTooLarge
from .graph import (
    Graph,
    VertexSet,
    _disconnecting_cuts,
    _require_regular,
    components,
    e_between,
    e_within,
)
from .spectra import LAMBDA_EPS, adjacency_matrix, spectrum

EXHAUSTIVE_MAX_N = 10
COMPONENT_BOUND_MAX_N = 12


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


def _lam_of(g: Graph, lam: float | None) -> float:
    if lam is not None:
        return lam
    value = spectrum(g).lam
    if value is None:
        raise ValueError("mixing checks need n >= 2")
    return value


def mixing_check(g: Graph, a: VertexSet, b: VertexSet,
                 lam: float | None = None) -> MixingCheck:
    """Two-set mixing inequality for one pair (A, B)."""
    d = _require_regular(g)
    lam = _lam_of(g, lam)
    n = g.n
    e_ab = e_between(g, a, b)
    ka, kb = len(a), len(b)
    expected = d * ka * kb / n
    bound = lam * math.sqrt(ka * kb * (1.0 - ka / n) * (1.0 - kb / n))
    slack = bound - abs(e_ab - expected)
    return MixingCheck(a, b, e_ab, expected, bound, slack)


def mixing_check_single(g: Graph, a: VertexSet,
                        lam: float | None = None) -> MixingCheck:
    """Single-set mixing inequality on e(A) (edges inside A)."""
    d = _require_regular(g)
    lam = _lam_of(g, lam)
    n = g.n
    e_a = e_within(g, a)
    ka = len(a)
    expected = d * ka * ka / (2.0 * n)
    bound = (lam / 2.0) * ka * (1.0 - ka / n)
    slack = bound - abs(e_a - expected)
    return MixingCheck(a, a, e_a, expected, bound, slack)


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


def exhaustive_mixing_verify(g: Graph, lam: float | None = None) -> MixingCheck:
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
    lam = _lam_of(g, lam)
    slack = _slack_matrix(g, d, lam)
    flat = int(np.argmin(slack))
    a_mask, b_mask = divmod(flat, 1 << g.n)
    return mixing_check(g, VertexSet(g.n, a_mask), VertexSet(g.n, b_mask), lam)


def sampled_mixing_verify(g: Graph, samples: int, seed: int,
                          lam: float | None = None) -> MixingCheck:
    """Check ``samples`` uniformly random (A, B) pairs, deterministic in seed.

    Each set includes every vertex independently with probability 1/2; the
    mask stream comes from ``random.Random(seed)`` so runs are reproducible.
    """
    d = _require_regular(g)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    lam = _lam_of(g, lam)
    n = g.n
    rng = random.Random(seed)
    a_masks = np.empty(samples, dtype=np.int64)
    b_masks = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        a_masks[i] = rng.getrandbits(n)
        b_masks[i] = rng.getrandbits(n)
    shifts = np.arange(n)
    xa = ((a_masks[:, None] >> shifts) & 1).astype(np.float64)
    xb = ((b_masks[:, None] >> shifts) & 1).astype(np.float64)
    adj = adjacency_matrix(g)
    e = ((xa @ adj) * xb).sum(axis=1)
    sa = xa.sum(axis=1)
    sb = xb.sum(axis=1)
    expected = sa * sb * (d / n)
    bound = lam * np.sqrt(sa * sb * (1.0 - sa / n) * (1.0 - sb / n))
    slack = bound - np.abs(e - expected)
    worst_i = int(np.argmin(slack))
    return mixing_check(
        g, VertexSet(n, int(a_masks[worst_i])), VertexSet(n, int(b_masks[worst_i])), lam
    )


def component_count_bound(g: Graph, lam: float | None = None) -> float:
    """Spectral ceiling lam*n/(d+lam) on c(G-S) for any vertex cut S."""
    d = _require_regular(g)
    lam = _lam_of(g, lam)
    return lam * g.n / (d + lam)


def _capped_cuts(g: Graph) -> Iterator[tuple[int, int]]:
    # Checked at the call, not at the first cut: before any spectrum is computed.
    if g.n > COMPONENT_BOUND_MAX_N:
        raise GraphTooLarge(
            f"cut enumeration on n={g.n} exceeds the cap {COMPONENT_BOUND_MAX_N}"
        )
    return _disconnecting_cuts(g)


def max_components_over_cuts(g: Graph) -> int:
    """Largest c(G-S) over all proper S that disconnect the graph; 0 if none."""
    return max((c for _, c in _capped_cuts(g)), default=0)


def verify_component_bound(g: Graph, lam: float | None = None) -> bool:
    """Exhaustively confirm the component ceiling on every disconnecting cut.

    Also replays the derivation on each cut: picking one vertex per component
    gives an independent set U with e(U) = 0, and the single-set mixing
    inequality on U forces the ceiling.
    """
    d = _require_regular(g)
    cuts = _capped_cuts(g)
    lam = _lam_of(g, lam)
    ceiling = lam * g.n / (d + lam)
    for mask, c in cuts:
        if c > ceiling + LAMBDA_EPS:
            return False
        comps = components(g, VertexSet(g.n, mask))
        u = VertexSet.of(g.n, (min(comp) for comp in comps))
        if e_within(g, u) != 0:
            return False
        if mixing_check_single(g, u, lam).slack < -LAMBDA_EPS:
            return False
    return True
