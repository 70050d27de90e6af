"""Exact graph toughness t(G) = min |S| / c(G-S) over disconnecting sets S.

This is the one module that enumerates vertex cuts.  Two independent code
paths compute t: a pruned size-class search (the production route) and a
naive all-subsets oracle that cross-validates it in the tests and computes
the benchmark's golden frontier values (``bench/make_golden.py``).  The same
size-class scan, unpruned, gives the largest component count over all cuts
for the spectral component-count ceiling.  Ratios are exact
``fractions.Fraction`` values; floats would make ties ambiguous.

The search prunes with the independence number alpha: one vertex per
component of G-S is an independent set, so c(G-S) <= min(n - s, alpha) when
|S| = s.  Every enumerated mask costs exactly one ``count_components`` call;
the benchmark counts cuts by counting those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import GraphTooLarge, PreconditionViolated
from .graph import Graph, VertexSet, _require_connected, count_components

# Past this the subset space is no longer a desk-scale computation.
DEFAULT_MAX_N = 24
# The unpruned scan counts components for all 2^n - 1 proper subsets.
COMPONENT_BOUND_MAX_N = 12


@dataclass(frozen=True)
class ToughnessResult:
    t: Fraction
    witness: VertexSet
    components: int


def _subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All k-subsets of 0..n-1 as bitmasks, ascending (Gosper's hack)."""
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ((ripple ^ mask) >> 2) // low | ripple


def _independence_number(g: Graph) -> int:
    """alpha(G) by bitset branch and bound: take or drop the lowest candidate,
    and cut a branch once it cannot beat the best set found."""
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & ~g.adj[low.bit_length() - 1])
        best = max(best, size)

    grow(0, (1 << g.n) - 1)
    return best


def _class_max(g: Graph, s: int, cap: int) -> tuple[int, int]:
    """Largest c(G-S) over the s-subsets S, in ascending mask order, and the
    first mask reaching it; ``(1, 0)`` when no s-subset disconnects G.

    The scan returns at the first mask whose count reaches ``cap``, which
    must bound every count in the class; that mask is then the first one
    attaining the class maximum.
    """
    best_c, best_mask = 1, 0
    for mask in _subsets_of_size(g.n, s):
        c = count_components(g, mask)
        if c > best_c:
            best_c, best_mask = c, mask
        if c >= cap:
            break
    return best_c, best_mask


def exact_toughness(g: Graph, max_n: int = DEFAULT_MAX_N) -> ToughnessResult | None:
    """Globally minimal |S|/c(G-S) with a witness cut set.

    Returns None when no proper S disconnects the graph (complete graphs):
    the minimization domain is empty and we do not invent a value.
    Enumerates S by increasing size s, each class in ascending mask order.
    Within a class the best ratio is s over the largest c, so the scan keeps
    only that c and the first mask reaching it, comparing s*best_c with
    best_s*c in integers.  Every c in class s is at most min(n - s, alpha),
    so a class scan stops at the first mask reaching that ceiling, and the
    search stops at the first class where s/min(n - s, alpha) can no longer
    beat the incumbent; the ceiling never grows with s, so no later class
    can either.  Neither prune skips a class or mask holding a strictly
    better ratio, so the witness is the first mask, in enumeration order,
    attaining the minimum.
    """
    if g.n > max_n:
        raise GraphTooLarge(
            f"exact toughness on n={g.n} exceeds the cap {max_n}; "
            "pass a larger max_n (analyze --force) to search anyway"
        )
    _require_connected(g, "toughness")
    n = g.n
    alpha = _independence_number(g)
    best_s = best_c = best_mask = 0
    for s in range(0, n - 1):
        cap = min(n - s, alpha)
        if best_c and s * best_c >= best_s * cap:
            break
        c, mask = _class_max(g, s, cap)
        if c > 1 and (not best_c or s * best_c < best_s * c):
            best_s, best_c, best_mask = s, c, mask
    if not best_c:
        return None
    return ToughnessResult(Fraction(best_s, best_c), VertexSet(n, best_mask), best_c)


def naive_toughness(g: Graph) -> ToughnessResult | None:
    """Unpruned all-subsets oracle.  Test cross-check only; O(2^n)."""
    _require_connected(g, "toughness")
    best = None
    for mask in range((1 << g.n) - 1):
        c = count_components(g, mask)
        if c >= 2 and (best is None or Fraction(mask.bit_count(), c) < best.t):
            best = ToughnessResult(Fraction(mask.bit_count(), c), VertexSet(g.n, mask), c)
    return best


def max_components_over_cuts(g: Graph) -> int:
    """Largest c(G-S) over all proper S that disconnect the graph; 0 if none.

    Unlike ``exact_toughness`` it stops no class at alpha: its cap n is
    reached only by the empty cut of an edgeless graph, the one mask of its
    class.  So it makes one ``count_components`` call for each of the 2^n - 1
    proper subsets, the cut count that the benchmark's traced self-test
    expects (1023 on Petersen).
    """
    if g.n > COMPONENT_BOUND_MAX_N:
        raise GraphTooLarge(
            f"cut enumeration on n={g.n} exceeds the cap {COMPONENT_BOUND_MAX_N}"
        )
    best = max((_class_max(g, s, g.n)[0] for s in range(g.n)), default=1)
    return best if best >= 2 else 0


def toughness_of_cut(g: Graph, s: VertexSet) -> Fraction | None:
    """|S|/c(G-S) for one candidate cut, or None if S does not disconnect."""
    if s.n != g.n:
        raise ValueError("cut set has wrong ambient size")
    if s.bits == (1 << g.n) - 1:
        raise PreconditionViolated("S must be a proper subset of V")
    c = count_components(g, s.bits)
    if c <= 1:
        return None
    return Fraction(len(s), c)
