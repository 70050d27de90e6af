"""Exact graph toughness t(G) = min |S| / c(G-S) over disconnecting sets S.

This is the one module that enumerates vertex cuts.  Two independent code
paths compute t: a pruned size-class search (the production route) and a
naive all-subsets oracle that cross-validates it in the tests and computes
the benchmark's golden frontier values (``bench/make_golden.py``).  One
loop over all 2^n - 1 proper subsets gives the largest component count over
all cuts for the spectral component-count ceiling.  Ratios are exact
``fractions.Fraction`` values; floats would make ties ambiguous.

The search rests on one fact: one vertex per component of G-S is an
independent set.  So c(G-S) <= min(n - s, alpha) when |S| = s, and some
s-set leaves at least q <= min(n - s, alpha) components exactly when at most
s vertices outside some independent q-set I separate its vertices from each
other (pad the separator with vertices outside I; deleting a vertex never
merges components).  One kernel, ``_independent_sets``, enumerates the
independent sets for both uses: alpha, and the yes/no questions that decide
a large size class, each answered by a bounded branching search on shortest
paths between vertices of I.  So no mask of such a class is scanned unless
it holds the witness, and then only up to the witness.  Every enumerated
mask costs exactly one ``count_components`` call, and alpha and the
questions make none; the benchmark counts cuts by counting those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import GraphTooLarge, PreconditionViolated
from .graph import Graph, VertexSet, _neighbourhood, _require_connected, count_components

# Past this the subset space is no longer a desk-scale computation.
DEFAULT_MAX_N = 24
# A size class with at most this many masks is scanned whole; questions to
# ``_separable`` alone decide a larger one.  Petersen's largest class has
# C(10, 5) = 252 masks, so its classes stay scanned, and with them the
# benchmark's self-test count of 638 masks; every class up to n = 13 does too.
CLASS_SCAN_MAX = 2000
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


def _independent_sets(g: Graph, q: int, s: int) -> Iterator[tuple[int, int]]:
    """Every independent q-set I with |W(I)| <= s, as bitmasks (I, W(I)),
    where W(I) holds the vertices with two or more neighbours in I.

    Take or drop the lowest candidate; cut a branch once too few candidates
    remain to reach q, or once |W| > s, as W only grows with I.
    """
    adj = g.adj

    def grow(size: int, cand: int, chosen: int, once: int,
             twice: int) -> Iterator[tuple[int, int]]:
        if size == q:
            yield chosen, twice
            return
        while cand and size + cand.bit_count() >= q:
            low = cand & -cand
            cand ^= low
            row = adj[low.bit_length() - 1]
            w = twice | once & row
            if w.bit_count() <= s:
                yield from grow(size + 1, cand & ~row, chosen | low, once | row, w)

    return grow(0, (1 << g.n) - 1, 0, 0, 0)


def _independence_number(g: Graph) -> int:
    """alpha(G): the largest q for which ``_independent_sets`` finds an
    independent q-set; with s = n its W bound never cuts a branch."""
    q = 0
    while next(_independent_sets(g, q + 1, g.n), None):
        q += 1
    return q


def _class_max(g: Graph, s: int, cap: int) -> tuple[int, int]:
    """Largest c(G-S) over the s-sets S, taken in ascending mask order, and
    the first mask reaching it; ``(1, 0)`` when none of them disconnects G.

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


def _joining_path(g: Graph, terminals: int, removed: int) -> int:
    """Interior vertices of a path in G - removed that joins two vertices of
    the independent set ``terminals``; 0 when no path joins two.

    A layer BFS from the lowest terminal not yet known to be alone in its
    component stops at the first layer holding another terminal, so the
    path is a shortest one from that terminal; it is traced back one
    adjacent vertex per layer.
    """
    free = ~removed & ((1 << g.n) - 1)
    rest = terminals
    while rest:
        front = rest & -rest
        rest ^= front
        layers = [front]
        seen = front
        while front:
            front = _neighbourhood(g, front) & free & ~seen
            hit = front & rest
            if hit:
                x, path = hit & -hit, 0
                for layer in reversed(layers[1:]):
                    step = g.adj[x.bit_length() - 1] & layer
                    x = step & -step
                    path |= x
                return path
            seen |= front
            layers.append(front)
    return 0


def _separates(g: Graph, terminals: int, removed: int, budget: int) -> bool:
    """Can at most ``budget`` more vertices, none a terminal, leave every
    terminal in its own component of G - removed?

    Some interior vertex of every joining path must go, so the search
    branches on those of a shortest one.  Paths with disjoint interiors
    each need a vertex of their own, so a branch that packs more than
    ``budget`` of them fails at once.
    """
    path = _joining_path(g, terminals, removed)
    if not path:
        return True
    if not budget:
        return False
    blocked = removed | path
    for _ in range(budget):
        more = _joining_path(g, terminals, blocked)
        if not more:
            break
        blocked |= more
    else:
        return False
    while path:
        low = path & -path
        path ^= low
        if _separates(g, terminals, removed | low, budget - 1):
            return True
    return False


def _separable(g: Graph, q: int, s: int) -> bool:
    """Is there an independent q-set I and a set S of at most s vertices
    outside I that leaves each vertex of I in its own component of G - S?

    S must hold W(I), so ``_separates`` is asked of each (I, W(I)) that
    ``_independent_sets`` yields for this s.
    """
    return any(_separates(g, i, w, s - w.bit_count()) for i, w in _independent_sets(g, q, s))


def exact_toughness(g: Graph, max_n: int = DEFAULT_MAX_N) -> ToughnessResult | None:
    """Globally minimal |S|/c(G-S) with a witness cut set.

    Returns None when no proper S disconnects the graph (complete graphs):
    the minimization domain is empty and we do not invent a value.
    Enumerates S by increasing size s, each class in ascending mask order.
    Within a class the best ratio is s over the largest c, so the search
    keeps only that c and the first mask reaching it, comparing s*best_c
    with best_s*c in integers.  Every c in class s is at most
    cap = min(n - s, alpha), so a class scan stops at the first mask reaching
    cap, and the search stops at the first class where s/cap can no longer
    beat the incumbent; cap never grows with s, so no later class can either.

    A class of more than ``CLASS_SCAN_MAX`` masks is not scanned.  With need
    the least c that strictly beats the incumbent (2 without one),
    ``_separable`` is asked for q = need, then need + 1, and so on while it
    says yes and q <= cap; the last yes is the class maximum, and a first no
    means the class cannot improve.  The answers are exact by the fact in
    the module docstring, as q <= n - s leaves room to pad a separator.  No
    prune skips a class or mask holding a strictly better ratio, so the
    witness is the first mask, in enumeration order, attaining the minimum.
    It lies in the last class that improved the incumbent; if questions
    decided that class, one scan from its first mask returns at the first
    mask reaching its maximum.
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
        if comb(n, s) <= CLASS_SCAN_MAX:
            c, mask = _class_max(g, s, cap)
        else:
            c, mask = 1, 0  # the empty set never disconnects G: 0 means not found yet
            q = s * best_c // best_s + 1 if best_c else 2
            while q <= cap and _separable(g, q, s):
                c, q = q, q + 1
        if c > 1 and (not best_c or s * best_c < best_s * c):
            best_s, best_c, best_mask = s, c, mask
    if not best_c:
        return None
    if not best_mask:
        best_mask = _class_max(g, best_s, best_c)[1]
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

    Unlike ``exact_toughness`` it prunes nothing: one ``count_components``
    call for each of the 2^n - 1 proper subsets, the cut count that the
    benchmark's traced self-test expects (1023 on Petersen).
    """
    if g.n > COMPONENT_BOUND_MAX_N:
        raise GraphTooLarge(
            f"cut enumeration on n={g.n} exceeds the cap {COMPONENT_BOUND_MAX_N}"
        )
    best = max((count_components(g, mask) for mask in range((1 << g.n) - 1)), default=0)
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
