"""Exact graph toughness t(G) = min |S| / c(G-S) over disconnecting sets S.

This is the one module that enumerates vertex cuts.  Two independent code
paths compute t: a pruned size-class search (the production route) and a
naive all-subsets oracle that cross-validates it in the tests and computes
the benchmark's golden frontier values (``bench/make_golden.py``).  One
loop over all 2^n - 1 proper subsets gives the largest component count over
all cuts for the spectral component-count ceiling.  Ratios are exact
``fractions.Fraction`` values; floats would make ties ambiguous.

The search rests on two facts about I, the least vertex of each of q
components of G-S.  I is independent, so c(G-S) <= min(n - s, alpha) when
|S| = s.  And S holds the forced set W(I) | L(I): W(I), the vertices with
two or more neighbours in I, and L(I), the neighbours of each vertex of I
below it, as such a neighbour outside S would lie in that component and come
before its least vertex.  So some s-set leaves at least q <= min(n - s,
alpha) components exactly when, for some independent q-set I, at most s
vertices outside I, its forced set among them, separate its vertices from
each other (pad the separator with vertices outside I; deleting a vertex
never merges components).  One kernel, ``_independent_sets``, enumerates
the independent sets for both uses: alpha, and the yes/no questions that
decide a large size class and find its witness, each answered by a bounded
branching search on shortest paths between vertices of I.  So no mask of
such a class is scanned.  Every enumerated mask costs exactly one
``count_components`` call, and alpha and the questions make none; the
benchmark counts cuts by counting those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import GraphTooLarge, PreconditionViolated
from .graph import Graph, VertexSet, _require_connected, count_components

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


def _independent_sets(g: Graph, q: int, s: int, fixed: int = 0,
                      allowed: int = -1) -> Iterator[tuple[int, int]]:
    """Every independent q-set I missing ``fixed`` whose forced set F =
    fixed | W(I) | L(I) has |F| <= s and lies inside ``allowed``, as
    bitmasks (I, F).  W(I) holds the vertices with two or more neighbours
    in I, and L(I) the neighbours of each vertex of I that lie below it.

    Take or drop the lowest candidate, so I grows in ascending order and
    each vertex taken adds its lower neighbours to L(I) at once; cut a
    branch once too few candidates remain to reach q, or once F leaves
    ``allowed`` or |F| > s, as F only grows with I.  The branches are
    walked depth first on an explicit stack: a frame taking a candidate is
    set aside with its remaining candidates, and the last vertex of I is
    yielded at once; q must be at least 1.
    """
    adj = g.adj
    forbidden = ~allowed
    last = q - 1
    stack = [(0, (1 << g.n) - 1 & ~fixed, 0, 0, fixed)]
    while stack:
        size, cand, chosen, once, forced = stack.pop()
        while cand and size + cand.bit_count() >= q:
            low = cand & -cand
            cand ^= low
            row = adj[low.bit_length() - 1]
            f = forced | once & row | row & (low - 1)
            if f & forbidden or f.bit_count() > s:
                continue
            if size == last:
                yield chosen | low, f
            else:
                stack.append((size, cand, chosen, once, forced))
                size, cand, chosen, once, forced = (
                    size + 1, cand & ~row, chosen | low, once | row, f)


def _independence_number(g: Graph) -> int:
    """alpha(G): the largest q for which ``_independent_sets`` finds an
    independent q-set, counting up from q = 0; with s = n and every vertex
    allowed its forced-set bound never cuts a branch."""
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
    adjacent vertex per layer.  Each layer is one step: the graph's lookup
    pair, the one the component walk reads, gives N(front).
    """
    w, low, lo, hi = g._halves
    free = ~removed & ((1 << g.n) - 1)
    rest = terminals
    while rest:
        front = rest & -rest
        rest ^= front
        layers = [front]
        unseen = free & ~front
        while front:
            front = (lo[front & low] | hi[front >> w]) & unseen
            hit = front & rest
            if hit:
                x, path = hit & -hit, 0
                for layer in reversed(layers[1:]):
                    step = g.adj[x.bit_length() - 1] & layer
                    x = step & -step
                    path |= x
                return path
            unseen ^= front
            layers.append(front)
    return 0


def _separates(g: Graph, terminals: int, removed: int, budget: int,
               allowed: int = -1) -> bool:
    """Can at most ``budget`` more vertices of ``allowed``, none a terminal,
    leave every terminal in its own component of G - removed?

    Some interior vertex of every joining path must go, so the search
    branches on the allowed ones of a shortest path.  Paths with disjoint
    interiors each need a vertex of their own, so a branch that packs more
    than ``budget`` of them fails at once; with no budget, any path fails it.
    """
    path = _joining_path(g, terminals, removed)
    if not path:
        return True
    blocked = removed | path
    for _ in range(budget):
        more = _joining_path(g, terminals, blocked)
        if not more:
            break
        blocked |= more
    else:
        return False
    path &= allowed
    while path:
        low = path & -path
        path ^= low
        if _separates(g, terminals, removed | low, budget - 1, allowed):
            return True
    return False


def _separable(g: Graph, q: int, s: int, fixed: int = 0, allowed: int = -1) -> bool:
    """Is there an s-set S with fixed <= S <= allowed that leaves at least q
    >= 2 components?  By default nothing is fixed and every vertex is
    allowed.

    Such an S exists exactly when some independent q-set I missing
    ``fixed`` is separated by a set of at most s allowed vertices outside I
    that holds its forced set fixed | W(I) | L(I), and at least s allowed
    vertices lie outside I, so that the separator pads to exactly s: the
    least vertices of q components of G - S form such an I, separated by S
    (the module docstring), and any separator pads.  So ``_separates`` is
    asked only of the pairs (I, forced set) that ``_independent_sets``
    yields for this s; an I whose forced set does not fit is the set of
    least vertices of no such S, and is dropped unasked.
    """
    allowed &= (1 << g.n) - 1
    for i, f in _independent_sets(g, q, s, fixed, allowed):
        if (allowed & ~i).bit_count() >= s and _separates(g, i, f, s - f.bit_count(), allowed):
            return True
    return False


def _first_mask(g: Graph, s: int, c: int) -> int:
    """The first s-set S, in ascending mask order, with c(G-S) >= c; one
    must exist.

    Ascending order compares the highest vertices first, so S is built from
    its highest vertex down: with the higher vertices of S in ``fixed`` and
    k vertices still to place, the next one is the least v for which some
    s-set S with fixed <= S <= fixed | {0..v} leaves c components.  That
    answer only turns from no to yes as v grows, so v walks down from just
    below the last vertex placed: it falls while the answer for
    fixed | {0..v-1} is yes, and the first no places v.  At v = k - 1
    nothing is asked, as the k vertices left can only be 0..k-1.  No v is
    asked about twice, so the walk asks at most n - v1 questions, v1 the
    lowest vertex of S, and at most s of them, the costly ones, answer no.
    """
    # Passing ``fixed`` to _separable changes no answer: an S inside
    # fixed | {0..v-1} that missed a placed vertex would come before the
    # witness in ascending order.  It stays because the placed vertices then
    # start out in the forced set and cut branches early; without it the
    # walk on rr(18,3,1), as the benchmark's seed 42 relabels it, makes 194
    # _separates calls instead of 92.
    fixed, v = 0, g.n
    for k in range(s, 0, -1):
        v -= 1
        while v >= k and _separable(g, c, s, fixed, fixed | (1 << v) - 1):
            v -= 1
        fixed |= 1 << v
    return fixed


def exact_toughness(g: Graph, max_n: int = DEFAULT_MAX_N) -> ToughnessResult | None:
    """Globally minimal |S|/c(G-S) with a witness cut set.

    Returns None, before any class, when alpha < 2: exactly the complete
    graphs (K1 included), which no S disconnects.  With alpha >= 2, V - I
    for a maximum independent set I is a cut, so t <= (n - alpha)/alpha,
    the seed.  The seed is a bound, not a witness.
    Enumerates S by increasing size s, each class in ascending mask order.
    Within a class the best ratio is s over the largest c, so the search
    keeps only that c and the first mask reaching it.  A class counts only
    if that c reaches need: at least 2, at least s*alpha/(n - alpha) (a tie
    with the seed counts), and, once there is an incumbent, more than
    s*best_c/best_s.  Every c in class s is at most cap = min(n - s, alpha),
    so a class scan stops at the first mask reaching cap, and the search
    stops at the first class where need > cap; cap never grows with s, so
    no later class can count either.

    A class of more than ``CLASS_SCAN_MAX`` masks is not scanned.
    ``_separable`` is asked for q = need, then need + 1, and so on while it
    says yes and q <= cap; the last yes is the class maximum, and a first no
    means the class does not count.  The answers are exact by the fact in
    the module docstring, as q <= n - s leaves room to pad a separator.  No
    prune skips a class or mask holding a ratio at most the seed and below
    the incumbent, so the witness is the first mask, in enumeration order,
    attaining the minimum.  It lies in the last class that counted; if
    questions decided that class, ``_first_mask`` finds it by questions too.
    """
    if g.n > max_n:
        raise GraphTooLarge(
            f"exact toughness on n={g.n} exceeds the cap {max_n}; "
            "pass a larger max_n (analyze --force) to search anyway"
        )
    _require_connected(g, "toughness")
    n = g.n
    alpha = _independence_number(g)
    if alpha < 2:
        return None
    best_s = best_c = best_mask = 0
    for s in range(0, n - 1):
        cap = min(n - s, alpha)
        need = max(2, -(-s * alpha // (n - alpha)))
        if best_c:
            need = max(need, s * best_c // best_s + 1)
        if need > cap:
            break
        if comb(n, s) <= CLASS_SCAN_MAX:
            c, mask = _class_max(g, s, cap)
        else:
            c, mask = need - 1, 0  # the empty set never disconnects G: 0 means not found yet
            while c < cap and _separable(g, c + 1, s):
                c += 1
        if c >= need:
            best_s, best_c, best_mask = s, c, mask
    if not best_mask:
        best_mask = _first_mask(g, best_s, best_c)
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
