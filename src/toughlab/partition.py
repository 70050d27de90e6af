"""Constructive combinatorics: the subset-sum index lemma and the two-block
component partition.

``index_subset`` realizes the inductive proof of the lemma: positive integers
x_1..x_c with sum at most 2c-1 hit every target between 0 and the sum via a
subset.  ``claim2_partition(graph, cut)`` uses it to split the c components
of G - cut into two blocks X, Y with no edges between them and at least c
vertices each; it finds the components itself, so they are sorted, disjoint
and nonempty by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionViolated
from .graph import Graph, VertexSet, components, e_between


@dataclass(frozen=True)
class PartitionWitness:
    x: VertexSet
    y: VertexSet
    size_x: int
    size_y: int
    cross_edges: int

    def to_json_dict(self) -> dict:
        return {
            "X": list(self.x),
            "Y": list(self.y),
            "size_x": self.size_x,
            "size_y": self.size_y,
            "cross_edges": self.cross_edges,
        }


def index_subset(sizes: Sequence[int], ell: int) -> frozenset[int]:
    """Indices (0-based, in the caller's order) whose sizes sum to ``ell``.

    Requires every entry positive and sum(sizes) <= 2*len(sizes) - 1; under
    that budget every target 0 <= ell <= sum is reachable, and the inductive
    choice below is deterministic.
    """
    c = len(sizes)
    if c == 0:
        raise PreconditionViolated("sizes must be nonempty")
    if any(x < 1 for x in sizes):
        raise PreconditionViolated(f"all sizes must be positive, got {list(sizes)}")
    total = sum(sizes)
    if total > 2 * c - 1:
        raise PreconditionViolated(f"sum {total} exceeds budget {2 * c - 1} for c={c}")
    if not 0 <= ell <= total:
        raise PreconditionViolated(f"target {ell} outside 0..{total}")
    order = sorted(range(c), key=lambda i: sizes[i])
    xs = [sizes[i] for i in order]

    def rec(k: int, target: int) -> list[int]:
        # k entries xs[0..k-1], ascending, sum <= 2k-1; target in [0, sum].
        if k == 1:
            return [] if target == 0 else [0]
        if target <= k - 1:
            return rec(k - 1, target)
        return rec(k - 1, target - xs[k - 1]) + [k - 1]

    chosen = rec(c, ell)
    result = frozenset(order[i] for i in chosen)
    assert sum(sizes[i] for i in result) == ell
    return result


def _trim_sizes(sizes: list[int], budget: int) -> list[int]:
    # Decrement the currently largest entry (ties to the lowest index) while
    # the total exceeds the budget; every entry stays >= 1.
    trimmed = list(sizes)
    total = sum(trimmed)
    while total > budget:
        i = max(range(len(trimmed)), key=lambda j: (trimmed[j], -j))
        trimmed[i] -= 1
        total -= 1
    return trimmed


def claim2_partition(graph: Graph, cut: VertexSet) -> PartitionWitness:
    """Split the components of G - ``cut`` into blocks X, Y with e(X,Y)=0 and
    |X|,|Y| >= c.

    Needs c >= 2 components holding at least 2c+1 vertices in total.  The
    cross-edge count is measured against ``graph`` rather than trusted.
    """
    comps = components(graph, cut)
    c = len(comps)
    if c < 2:
        raise PreconditionViolated("need at least two components")
    sizes = [len(v) for v in comps]
    total = sum(sizes)
    if total < 2 * c + 1:
        raise PreconditionViolated(f"need at least {2 * c + 1} vertices, got {total}")
    n = graph.n
    largest = sizes[-1]
    if largest >= c:
        # The components below the largest need c vertices; any graph may miss it.
        if sum(sizes[:-1]) < c:
            raise PreconditionViolated(
                f"components below the largest total {sum(sizes[:-1])} < c={c}"
            )
        x = VertexSet(n)
        for v in comps[:-1]:
            x = x | v
        y = comps[-1]
    else:
        # largest <= c-1; total >= 2c+1 then forces largest >= 3.
        ell = c - largest
        idx = index_subset(_trim_sizes(sizes[:-1], 2 * c - 3), ell)
        assert 2 * c - 3 - ell >= c
        x = comps[-1]
        y = VertexSet(n)
        for i, v in enumerate(comps[:-1]):
            if i in idx:
                x = x | v
            else:
                y = y | v
    size_x, size_y = len(x), len(y)
    if size_x < c or size_y < c:
        raise PreconditionViolated(
            f"construction produced blocks of sizes {size_x}, {size_y} < c={c}"
        )
    return PartitionWitness(x, y, size_x, size_y, e_between(graph, x, y))
