from itertools import combinations

import pytest

from toughlab import (
    claim2_partition,
    components,
    e_between,
    index_subset,
)
from toughlab.errors import PreconditionViolated
from toughlab.graph import VertexSet, from_edge_list


def subset_sums(xs):
    """Brute-force oracle: every value reachable as a subset sum of xs."""
    reachable = {0}
    for x in xs:
        reachable |= {r + x for r in reachable}
    return reachable


def ascending_vectors(c, total_max):
    """All ascending positive integer vectors of length c with sum <= total_max."""
    def rec(prefix, low, remaining):
        if len(prefix) == c:
            yield tuple(prefix)
            return
        slots_left = c - len(prefix)
        for x in range(low, remaining - (slots_left - 1) + 1):
            yield from rec(prefix + [x], x, remaining - x)
    yield from rec([], 1, total_max)


def clique_components(sizes):
    """Disjoint cliques with the given sizes, plus their component list."""
    n = sum(sizes)
    edges = []
    start = 0
    for s in sizes:
        edges.extend(combinations(range(start, start + s), 2))
        start += s
    g = from_edge_list(n, edges)
    comps = components(g, VertexSet(n))
    assert [len(v) for v in comps] == sorted(sizes)
    return g, comps


class TestIndexSubset:
    def test_empty_target(self):
        assert index_subset([1, 1, 1], 0) == frozenset()

    def test_traced_example(self):
        # induction: target 4 drops the last entry, then the middle one
        result = index_subset([1, 2, 2], 4)
        assert result == frozenset({1, 2})
        assert sum([1, 2, 2][i] for i in result) == 4

    def test_two_singletons(self):
        result = index_subset([1, 1, 3], 2)
        assert result == frozenset({0, 1})

    def test_unsorted_input_reports_original_positions(self):
        sizes = [2, 1, 2]
        result = index_subset(sizes, 3)
        assert sum(sizes[i] for i in result) == 3

    def test_precondition_sum_too_large(self):
        with pytest.raises(PreconditionViolated):
            index_subset([2, 2, 2], 3)

    def test_precondition_target_out_of_range(self):
        with pytest.raises(PreconditionViolated):
            index_subset([1, 1, 1], 4)
        with pytest.raises(PreconditionViolated):
            index_subset([1, 1, 1], -1)

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(PreconditionViolated):
            index_subset([0, 1], 1)

    @pytest.mark.parametrize("c", range(1, 7))
    def test_exhaustive_against_oracle(self, c):
        for xs in ascending_vectors(c, 2 * c - 1):
            sums = subset_sums(xs)
            for ell in range(sum(xs) + 1):
                assert ell in sums  # the lemma's promise, per the oracle
                chosen = index_subset(list(xs), ell)
                assert sum(xs[i] for i in chosen) == ell

    @pytest.mark.parametrize("c", range(1, 7))
    def test_sharpness_one_past_the_budget(self, c):
        # with sum = 2c some target must be unreachable: all-twos misses odd
        infeasible = [
            (xs, ell)
            for xs in ascending_vectors(c, 2 * c)
            if sum(xs) == 2 * c
            for ell in range(sum(xs) + 1)
            if ell not in subset_sums(xs)
        ]
        assert infeasible
        assert ((2,) * c, 1) in infeasible


class TestClaim2Partition:
    def test_case_a(self):
        g, comps = clique_components([1, 3, 3])
        witness = claim2_partition(g, VertexSet(g.n))
        assert witness.size_x == 4 and witness.size_y == 3
        assert witness.y == comps[-1]
        assert witness.cross_edges == 0

    def test_case_c_traced(self):
        # trim [2,2,2] to [1,2,2]; target 1 selects the first block
        g, comps = clique_components([2, 2, 2, 3])
        witness = claim2_partition(g, VertexSet(g.n))
        assert witness.size_x == 5 and witness.size_y == 4
        assert witness.x == comps[0] | comps[3]
        assert witness.cross_edges == 0

    def test_case_b(self):
        # c=4, largest=3 <= 3, sum of rest 6 <= 2c-3? no; use [1,1,3,4]:
        # largest=4 >= c -> case a.  [1,2,3,3]: largest 3 <= 3, rest sums 6 > 5.
        # smallest case-b instance needs rest <= 2c-3: c=5, sizes [1,1,1,4,4]
        g, comps = clique_components([1, 1, 1, 4, 4])
        witness = claim2_partition(g, VertexSet(g.n))
        assert witness.size_x >= 5 and witness.size_y >= 5
        assert witness.cross_edges == 0

    def test_too_few_vertices(self):
        g, comps = clique_components([1, 1, 1])
        with pytest.raises(PreconditionViolated):
            claim2_partition(g, VertexSet(g.n))

    def test_claim1_failure_refused(self):
        g, comps = clique_components([1, 1, 9])
        with pytest.raises(PreconditionViolated):
            claim2_partition(g, VertexSet(g.n))

    def test_single_component_refused(self):
        g, comps = clique_components([5])
        with pytest.raises(PreconditionViolated):
            claim2_partition(g, VertexSet(g.n))

    @pytest.mark.parametrize("c", range(2, 7))
    def test_exhaustive_small_vectors(self, c):
        checked = 0
        for sizes in ascending_vectors(c, 20):
            if sum(sizes) < 2 * c + 1:
                continue
            if sizes[-1] >= c and sum(sizes[:-1]) < c:
                continue  # outside the stated preconditions
            g, comps = clique_components(list(sizes))
            witness = claim2_partition(g, VertexSet(g.n))
            union = witness.x | witness.y
            everything = VertexSet(g.n, (1 << g.n) - 1)
            assert witness.x.isdisjoint(witness.y)
            assert union == everything
            assert witness.size_x >= c and witness.size_y >= c
            assert e_between(g, witness.x, witness.y) == 0
            assert witness.cross_edges == 0
            checked += 1
        assert checked > 0
