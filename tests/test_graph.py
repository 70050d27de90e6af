import pytest
from hypothesis import example, given, strategies as st

from toughlab import (
    VertexSet,
    components,
    e_between,
    emit_graph6,
    from_edge_list,
    is_connected,
    parse_edge_list,
    parse_graph6,
    regularity,
)
from toughlab.errors import GraphError, PreconditionViolated
from toughlab.families import cycle, complete, kneser, petersen
from toughlab.graph import HALF_TABLE_MAX_N, _require_regular, count_components

from conftest import graphs, independent_sets_of_size


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def vertex_subsets(g):
    return st.integers(0, (1 << g.n) - 1).map(lambda bits: VertexSet(g.n, bits))


class TestFromEdgeList:
    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        assert g.m == 3
        assert g.adj == (0b110, 0b101, 0b011)

    def test_edgeless(self):
        g = from_edge_list(2, [])
        assert g.m == 0

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(4, [(0, 1), (0, 1)])
        assert g.m == 1

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError, match=r"edge \(0,3\) outside 0\.\.2"):
            from_edge_list(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop at vertex 1"):
            from_edge_list(3, [(1, 1)])

    def test_vertex_cap(self):
        with pytest.raises(GraphError, match=r"n=65 outside 0\.\.64"):
            from_edge_list(65, [])

    def test_symmetry_and_edge_count(self):
        g = petersen()
        for u in range(g.n):
            for v in range(g.n):
                assert g.adj[u] >> v & 1 == g.adj[v] >> u & 1
        assert g.m * 2 == sum(row.bit_count() for row in g.adj)


class TestGraph6:
    def test_triangle_golden(self):
        # hand-encoded: n=3 -> 'B'; upper triangle 111 padded -> 'w'
        assert emit_graph6(from_edge_list(3, [(0, 1), (1, 2), (2, 0)])) == "Bw"

    def test_petersen_round_trip(self):
        p = petersen()
        assert parse_graph6(emit_graph6(p)) == p

    def test_malformed(self):
        with pytest.raises(GraphError, match="character outside graph6 range"):
            parse_graph6("!!!")

    def test_header_stripped(self):
        p = petersen()
        assert parse_graph6(">>graph6<<" + emit_graph6(p)) == p

    def test_long_size_form(self):
        g = cycle(63)
        assert parse_graph6(emit_graph6(g)) == g

    def test_wrong_body_length(self):
        with pytest.raises(GraphError, match="body length 2 wrong for n=3"):
            parse_graph6("Bww")

    @given(graphs())
    def test_round_trip_random(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_nonzero_padding_rejected(self):
        # K3 needs 3 of the 6 body bits; 'w' pads with 000, '~' with 111
        assert parse_graph6("Bw") == complete(3)
        with pytest.raises(GraphError, match="padding"):
            parse_graph6("B~")

    def test_corpus_round_trip(self, corpus):
        for _, g in corpus:
            assert parse_graph6(emit_graph6(g)) == g


class TestEdgeList:
    def test_repeated_edge_rejected(self):
        with pytest.raises(GraphError, match="repeated edge 1 0"):
            parse_edge_list("3 2\n0 1\n1 0\n")


class TestComponents:
    def test_cut_vertex_on_path(self):
        g = path(3)
        comps = components(g, VertexSet.of(3, [1]))
        assert [tuple(c) for c in comps] == [(0,), (2,)]

    def test_connected_graph_single_component(self):
        p = petersen()
        comps = components(p, VertexSet(10))
        assert len(comps) == 1 and len(comps[0]) == 10

    def test_cycle6_two_cuts(self):
        comps = components(cycle(6), VertexSet.of(6, [0, 3]))
        assert [tuple(c) for c in comps] == [(1, 2), (4, 5)]

    def test_remove_everything(self):
        assert components(cycle(4), VertexSet(4, 0b1111)) == []

    def test_ordering_size_then_smallest_vertex(self):
        # components {4}, {0,1}, {2,3} of an edgeless tail plus two edges
        g = from_edge_list(5, [(0, 1), (2, 3)])
        comps = components(g, VertexSet(5))
        assert [tuple(c) for c in comps] == [(4,), (0, 1), (2, 3)]


def union_find_groups(g, keep):
    """Vertex sets of the components of G[keep], by union-find over edges."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges():
        if keep >> u & 1 and keep >> v & 1:
            parent[root(u)] = root(v)
    groups = {}
    for v in range(g.n):
        if keep >> v & 1:
            groups.setdefault(root(v), set()).add(v)
    return sorted(map(sorted, groups.values()))


def two_cycles(n):
    """The even and the odd vertices of 0..n-1, each a cycle: disconnected,
    and both cycles cross the halves of the neighbourhood table."""
    closing = [(0, range(0, n, 2)[-1]), (1, range(1, n, 2)[-1])]
    return from_edge_list(n, [(v, v + 2) for v in range(n - 2)] + closing)


class TestComponentKernel:
    @given(graphs(HALF_TABLE_MAX_N + 6).flatmap(
        lambda g: vertex_subsets(g).map(lambda removed: (g, removed))))
    @example((two_cycles(HALF_TABLE_MAX_N), VertexSet.of(HALF_TABLE_MAX_N, [0, 1, 12])))
    @example((two_cycles(HALF_TABLE_MAX_N + 1), VertexSet.of(HALF_TABLE_MAX_N + 1, [0, 1, 12])))
    def test_matches_union_find(self, case):
        # n up to 30 crosses the switch from the half tables to one
        # adjacency row per vertex at HALF_TABLE_MAX_N; the examples sit on
        # both sides of it on every run.
        g, removed = case
        expected = union_find_groups(g, removed.complement().bits)
        comps = components(g, removed)
        assert sorted(list(c) for c in comps) == expected
        assert count_components(g, removed.bits) == len(expected)
        for c in comps:
            assert len(union_find_groups(g, c.bits)) == 1
        assert is_connected(g) == (len(union_find_groups(g, (1 << g.n) - 1)) == 1)


class TestEdgeCounters:
    def test_triangle_degree(self):
        g = complete(3)
        assert e_between(g, VertexSet.of(3, [0]), VertexSet.of(3, [1, 2])) == 2

    def test_full_set_doubles_edges(self):
        g = complete(3)
        assert e_between(g, VertexSet(3, 0b111), VertexSet(3, 0b111)) == 6

    def test_independent_set_has_no_internal_edges(self):
        p = petersen()
        masks = independent_sets_of_size(p, 4)
        assert masks, "Petersen has independent sets of size 4"
        a = VertexSet(10, masks[0])
        assert e_between(p, a, a) == 0

    def test_self_pair_counts_inner_edges_twice(self):
        assert e_between(petersen(), VertexSet(10), VertexSet(10)) == 0
        path = VertexSet.of(5, [0, 1, 2])
        assert e_between(cycle(5), path, path) == 4

    @given(graphs())
    def test_sum_of_degrees(self, g):
        full = VertexSet(g.n, (1 << g.n) - 1)
        assert e_between(g, full, full) == 2 * g.m

    @given(graphs(8), st.data())
    def test_symmetry_and_additivity(self, g, data):
        a = data.draw(vertex_subsets(g))
        b = data.draw(vertex_subsets(g))
        assert e_between(g, a, b) == e_between(g, b, a)
        b1 = data.draw(vertex_subsets(g))
        b2 = b1.complement() & b
        b1 = b1 & b
        assert e_between(g, a, b) == e_between(g, a, b1) + e_between(g, a, b2)

    @given(graphs(8), st.data())
    def test_components_partition_with_no_cross_edges(self, g, data):
        removed = data.draw(vertex_subsets(g))
        comps = components(g, removed)
        seen = VertexSet(g.n)
        for c in comps:
            assert seen.isdisjoint(c)
            seen = seen | c
        assert seen == removed.complement()
        for i, ci in enumerate(comps):
            for cj in comps[i + 1:]:
                assert e_between(g, ci, cj) == 0


class TestRegularityConnectivity:
    def test_cycle_regular(self):
        assert regularity(cycle(7)) == 2

    def test_path_not_regular(self):
        assert regularity(path(3)) is None
        with pytest.raises(PreconditionViolated, match="vertex 1 has degree 2"):
            _require_regular(path(3))

    def test_kneser_degree(self):
        assert regularity(kneser(5, 2)) == 3

    def test_connectivity(self):
        assert is_connected(cycle(5))
        two_triangles = from_edge_list(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert not is_connected(two_triangles)
        assert is_connected(from_edge_list(1, []))
