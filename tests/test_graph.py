import pytest
from hypothesis import example, given, strategies as st

from toughlab import (
    VertexSet,
    components,
    e_between,
    emit_edge_list,
    emit_graph6,
    from_edge_list,
    is_connected,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    regularity,
)
from toughlab.errors import GraphError, PreconditionViolated
from toughlab.families import cycle, complete, kneser, petersen
from toughlab.graph import MAX_VERTICES, _require_regular, count_components
from toughlab.toughness import toughness_of_cut

from conftest import graphs, independent_sets_of_size, two_cycles


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

    def test_edge_order_leaves_value_unchanged(self):
        # Each graph builds its own half neighbourhood tables; equality,
        # hashing, repr and graph6 see only n, adj and m.
        edges = two_cycles(24).edges()
        g, h = from_edge_list(24, edges), from_edge_list(24, edges[::-1])
        assert g == h
        assert hash(g) == hash(h)
        assert repr(g) == repr(h) == f"Graph(n=24, adj={g.adj!r}, m=24)"
        assert emit_graph6(g) == emit_graph6(h)


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
    @example(cycle(62))  # the largest one-character size
    @example(from_edge_list(64, []))  # the vertex cap, in the long size form
    def test_round_trip_random(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("line, message", [
        ("", "empty graph6 line"),
        (">>graph6<<", "empty graph6 line"),
        ("~~", "36-bit size form exceeds the vertex cap"),
        ("~?", "truncated graph6 size field"),
        ("~?A?", "graph6 line encodes n=128 > 64"),
    ], ids=["empty", "header_only", "36_bit_size", "truncated_size", "long_size_above_cap"])
    def test_bad_line_rejected(self, line, message):
        with pytest.raises(GraphError, match=message):
            parse_graph6(line)

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

    @pytest.mark.parametrize("text, message", [
        ("", "empty edge-list input"),
        (" \n\n", "empty edge-list input"),
        ("3\n", "bad header line '3', expected 'n m'"),
        ("3 x\n", "non-integer header '3 x'"),
        ("3 2\n0 1\n", "expected 2 edge lines, got 1"),
        ("3 1\n0 1 2\n", "bad edge line '0 1 2'"),
        ("3 1\n0 x\n", "non-integer edge line '0 x'"),
    ], ids=["empty", "blank", "bad_header", "non_integer_header", "wrong_line_count",
            "bad_edge_line", "non_integer_edge_line"])
    def test_bad_input_rejected(self, text, message):
        with pytest.raises(GraphError, match=message):
            parse_edge_list(text)

    @given(graphs())
    @example(from_edge_list(0, []))
    @example(from_edge_list(64, [(0, 63)]))
    def test_round_trip_random(self, g):
        assert parse_edge_list(emit_edge_list(g)) == g


class TestParseGraph:
    def test_detects_the_format(self):
        p = petersen()
        assert parse_graph(emit_graph6(p) + "\n") == p
        assert parse_graph(emit_edge_list(p)) == p
        # An edge list's header may follow blank lines.
        assert parse_graph("\n\n3 1\n0 2\n") == from_edge_list(3, [(0, 2)])

    def test_empty_input_is_an_empty_graph6_line(self):
        with pytest.raises(GraphError, match="empty graph6 line"):
            parse_graph(" \n")


class TestVertexSet:
    @pytest.mark.parametrize("make, error, message", [
        (lambda: VertexSet(65), GraphError, r"ambient size 65 outside 0\.\.64"),
        (lambda: VertexSet(3, 8), ValueError, r"bits 0x8 not contained in 0\.\.2"),
        (lambda: VertexSet.of(3, [3]), GraphError, r"vertex 3 outside 0\.\.2"),
        (lambda: VertexSet(2) | VertexSet(3), ValueError, "ambient size mismatch: 2 vs 3"),
    ], ids=["ambient_above_cap", "bits_outside", "vertex_outside", "union_across_sizes"])
    def test_bad_construction_rejected(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    @pytest.mark.parametrize("check, message", [
        (components, "removed set has wrong ambient size"),
        (lambda g, s: e_between(g, s, VertexSet(5)), "vertex set has wrong ambient size"),
        (lambda g, s: e_between(g, VertexSet(5), s), "vertex set has wrong ambient size"),
        (toughness_of_cut, "cut set has wrong ambient size"),
    ], ids=["components", "e_between_a", "e_between_b", "toughness_of_cut"])
    def test_wrong_ambient_size_rejected(self, check, message):
        with pytest.raises(ValueError, match=message):
            check(cycle(5), VertexSet.of(6, [0]))


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


class TestComponentKernel:
    @given(graphs(30).flatmap(
        lambda g: vertex_subsets(g).map(lambda removed: (g, removed))))
    @example((two_cycles(24), VertexSet.of(24, [0, 1, 12])))
    @example((two_cycles(25), VertexSet.of(25, [0, 1, 12])))
    @example((two_cycles(23), VertexSet.of(23, [0, 20])))
    @example((two_cycles(24), VertexSet.of(24, [1, 21])))
    @example((two_cycles(27), VertexSet.of(27, [0, 24])))
    @example((two_cycles(28), VertexSet.of(28, [1, 25])))
    @example((two_cycles(29), VertexSet.of(29, [0, 26])))
    @example((from_edge_list(0, []), VertexSet(0)))
    @example((two_cycles(MAX_VERTICES), VertexSet.of(MAX_VERTICES, [0, 1, 61])))
    def test_matches_union_find(self, case):
        # The examples run on every draw: an even and an odd n, and n at the
        # vertex cap, where removing 1 and 61 leaves the top vertex, 63, as a
        # component of its own.  At n = 23, 24, 27 and 28 the removals leave
        # the top vertex of the high half (22, 23, 26, 27) alone; 27 and 28
        # are the largest odd and even n with half tables, and n = 29 has
        # none, so it walks the same case one vertex at a time.  n = 0 has
        # empty tables and no component.
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

    @given(graphs(), st.data())
    def test_matches_pair_count(self, g, data):
        # A and B are drawn independently, so they may overlap.
        a = data.draw(vertex_subsets(g))
        b = data.draw(vertex_subsets(g))
        pairs = sum(a.bits >> u & b.bits >> v & g.adj[u] >> v & 1
                    for u in range(g.n) for v in range(g.n))
        assert e_between(g, a, b) == pairs

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

    def test_empty_graph_regular_of_degree_0(self):
        assert regularity(from_edge_list(0, [])) == 0

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
