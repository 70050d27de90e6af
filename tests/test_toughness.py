from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toughlab import (
    VertexSet,
    exact_toughness,
    max_components_over_cuts,
    naive_toughness,
    toughness_of_cut,
)
from toughlab import toughness
from toughlab.errors import GraphTooLarge, PreconditionViolated
from toughlab.families import (
    build,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    default_corpus,
    hypercube,
    parse_family_spec,
    petersen,
    random_regular,
)
from toughlab.graph import (
    HALF_TABLE_MAX_N,
    components,
    count_components,
    from_edge_list,
    is_connected,
)
from toughlab.toughness import (
    CLASS_SCAN_MAX,
    _first_mask,
    _independence_number,
    _subsets_of_size,
)

from conftest import count_calls, graphs, independence_number, independent_sets_of_size, relabel


def test_complete_graph_undefined():
    assert exact_toughness(complete(5)) is None
    assert naive_toughness(complete(5)) is None


def test_cycle5():
    result = exact_toughness(cycle(5))
    assert result.t == Fraction(1)
    assert result.components == 2
    assert toughness_of_cut(cycle(5), result.witness) == Fraction(1)


def test_petersen():
    result = exact_toughness(petersen())
    assert result.t == Fraction(4, 3)
    assert result.components == 3
    assert len(result.witness) == 4


def test_complete_bipartite():
    result = exact_toughness(complete_bipartite(3, 3))
    assert result.t == Fraction(1)
    assert result.components == 3
    # the witness is one whole side
    assert len(result.witness) == 3


def test_disconnected_rejected():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionViolated, match="connected graphs only"):
        exact_toughness(g)


def test_size_cap():
    with pytest.raises(GraphTooLarge):
        exact_toughness(cycle(12), max_n=10)


@pytest.mark.parametrize(
    "spec, t, witness, comps",
    [
        ("petersen", Fraction(4, 3), (0, 1, 3, 6), 3),
        ("hypercube 3", Fraction(1), (0, 3, 5, 6), 4),
        ("complete_bipartite 3 3", Fraction(1), (0, 1, 2), 3),
        ("random_regular 10 3 7", Fraction(4, 3), (0, 2, 3, 7), 3),
        ("random_regular 16 3 1", Fraction(7, 6), (1, 6, 7, 9, 10, 13, 15), 6),
        ("circulant 12 1 5", Fraction(1), (0, 2, 4, 6, 8, 10), 6),
        # The kernel stops at the first least vertex whose prefix {v < min I}
        # no longer fits the class, after that vertex's own sets; a stop that
        # skipped them too found {8, 9, 10, 11, 12, 13}, with the same t and c.
        ("random_regular 14 4 11", Fraction(3, 2), (0, 9, 10, 11, 12, 13), 4),
    ],
)
def test_pinned_witnesses(spec, t, witness, comps):
    # The witness is the first cut in enumeration order (size, then
    # ascending mask) that attains t; these values fix that order.
    result = exact_toughness(build(parse_family_spec(spec)))
    assert (result.t, tuple(result.witness), result.components) == (
        t, witness, comps)


def test_toughness_of_cut_examples():
    assert toughness_of_cut(cycle(6), VertexSet.of(6, [0, 3])) == Fraction(1)
    assert toughness_of_cut(cycle(6), VertexSet.of(6, [0])) is None
    with pytest.raises(PreconditionViolated, match="proper subset"):
        toughness_of_cut(cycle(6), VertexSet(6, (1 << 6) - 1))


@pytest.mark.parametrize(
    "g",
    [cycle(5), cycle(8), petersen(), complete_bipartite(4, 4), hypercube(3),
     random_regular(10, 3, 7), complete(1)],
)
def test_pruned_matches_naive_oracle(g):
    # The whole result: t, the component count and the witness, which both
    # take as the first mask of the least size attaining t.  K1 is
    # connected, and no proper cut disconnects it: None from both.
    result = exact_toughness(g)
    assert result == naive_toughness(g)
    assert result is None or toughness_of_cut(g, result.witness) == result.t


def test_witness_determinism():
    a = exact_toughness(petersen())
    b = exact_toughness(petersen())
    assert a == b


@pytest.mark.parametrize(
    "scan, g, calls",
    [
        # The benchmark's traced self-test counts these two on Petersen.
        (exact_toughness, petersen(), 638),
        (max_components_over_cuts, petersen(), 1023),
        (max_components_over_cuts, cycle(6), 63),
        (max_components_over_cuts, from_edge_list(3, []), 7),
        # The oracle prunes nothing: every proper subset once.
        (naive_toughness, petersen(), 1023),
        # Without the alpha prune and the in-class stop: 6,476 and 39,203.
        # Both scan classes 0-2 whole, 1 + n + C(n, 2) masks, and questions
        # decide the rest; the seed (n - alpha)/alpha = 1 is hypercube 4's t,
        # and questions find its witness in class 8.
        (exact_toughness, random_regular(14, 3, 46), 106),
        (exact_toughness, hypercube(4), 137),
        # alpha = 1: t is undefined, and no class is scanned.
        (exact_toughness, complete(6), 0),
    ],
    ids=["petersen", "petersen_all_cuts", "cycle_6_all_cuts", "edgeless_3_all_cuts",
         "petersen_oracle", "rr_14_3_46", "hypercube_4", "complete_6"],
)
def test_one_count_components_call_per_mask(scan, g, calls, monkeypatch):
    # The tracer counts enumerated masks by wrapping the module-global
    # count_components, so every mask must go through it exactly once and
    # nothing else in the scan (alpha, the connectivity check) may call it.
    seen = count_calls(monkeypatch, "count_components")
    scan(g)
    assert seen[0] == calls


# The corpus graphs up to n = 14, and four n = 16 graphs with many large
# classes, on which the all-subsets oracle takes 0.04-0.13 s each.  The
# cocktail-party circulant answers no in all seven of its large classes and
# takes its witness from class 14, which is scanned.
WITNESS_GRAPHS = {
    spec.label().replace(" ", "_"): g
    for spec, g in ((spec, build(spec)) for spec in default_corpus())
    if g.n <= 14 and is_connected(g)
} | {
    spec.replace(" ", "_"): build(parse_family_spec(spec))
    for spec in ("hypercube 4", "circulant 16 1 2 3 4 5 6 7", "circulant 16 1 4",
                 "random_regular 16 5 1")
}


# Separation questions each witness graph asks, for the class maxima and,
# when questions decided the witness class, for its witness: only classes of
# more than CLASS_SCAN_MAX = C(10, 5) = 252 masks ask any, which first
# happens at n = 11, in class 4 of C(11, 4) = 330 masks.
QUESTIONS = {
    "cycle_11": 1,
    "cycle_12": 2,
    "circulant_12_1_5": 14,
    "random_regular_12_3_7": 1,
    "random_regular_12_4_8": 15,
    "random_regular_12_5_9": 14,
    "random_regular_14_3_10": 3,
    "random_regular_14_4_11": 20,
    "random_regular_12_3_19": 16,
    "random_regular_12_4_20": 16,
    "random_regular_14_3_22": 16,
    "random_regular_14_4_23": 19,
    "random_regular_12_3_31": 14,
    "random_regular_12_4_32": 14,
    "random_regular_12_5_33": 16,
    "random_regular_14_3_34": 18,
    "random_regular_14_4_35": 20,
    "random_regular_14_5_36": 18,
    "random_regular_12_3_43": 16,
    "random_regular_12_4_44": 16,
    "random_regular_14_3_46": 2,
    "random_regular_14_4_47": 20,
    "hypercube_4": 21,
    "circulant_16_1_2_3_4_5_6_7": 11,
    "circulant_16_1_4": 22,
    "random_regular_16_5_1": 23,
}


@pytest.mark.parametrize("g", WITNESS_GRAPHS.values(), ids=WITNESS_GRAPHS.keys())
def test_alpha_prunes_keep_the_witness(g, request, monkeypatch):
    # The pinned analyze digests and the benchmark's witness check depend on
    # the exact first-mask witness, not only on t and c.
    asked = count_calls(monkeypatch, "_separable")
    assert exact_toughness(g) == naive_toughness(g)
    assert asked[0] == QUESTIONS.get(request.node.callspec.id, 0)


@settings(deadline=None)
@given(graphs(11).filter(is_connected))
@example(complete(1))
@example(complete(7))
# t = 1 both at {0, 2, 3}, which leaves 3 components, and at {3, 5}, which
# leaves 2: the smaller cut is the witness, though its mask is the larger.
@example(from_edge_list(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
                            (2, 4), (2, 5), (3, 4), (3, 6), (5, 6)]))
def test_search_matches_reference_scan(g):
    assert exact_toughness(g) == naive_toughness(g)


@pytest.mark.parametrize(
    "n, d, seed, t, c, witness, calls, questions, searches",
    [
        (18, 3, 42, Fraction(7, 6), 6, 203785, 172, 28, 541),
        (20, 3, 42, Fraction(9, 8), 8, 766002, 211, 31, 571),
        (18, 4, 42, Fraction(3, 2), 4, 5072, 172, 23, 304),
        (18, 3, 7, Fraction(7, 6), 6, 142612, 172, 27, 443),
        (20, 3, 7, Fraction(9, 8), 8, 986629, 211, 31, 831),
        (18, 4, 7, Fraction(3, 2), 4, 70220, 172, 25, 292),
    ],
    ids=["rr18_3_seed42", "rr20_3_seed42", "rr18_4_seed42",
         "rr18_3_seed7", "rr20_3_seed7", "rr18_4_seed7"],
)
def test_frontier_inputs_keep_the_witness(n, d, seed, t, c, witness, calls, questions,
                                         searches, monkeypatch):
    # The benchmark's frontier graphs exactly as it writes them: after the
    # relabelling, class maxima come late in their classes, so these runs
    # take the question path for the class maxima and the witness.  The mask
    # count is the benchmark's traced toughness.masks for the graph: the
    # small classes, scanned whole, that the seed does not rule out.  The
    # question count covers the class maxima and the witness walk, and the
    # search count every ``_separates`` call the questions make, recursive
    # ones included, which the module global routes through the counter.
    # Each call finds its joining paths by BFS, so a layer step that reached
    # a different neighbourhood would change the branching and this count,
    # and so would a forced set W(I) | L(I) | {v < min I} that lost a part:
    # without L(I) the questions ask of every I, not only of least-vertex
    # transversals, and on these graphs make 3.2 to 5.5 times as many calls;
    # without the prefix {v < min I}, 1.2 to 1.4 times as many.
    seen = count_calls(monkeypatch, "count_components")
    asked = count_calls(monkeypatch, "_separable")
    searched = count_calls(monkeypatch, "_separates")
    result = exact_toughness(relabel(random_regular(n, d, 1), seed))
    assert (result.t, result.components, result.witness.bits) == (t, c, witness)
    assert seen[0] == calls
    assert asked[0] == questions
    assert searched[0] == searches


def _w(g, terminals):
    """W(I): the vertices with two or more neighbours in I."""
    return sum(1 << v for v in range(g.n) if (g.adj[v] & terminals).bit_count() >= 2)


def _lower(g, terminals):
    """L(I): the vertices adjacent to some vertex of I above them."""
    return sum(1 << v for v in range(g.n) if (g.adj[v] & terminals) >> v + 1)


def _forced(g, terminals, fixed=0):
    """fixed | W(I) | L(I) | {v < min I}: what every S whose q least
    components have the least vertices I must hold."""
    return fixed | _w(g, terminals) | _lower(g, terminals) | (terminals & -terminals) - 1


def _separated(g, terminals, removed):
    """Does every component of G - removed hold at most one terminal?"""
    return all((comp.bits & terminals).bit_count() <= 1
               for comp in components(g, VertexSet(g.n, removed)))


def _reference_joining_path(g, terminals, removed):
    """``_joining_path`` written out over Python sets, one adjacency row per
    vertex: BFS from the lowest terminal not yet tried until a layer holds a
    later terminal, then trace back from the lowest such terminal through
    the lowest adjacent vertex of each earlier layer."""
    free = {v for v in range(g.n) if not removed >> v & 1}
    rest = sorted(v for v in range(g.n) if terminals >> v & 1)
    while rest:
        start = rest.pop(0)
        layers, seen = [{start}], {start}
        while layers[-1]:
            layer = {u for v in layers[-1] for u in free - seen if g.adj[v] >> u & 1}
            hits = layer.intersection(rest)
            if hits:
                x, path = min(hits), 0
                for earlier in reversed(layers[1:]):
                    x = min(u for u in earlier if g.adj[x] >> u & 1)
                    path |= 1 << x
                return path
            seen |= layer
            layers.append(layer)
    return 0


@st.composite
def _path_questions(draw):
    """A random graph with up to 30 vertices, an independent terminal set and
    a removed set that misses it.  The edge and removal densities are drawn
    too, so that most questions have a joining path, many with ties to
    break in the trace back."""
    n = draw(st.integers(1, 30))
    rng = draw(st.randoms(use_true_random=False))
    density, removal = rng.uniform(0.05, 0.4), rng.uniform(0, 0.4)
    g = from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    terminals = 0
    for v in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6)):
        if not (g.adj[v] | 1 << v) & terminals:
            terminals |= 1 << v
    removed = sum(1 << v for v in range(n)
                  if not terminals >> v & 1 and rng.random() < removal)
    return g, terminals, removed


@settings(deadline=None)
@given(_path_questions())
# One n each side of HALF_TABLE_MAX_N = 28, and the vertex cap, n = 64.  At
# n = 28 the path runs from the low table half into the high one; at n = 29
# and 64 each BFS layer reads N(S) row by row.
@example((cycle(28), 1 | 1 << 14, 1 << 1))
@example((cycle(29), 1 | 1 << 14, 1 << 28))
@example((random_regular(64, 3, 1), 1 | 1 << 63, 0))
def test_joining_path_matches_reference_bfs(case):
    g, terminals, removed = case
    assert toughness._joining_path(g, terminals, removed) == \
        _reference_joining_path(g, terminals, removed)


@st.composite
def _question_graphs(draw):
    """A random graph on 8 to 12 vertices with edge density 0.15 to 0.4.

    Sparser graphs rarely join two terminals at all, and denser ones put
    most joining vertices into W(I), which the question removes; in 100
    draws about 60% of the questions keep a joining path, against 4-8% for
    ``graphs(12)``, whose short edge lists leave most vertices isolated."""
    n = draw(st.integers(8, 12))
    rng = draw(st.randoms(use_true_random=False))
    density = rng.uniform(0.15, 0.4)
    return from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < density])


@settings(deadline=None)
@given(_question_graphs(), st.integers(2, 4), st.data())
def test_separation_search_matches_brute_force(g, q, data):
    sets = independent_sets_of_size(g, q)
    assume(sets)
    terminals = data.draw(st.sampled_from(sets))
    outside = ~terminals & (1 << g.n) - 1
    least, removed = g.n, outside
    while True:  # every subset of V - I, down to the empty set
        if removed.bit_count() < least and _separated(g, terminals, removed):
            least = removed.bit_count()
        if not removed:
            break
        removed = (removed - 1) & outside
    w = _w(g, terminals)
    assert least >= w.bit_count()
    # Isolated vertices lie on no path, so padding G with them past
    # ``HALF_TABLE_MAX_N`` = 28, where each BFS layer reads N(S) row by row
    # instead of from half tables, changes no answer.
    padded = from_edge_list(30, g.edges())
    assert padded.n > HALF_TABLE_MAX_N
    for s in range(g.n - q + 1):
        budget = s - w.bit_count()
        got = budget >= 0 and toughness._separates(g, terminals, w, budget)
        assert got == (least <= s), s
        assert (budget >= 0 and toughness._separates(padded, terminals, w, budget)) == got, s


@settings(deadline=None)
@given(_question_graphs())
def test_separable_decides_the_class_maximum(g):
    # For q <= min(n - s, alpha) the question is exactly "does some s-set S
    # leave at least q components?".
    alpha = independence_number(g)
    for s in range(g.n):
        best = max(count_components(g, m) for m in _subsets_of_size(g.n, s))
        for q in range(2, min(g.n - s, alpha) + 1):
            assert toughness._separable(g, q, s) == (best >= q), (s, q)


@settings(deadline=None)
@given(_question_graphs())
@example(petersen())
def test_least_vertex_transversals_force_their_lower_neighbours(g):
    # The fact the questions rest on: for every cut S and every q >= 2, the
    # least vertices of the q components of G - S whose least vertices are
    # smallest form an independent I whose forced set W(I) | L(I) |
    # {v < min I} lies inside S, and so ``_independent_sets`` yields that I
    # for s = |S| with its forced set inside S.  A vertex below min I
    # outside S would lie in a component with a smaller least vertex, one of
    # the q; other choices of q components need not put their prefix in S.
    yielded = {}
    for mask in range((1 << g.n) - 1):
        least = sorted(comp.bits & -comp.bits
                       for comp in components(g, VertexSet(g.n, mask)))
        for q in range(2, len(least) + 1):
            key = q, mask.bit_count()
            if key not in yielded:
                yielded[key] = dict(toughness._independent_sets(g, q, key[1]))
            i = sum(least[:q])
            assert not any(g.adj[u.bit_length() - 1] & i for u in least[:q]), (mask, i)
            assert not _forced(g, i) & ~mask, (mask, i)
            assert i in yielded[key] and not yielded[key][i] & ~mask, (mask, i)


@pytest.mark.parametrize("d, witness", [(3, 0x34942), (4, 0x80AE)], ids=["d3", "d4"])
def test_alpha_prunes_keep_the_witness_at_n18(d, witness):
    g = random_regular(18, d, 1)
    result = exact_toughness(g)
    assert result == naive_toughness(g)
    assert result.witness.bits == witness


def test_exact_toughness_reaches_n24():
    # Too large for the oracle in the tests; the values are those of the search
    # that still scanned its witness class mask by mask.
    result = exact_toughness(random_regular(24, 3, 1))
    assert (result.t, result.components, result.witness.bits) == (Fraction(6, 5), 10, 3320407)


def test_exact_toughness_past_the_half_tables():
    # n = 30 > HALF_TABLE_MAX_N: a connected search whose walks read N(S)
    # row by row.  C30(1, 5) is bipartite, so the even side leaves 15
    # isolated odd vertices.
    result = exact_toughness(circulant(30, 1, 5), 30)
    assert (result.t, result.components, list(result.witness)) == (
        Fraction(1), 15, list(range(0, 30, 2)))


@pytest.mark.parametrize(
    "n, t, c, witness",
    [
        (26, Fraction(9, 8), 8, (3, 5, 6, 10, 11, 14, 15, 20, 25)),
        (28, Fraction(13, 12), 12, (0, 2, 4, 7, 11, 13, 14, 20, 21, 22, 23, 24, 27)),
    ],
    ids=["rr26_3_1", "rr28_3_1"],
)
def test_exact_toughness_above_the_cap(n, t, c, witness):
    # Past DEFAULT_MAX_N, where the all-subsets oracle takes too long:
    # questions decide every class above 2 and find the witness.  CI checks
    # the same values through ``analyze --toughness --force``.
    result = exact_toughness(random_regular(n, 3, 1), n)
    assert (result.t, result.components, tuple(result.witness)) == (t, c, witness)


@settings(deadline=None)
@given(_question_graphs(), st.data())
def test_constrained_separable_matches_brute_force(g, data):
    # The question behind the witness search: is there an s-set S with
    # fixed <= S <= allowed that leaves at least q components?
    full = (1 << g.n) - 1
    allowed = data.draw(st.integers(0, full), label="allowed")
    fixed = data.draw(st.integers(0, full), label="fixed") & allowed
    for s in range(g.n + 1):
        best = max((count_components(g, m) for m in _subsets_of_size(g.n, s)
                    if m & fixed == fixed and not m & ~allowed), default=0)
        for q in range(2, g.n + 1):
            assert toughness._separable(g, q, s, fixed, allowed) == (best >= q), (s, q)


# The test graphs with n = 15-18: their classes above CLASS_SCAN_MAX.
LARGE_CLASS_GRAPHS = {
    spec.replace(" ", "_"): build(parse_family_spec(spec))
    for spec in ("hypercube 4", "circulant 16 1 2 3 4 5 6 7", "circulant 16 1 4",
                 "random_regular 16 5 1", "random_regular 18 3 1", "random_regular 18 4 1")
}


def _first_masks_by_scan(g, s):
    """For every c from 2 up to the maximum of class s, the first s-set S in
    ascending mask order with c(G - S) >= c, as {c: mask}."""
    first = {}
    for mask in _subsets_of_size(g.n, s):
        for c in range(2, count_components(g, mask) + 1):
            first.setdefault(c, mask)
    return first


@pytest.mark.parametrize("g", LARGE_CLASS_GRAPHS.values(), ids=LARGE_CLASS_GRAPHS.keys())
def test_first_mask_matches_class_scan(g, monkeypatch):
    # For every c up to the class maximum, the question-built mask is the
    # first one a scan in ascending mask order finds with c(G - S) >= c, and
    # the walk down to it asks at most one question per vertex from the top
    # down to the lowest vertex of that mask.
    asked = count_calls(monkeypatch, "_separable")
    for s in range(g.n + 1):
        if comb(g.n, s) <= CLASS_SCAN_MAX:
            continue
        for c, mask in _first_masks_by_scan(g, s).items():
            before = asked[0]
            assert _first_mask(g, s, c) == mask, (s, c)
            assert asked[0] - before <= g.n - (mask & -mask).bit_length() + 1, (s, c)


@settings(deadline=None)
@given(graphs(10))
@example(from_edge_list(5, [(0, 1), (2, 3)]))
def test_first_mask_matches_class_scan_on_random_graphs(g):
    # The same walk on small graphs of any shape, sparse and disconnected
    # ones included, for every class s and every c it reaches.
    for s in range(g.n + 1):
        for c, mask in _first_masks_by_scan(g, s).items():
            assert _first_mask(g, s, c) == mask, (s, c)


@given(graphs(14))
@example(from_edge_list(0, []))
@example(complete(1))
@example(complete(2))
def test_independence_number_matches_brute_force(g):
    assert _independence_number(g) == independence_number(g)


def test_independence_number_on_corpus(corpus):
    # The search must reach alpha exactly on the shipped graphs too.
    small = [(spec, g) for spec, g in corpus if g.n <= 12]
    assert small
    for spec, g in small:
        assert _independence_number(g) == independence_number(g), spec.label()


@pytest.mark.parametrize("n", range(13))
def test_subsets_of_size_ascend_like_combinations(n):
    # Every pinned witness is the first mask attaining t in this order.
    for k in range(n + 2):
        expected = sorted(sum(1 << v for v in c) for c in combinations(range(n), k))
        assert list(_subsets_of_size(n, k)) == expected, k


@settings(deadline=None)
@given(graphs(12), st.integers(-1, 4095), st.integers(0, 4095))
@example(from_edge_list(0, []), -1, 0)
def test_independent_sets_match_brute_force(g, allowed, fixed):
    # The one kernel behind alpha and the separation questions: exactly the
    # independent q-sets I missing ``fixed`` whose forced set F = fixed |
    # W(I) | L(I) | {v < min I} has |F| <= s and lies inside ``allowed``,
    # each once, with that forced set, in the lexicographic order of their
    # ascending vertex lists, the depth-first order that the pinned question
    # counts rest on.  The kernel stops at the first least vertex whose
    # prefix no longer fits, after that vertex's own sets.  A mutant stop
    # that skipped them too failed this test, the prefix examples below,
    # ``test_constrained_separable_matches_brute_force`` and the witness
    # tests, the pinned witness of random_regular 14 4 11 among them.
    # allowed = -1, the default, allows every vertex.
    full = (1 << g.n) - 1
    if allowed != -1:
        allowed &= full
    fixed &= allowed & full

    def vertices(pair):
        return [v for v in range(g.n) if pair[0] >> v & 1]

    for q in range(1, g.n + 2):
        pairs = sorted(((i, _forced(g, i, fixed)) for i in independent_sets_of_size(g, q)
                        if not i & fixed and not _forced(g, i, fixed) & ~allowed), key=vertices)
        for s in range(g.n + 1):
            got = list(toughness._independent_sets(g, q, s, fixed, allowed))
            assert got == [p for p in pairs if p[1].bit_count() <= s], (q, s)


@pytest.mark.parametrize(
    "g, q, s, pairs",
    [
        # No edges: F is the prefix alone, so min I <= s.  Vertex 1's prefix
        # {0} fits s = 1, though the next one, {0, 1}, does not.
        (from_edge_list(4, []), 2, 1,
         [(0b0011, 0), (0b0101, 0), (0b1001, 0), (0b0110, 0b1), (0b1010, 0b1)]),
        # The path 0-1-2-3-4: {1, 3} forces its prefix {0}, which is also
        # L(1), and W = L(3) = {2}; {2, 4} would force {0, 1, 3}.
        (from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2, 2,
         [(0b00101, 0b10), (0b01001, 0b100), (0b10001, 0b1000), (0b01010, 0b101),
          (0b10010, 0b1001)]),
    ],
    ids=["edgeless_4", "path_5"],
)
def test_least_vertex_prefix_examples(g, q, s, pairs):
    assert list(toughness._independent_sets(g, q, s)) == pairs
