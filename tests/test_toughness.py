import random
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
from toughlab import graph, toughness
from toughlab.errors import GraphTooLarge, PreconditionViolated
from toughlab.families import (
    build,
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

from conftest import graphs, independence_number, independent_sets_of_size


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
    pruned = exact_toughness(g)
    naive = naive_toughness(g)
    if naive is None:  # K1: connected, and no proper cut disconnects it
        assert pruned is None
        return
    assert pruned.t == naive.t
    assert pruned.components == naive.components
    # both witnesses attain the value
    assert toughness_of_cut(g, pruned.witness) == pruned.t
    assert toughness_of_cut(g, naive.witness) == pruned.t


def test_witness_determinism():
    a = exact_toughness(petersen())
    b = exact_toughness(petersen())
    assert a == b


def _count_calls(monkeypatch, name):
    """Wrap ``toughness.<name>`` to count its calls; the count is item 0 of
    the returned list.  Like the benchmark's tracer, the wrapper replaces the
    function in ``graph`` too when ``graph`` holds it, so a call made from
    ``graph`` counts as well."""
    seen = [0]
    kernel = getattr(toughness, name)

    def counting(*args):
        seen[0] += 1
        return kernel(*args)

    for module in (toughness, graph):
        if getattr(module, name, None) is kernel:
            monkeypatch.setattr(module, name, counting)
    return seen


@pytest.mark.parametrize(
    "scan, g, calls",
    [
        # The benchmark's traced self-test counts these two on Petersen.
        (exact_toughness, petersen(), 638),
        (max_components_over_cuts, petersen(), 1023),
        (max_components_over_cuts, cycle(6), 63),
        (max_components_over_cuts, from_edge_list(3, []), 7),
        # Without the alpha prune and the in-class stop: 6,476 and 39,203.
        # hypercube 4 scans classes 0-4 whole; the seed (n - alpha)/alpha = 1
        # is its t, and questions find the witness in class 8.
        (exact_toughness, random_regular(14, 3, 46), 1471),
        (exact_toughness, hypercube(4), 2517),
        # alpha = 1: t is undefined, and no class is scanned.
        (exact_toughness, complete(6), 0),
    ],
    ids=["petersen", "petersen_all_cuts", "cycle_6_all_cuts", "edgeless_3_all_cuts",
         "rr_14_3_46", "hypercube_4", "complete_6"],
)
def test_one_count_components_call_per_mask(scan, g, calls, monkeypatch):
    # The tracer counts enumerated masks by wrapping the module-global
    # count_components, so every mask must go through it exactly once and
    # nothing else in the scan (alpha, the connectivity check) may call it.
    seen = _count_calls(monkeypatch, "count_components")
    scan(g)
    assert seen[0] == calls


def _reference_scan(g):
    """The size-class scan with neither alpha bound: every mask of every
    class until s/(n - s) cannot beat the incumbent.  (t, c, witness bits)."""
    n = g.n
    best_s = best_c = best_mask = 0
    for s in range(n - 1):
        if best_c and s * best_c >= best_s * (n - s):
            break
        c, mask = 1, 0
        for m in _subsets_of_size(n, s):
            k = count_components(g, m)
            if k > c:
                c, mask = k, m
        if c > 1 and (not best_c or s * best_c < best_s * c):
            best_s, best_c, best_mask = s, c, mask
    return (Fraction(best_s, best_c), best_c, best_mask) if best_c else None


# The corpus graphs up to n = 14, and four n = 16 graphs whose many large
# classes the reference scan still covers in under 0.1 s each.  The
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
# more than CLASS_SCAN_MAX masks ask any, which first happens at n = 14, in
# C(14, 7) = 3,432.
QUESTIONS = {
    "random_regular_14_3_10": 1,
    "random_regular_14_4_11": 24,
    "random_regular_14_3_22": 1,
    "random_regular_14_4_23": 18,
    "random_regular_14_3_34": 15,
    "random_regular_14_4_35": 23,
    "random_regular_14_5_36": 16,
    "random_regular_14_4_47": 17,
    "hypercube_4": 23,
    "circulant_16_1_2_3_4_5_6_7": 7,
    "circulant_16_1_4": 22,
    "random_regular_16_5_1": 20,
}


@pytest.mark.parametrize("g", WITNESS_GRAPHS.values(), ids=WITNESS_GRAPHS.keys())
def test_alpha_prunes_keep_the_witness(g, request, monkeypatch):
    # The pinned analyze digests and the benchmark's witness check depend on
    # the exact first-mask witness, not only on t and c.
    asked = _count_calls(monkeypatch, "_separable")
    result = exact_toughness(g)
    got = result and (result.t, result.components, result.witness.bits)
    assert got == _reference_scan(g)
    assert asked[0] == QUESTIONS.get(request.node.callspec.id, 0)


@settings(deadline=None)
@given(graphs(11).filter(is_connected))
@example(complete(1))
@example(complete(7))
def test_search_matches_reference_scan(g):
    result = exact_toughness(g)
    got = result and (result.t, result.components, result.witness.bits)
    assert got == _reference_scan(g)


def _relabel(g, seed):
    # The benchmark's frontier relabelling (bench/workloads.py), copied so
    # that the tests do not import the benchmark.
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize(
    "n, d, seed, t, c, witness, calls",
    [
        (18, 3, 42, Fraction(7, 6), 6, 203785, 988),
        (20, 3, 42, Fraction(9, 8), 8, 766002, 1351),
        (18, 4, 42, Fraction(3, 2), 4, 5072, 988),
        (18, 3, 7, Fraction(7, 6), 6, 142612, 988),
        (20, 3, 7, Fraction(9, 8), 8, 986629, 1351),
        (18, 4, 7, Fraction(3, 2), 4, 70220, 988),
    ],
    ids=["rr18_3_seed42", "rr20_3_seed42", "rr18_4_seed42",
         "rr18_3_seed7", "rr20_3_seed7", "rr18_4_seed7"],
)
def test_frontier_inputs_keep_the_witness(n, d, seed, t, c, witness, calls, monkeypatch):
    # The benchmark's frontier graphs exactly as it writes them: after the
    # relabelling, class maxima come late in their classes, so these runs
    # take the question path for the class maxima and the witness.  The mask
    # count is the benchmark's traced toughness.masks for the graph: the
    # small classes, scanned whole, that the seed does not rule out.
    seen = _count_calls(monkeypatch, "count_components")
    result = exact_toughness(_relabel(random_regular(n, d, 1), seed))
    assert (result.t, result.components, result.witness.bits) == (t, c, witness)
    assert seen[0] == calls


def _w(g, terminals):
    """W(I): the vertices with two or more neighbours in I."""
    return sum(1 << v for v in range(g.n) if (g.adj[v] & terminals).bit_count() >= 2)


def _separated(g, terminals, removed):
    """Does every component of G - removed hold at most one terminal?"""
    return all((comp.bits & terminals).bit_count() <= 1
               for comp in components(g, VertexSet(g.n, removed)))


@settings(deadline=None)
@given(graphs(12), st.integers(2, 4), st.data())
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
    # Isolated vertices lie on no path, so padding G with them past the
    # default cap of 24 changes no answer.
    padded = from_edge_list(26, g.edges())
    for s in range(g.n - q + 1):
        budget = s - w.bit_count()
        got = budget >= 0 and toughness._separates(g, terminals, w, budget)
        assert got == (least <= s), s
        assert (budget >= 0 and toughness._separates(padded, terminals, w, budget)) == got, s


@settings(deadline=None)
@given(graphs(12))
def test_separable_decides_the_class_maximum(g):
    # For q <= min(n - s, alpha) the question is exactly "does some s-set S
    # leave at least q components?".
    alpha = independence_number(g)
    for s in range(g.n):
        best = max(count_components(g, m) for m in _subsets_of_size(g.n, s))
        for q in range(2, min(g.n - s, alpha) + 1):
            assert toughness._separable(g, q, s) == (best >= q), (s, q)


@pytest.mark.parametrize("d, witness", [(3, 0x34942), (4, 0x80AE)], ids=["d3", "d4"])
def test_alpha_prunes_keep_the_witness_at_n18(d, witness):
    g = random_regular(18, d, 1)
    result = exact_toughness(g)
    assert (result.t, result.components, result.witness.bits) == _reference_scan(g)
    assert result.witness.bits == witness


def test_exact_toughness_reaches_n24():
    # Too large for the reference scan; the values are those of the search
    # that still scanned its witness class mask by mask.
    result = exact_toughness(random_regular(24, 3, 1))
    assert (result.t, result.components, result.witness.bits) == (Fraction(6, 5), 10, 3320407)


@settings(deadline=None)
@given(graphs(9), st.data())
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


@pytest.mark.parametrize("g", LARGE_CLASS_GRAPHS.values(), ids=LARGE_CLASS_GRAPHS.keys())
def test_first_mask_matches_class_scan(g):
    # For every c up to the class maximum, the question-built mask is the
    # first one a scan in ascending mask order finds with c(G - S) >= c.
    for s in range(g.n + 1):
        if comb(g.n, s) <= CLASS_SCAN_MAX:
            continue
        first = {}
        for mask in _subsets_of_size(g.n, s):
            for c in range(2, count_components(g, mask) + 1):
                first.setdefault(c, mask)
        for c, mask in first.items():
            assert _first_mask(g, s, c) == mask, (s, c)


@given(graphs(14))
@example(from_edge_list(0, []))
@example(complete(1))
@example(complete(2))
def test_independence_number_matches_brute_force(g):
    assert _independence_number(g) == independence_number(g)


def test_independence_number_on_corpus(corpus):
    # The greedy start must not overshoot alpha on the shipped graphs either.
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
@given(graphs(12))
@example(from_edge_list(0, []))
def test_independent_sets_match_brute_force(g):
    # The one kernel behind alpha and the separation questions: exactly the
    # independent q-sets I with |W(I)| <= s, each once, with W(I).
    for q in range(1, g.n + 2):
        pairs = [(i, _w(g, i)) for i in independent_sets_of_size(g, q)]
        for s in range(g.n + 1):
            got = list(toughness._independent_sets(g, q, s))
            assert sorted(got) == sorted(p for p in pairs if p[1].bit_count() <= s), (q, s)
