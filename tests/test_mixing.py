import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toughlab import (
    VertexSet,
    component_count_bound,
    exhaustive_mixing_verify,
    max_components_over_cuts,
    mixing_check,
    sampled_mixing_verify,
    spectrum,
    verify_component_bound,
)
from toughlab.errors import GraphTooLarge, PreconditionViolated
from toughlab.families import (
    build,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    default_corpus,
    hypercube,
    kneser,
    parse_family_spec,
    petersen,
    random_regular,
)
from toughlab.graph import e_between, from_edge_list
from toughlab import mixing
from toughlab.mixing import (
    EXHAUSTIVE_MAX_N,
    _chunk_slack,
    _count_planes,
    _getrandbits_stream,
    _random_masks,
    _size_tables,
    _size_terms,
    _slack,
)
from toughlab.spectra import adjacency_matrix
from toughlab.toughness import COMPONENT_BOUND_MAX_N, _independence_number

from conftest import count_calls, independence_number, independent_sets_of_size


def lam_of(g):
    return spectrum(g).lam


@pytest.fixture(scope="module")
def petersen_independent_set():
    p = petersen()
    masks = independent_sets_of_size(p, 4)
    assert masks
    return p, VertexSet(10, masks[0])


def test_mixing_equality_on_petersen_independent_set(petersen_independent_set):
    p, a = petersen_independent_set
    check = mixing_check(p, a, a, lam_of(p))
    assert check.e_ab == 0
    assert check.expected == pytest.approx(4.8, abs=1e-9)
    assert check.bound == pytest.approx(4.8, abs=1e-9)
    assert check.slack == pytest.approx(0.0, abs=1e-9)


def test_mixing_empty_set():
    p = petersen()
    check = mixing_check(p, VertexSet(10), VertexSet(10), lam_of(p))
    assert check.e_ab == 0 and check.expected == 0 and check.bound == 0
    assert check.slack == 0


def test_mixing_full_set():
    p = petersen()
    full = VertexSet(10, (1 << 10) - 1)
    check = mixing_check(p, full, full, lam_of(p))
    assert check.e_ab == 2 * p.m == 30
    assert check.expected == pytest.approx(30, abs=1e-9)
    assert check.bound == pytest.approx(0, abs=1e-9)
    assert check.slack == pytest.approx(0, abs=1e-9)


def test_mixing_rejects_irregular():
    path3 = from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionViolated, match="graph is not regular"):
        mixing_check(path3, VertexSet(3), VertexSet(3), lam_of(path3))


def test_single_set_petersen(petersen_independent_set):
    # The single-set form |e(A) - d|A|^2/(2n)| <= (lam/2)|A|(1 - |A|/n) is
    # mixing_check at A = B with every figure halved: both sides are 2.4 here.
    p, a = petersen_independent_set
    check = mixing_check(p, a, a, lam_of(p))
    assert check.e_ab // 2 == 0
    assert check.expected / 2 == pytest.approx(2.4, abs=1e-9)
    assert check.bound / 2 == pytest.approx(2.4, abs=1e-9)
    assert check.slack / 2 == pytest.approx(0.0, abs=1e-9)


def test_single_set_cycle6():
    # A path of three vertices: 2 inner edges, each counted twice by e(A, A).
    a = VertexSet.of(6, [0, 1, 2])
    check = mixing_check(cycle(6), a, a, lam_of(cycle(6)))
    assert check.e_ab == 4
    assert abs(check.e_ab - check.expected) == pytest.approx(1.0, abs=1e-9)
    assert check.bound == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("g", [petersen(), complete(4), cycle(4), hypercube(3)])
def test_exhaustive_verify(g):
    worst = exhaustive_mixing_verify(g, lam_of(g))
    assert worst.slack >= -1e-9


def test_exhaustive_worst_is_equality_on_petersen():
    p = petersen()
    worst = exhaustive_mixing_verify(p, lam_of(p))
    assert worst.slack == pytest.approx(0.0, abs=1e-9)


def _dense_worst_pair(g, lam):
    """Reference scan: the slack of every (A, B) as a 2^n x 2^n matrix, and
    the (A, B) masks of its first minimum in row-major order."""
    n, d = g.n, g.degree(0)
    masks = np.arange(1 << n, dtype=np.int64)
    x = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    adj = adjacency_matrix(g)
    e = x @ adj @ x.T
    sizes = x.sum(axis=1)
    expected = np.outer(sizes, sizes) * (d / n)
    root = np.sqrt(sizes * (n - sizes)) / n
    bound = lam * n * np.outer(root, root)
    return divmod(int(np.argmin(bound - np.abs(e - expected))), 1 << n)


def _assert_same_worst_pair(g, lam):
    worst = exhaustive_mixing_verify(g, lam)
    assert (worst.a.bits, worst.b.bits) == _dense_worst_pair(g, lam)


EXHAUSTIVE_GRAPHS = {
    spec.label().replace(" ", "_"): g
    for spec, g in ((spec, build(spec)) for spec in default_corpus())
    if g.n <= EXHAUSTIVE_MAX_N
}


@pytest.mark.parametrize("g", EXHAUSTIVE_GRAPHS.values(), ids=EXHAUSTIVE_GRAPHS.keys())
def test_exhaustive_matches_dense_reference(g):
    # Scaled lambdas move the worst pair off the trivial empty pair.
    lam = lam_of(g)
    for scale in (1.0, 0.5, 0.9, 1.3):
        _assert_same_worst_pair(g, lam * scale)


def _dense_least_reported_slack(g, lam):
    """Least slack over every (A, B) under ``mixing_check``'s formula, in its
    order of operations: d*ka*kb/n and lam*sqrt(ka*kb*(1-ka/n)*(1-kb/n))."""
    n, d = g.n, g.degree(0)
    masks = np.arange(1 << n, dtype=np.int64)
    x = (masks[:, None] >> np.arange(n)) & 1
    e = x @ adjacency_matrix(g).astype(np.int64) @ x.T
    ka = x.sum(axis=1)[:, None]
    kb = ka.T
    expected = d * ka * kb / n
    bound = lam * np.sqrt(ka * kb * (1.0 - ka / n) * (1.0 - kb / n))
    return (bound - np.abs(e - expected)).min()


# The exhaustive scan picks its pair from per-size tables of its own and
# reports it through ``mixing_check``, whose ``_slack`` (also the sampled
# scan's formula) rounds differently; on these two graphs the picked pair is
# not the one of least reported slack.  Scoring the scan by ``_slack`` makes
# them pass but changes the pinned corpus table, so they wait for its re-pin.
_FORMULA_MISMATCH = pytest.mark.xfail(
    strict=True, reason="scan and mixing_check round the slack differently")


@pytest.mark.parametrize("g", [
    pytest.param(g, id=label,
                 marks=_FORMULA_MISMATCH if label in ("complete_5", "complete_6") else ())
    for label, g in EXHAUSTIVE_GRAPHS.items()
])
def test_exhaustive_reports_least_slack(g):
    lam = lam_of(g)
    assert exhaustive_mixing_verify(g, lam).slack == _dense_least_reported_slack(g, lam)


@st.composite
def _regular_graphs(draw):
    # The pairing model rarely yields a simple graph for d >= 5 at these n.
    n = draw(st.integers(3, EXHAUSTIVE_MAX_N))
    d = draw(st.sampled_from([d for d in range(2, min(n, 5)) if n * d % 2 == 0]))
    return random_regular(n, d, draw(st.integers(0, 2**16)))


@settings(deadline=None)
@given(_regular_graphs(), st.floats(0.3, 1.5))
def test_exhaustive_matches_dense_reference_on_random_graphs(g, scale):
    _assert_same_worst_pair(g, lam_of(g) * scale)


def test_exhaustive_memory_stays_small():
    # The dense 2^n x 2^n scan peaked at 40 MiB on a 10-vertex graph.
    p = petersen()
    lam = lam_of(p)
    tracemalloc.start()
    try:
        exhaustive_mixing_verify(p, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_exhaustive_cap():
    with pytest.raises(GraphTooLarge):
        exhaustive_mixing_verify(cycle(12), lam_of(cycle(12)))


def test_sampled_verify_and_determinism():
    g = cycle(12)
    lam = lam_of(g)
    a = sampled_mixing_verify(g, samples=500, seed=7, lam=lam)
    b = sampled_mixing_verify(g, samples=500, seed=7, lam=lam)
    assert a == b
    assert a.slack >= -1e-9
    c = sampled_mixing_verify(g, samples=1, seed=8, lam=lam)
    d = sampled_mixing_verify(g, samples=1, seed=9, lam=lam)
    assert (c.a, c.b) != (d.a, d.b)


def test_sampled_verify_refuses_no_samples():
    g = cycle(12)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        sampled_mixing_verify(g, 0, 1, lam_of(g))


def test_sampled_verify_refuses_negative_seed():
    # random.Random(-7) replays seed 7, so -7 would name seed 7's pairs.
    g = cycle(12)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        sampled_mixing_verify(g, samples=10, seed=-7, lam=lam_of(g))


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5, 2**64 + 3])
def test_stream_words_match_getrandbits(seed):
    # 2000 words run past the first 624-word refill of the MT19937 state.
    rng = random.Random(seed)
    expected = [rng.getrandbits(32) for _ in range(2000)]
    assert _getrandbits_stream(seed).random_raw(2000).tolist() == expected


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 35, 63, 64])
def test_random_masks_match_getrandbits_stream(n, seed):
    rng = random.Random(seed)
    expected = [rng.getrandbits(n) for _ in range(257)]
    assert _random_masks(_getrandbits_stream(seed), n, 257).tolist() == expected


@pytest.mark.parametrize("g", [cycle(12), kneser(7, 3), hypercube(6)],
                         ids=["cycle12", "kneser7_3", "hypercube6"])
def test_chunk_slack_matches_per_pair_slack(g):
    # The sampled scan's per-size tables and narrow e against _slack on
    # per-pair float64 arrays and e_between, for one full chunk.
    n, d, lam = g.n, g.degree(0), lam_of(g)
    masks = _random_masks(_getrandbits_stream(42), n, 2 * mixing.SAMPLE_CHUNK)
    a_masks, b_masks = masks[0::2].copy(), masks[1::2].copy()
    e = np.array([e_between(g, VertexSet(n, int(a)), VertexSet(n, int(b)))
                  for a, b in zip(a_masks, b_masks)])
    ka = np.bitwise_count(a_masks).astype(np.float64)
    kb = np.bitwise_count(b_masks).astype(np.float64)
    per_pair = _slack(*_size_terms(d, n, lam, ka, kb), e)
    planes = _count_planes(g, d)
    table = _chunk_slack(n, planes, _size_tables(d, n, lam), a_masks, b_masks)
    assert table.dtype == per_pair.dtype == np.float64
    assert table.tobytes() == per_pair.tobytes()


@pytest.mark.parametrize("g", [
    from_edge_list(1, []),
    cycle(7),
    complete(9),
    cycle(23),
    circulant(23, 1, 2),
    circulant(41, 1, 2, 3),
    kneser(8, 3),
    circulant(64, 32),
    hypercube(6),
], ids=["n1", "cycle7", "complete9", "cycle23", "circulant23_1_2",
        "circulant41_1_2_3", "kneser8_3", "matching64", "hypercube6"])
def test_count_planes_match_brute_force(g):
    # Bit planes L = 0 (n = 1), 1 (the matching), 2, 3 and 4, against
    # |N(u) & beta_k| counted one vertex at a time.
    n, d = g.n, g.degree(0)
    levels = min(d, 8).bit_length()
    planes = _count_planes(g, d)
    assert planes.shape == (-(-n // 8), levels, 256)
    for k in range(planes.shape[0]):
        for beta in range(256):
            counts = [(g.adj[u] & beta << 8 * k).bit_count() for u in range(n)]
            assert max(counts) < 1 << levels
            for j in range(levels):
                want = sum(1 << u for u, c in enumerate(counts) if c >> j & 1)
                assert int(planes[k, j, beta]) == want


@st.composite
def regular_graphs_off_byte(draw):
    """A relabelled circulant: regular, with n not a multiple of 8, so the
    last byte of every set is partial."""
    n = draw(st.integers(3, 63).filter(lambda n: n % 8))
    offsets = draw(st.sets(st.integers(1, n // 2), min_size=1))
    perm = draw(st.permutations(range(n)))
    edges = circulant(n, *offsets).edges()
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


@settings(deadline=None)
@given(regular_graphs_off_byte(), st.data())
def test_chunk_slack_matches_per_pair_slack_on_regular_graphs(g, data):
    n, d, lam = g.n, g.degree(0), 1.5
    mask = st.integers(0, (1 << n) - 1)
    pairs = data.draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=40))
    a_masks = np.array([a for a, _ in pairs], dtype=np.uint64)
    b_masks = np.array([b for _, b in pairs], dtype=np.uint64)
    e = np.array([e_between(g, VertexSet(n, a), VertexSet(n, b)) for a, b in pairs])
    ka = np.bitwise_count(a_masks).astype(np.float64)
    kb = np.bitwise_count(b_masks).astype(np.float64)
    per_pair = _slack(*_size_terms(d, n, lam, ka, kb), e)
    table = _chunk_slack(n, _count_planes(g, d), _size_tables(d, n, lam), a_masks, b_masks)
    assert table.tobytes() == per_pair.tobytes()


def _sampled_reference(g, samples, seed, lam):
    """The sampled scan as a plain loop: first pair of least ``mixing_check`` slack."""
    rng = random.Random(seed)
    worst = None
    for _ in range(samples):
        a = VertexSet(g.n, rng.getrandbits(g.n))
        b = VertexSet(g.n, rng.getrandbits(g.n))
        check = mixing_check(g, a, b, lam)
        if worst is None or check.slack < worst.slack:
            worst = check
    return worst


@pytest.mark.parametrize("g, samples, seed", [
    (cycle(12), 300, 7),
    (random_regular(16, 3, 1), 300, 7),
    (kneser(7, 3), 300, 7),
    # Many pairs tie at slack 0.0 here; the first of them is (0x0, 0x26e).
    (build(parse_family_spec("circulant 11 1 2 3")), 20_000, 42),
], ids=["cycle12", "rr16_3_1", "kneser7_3", "circulant_11_1_2_3"])
def test_sampled_verify_matches_loop(g, samples, seed):
    lam = lam_of(g)
    assert (sampled_mixing_verify(g, samples, seed, lam)
            == _sampled_reference(g, samples, seed, lam))


def test_sampled_verify_matches_loop_on_complete_64():
    # e(A,B) is largest here, up to 64 * 63, in the scan's uint16 count.
    g = complete(64)
    assert (sampled_mixing_verify(g, 500, 42, 1.0)
            == _sampled_reference(g, 500, 42, 1.0))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("g", [cycle(5), petersen(), kneser(7, 3)],
                         ids=["cycle5", "petersen", "kneser7_3"])
def test_sampled_verify_same_for_every_chunk_size(g, chunk, monkeypatch):
    # cycle 5 has 1024 pairs, so 1000 draws repeat its worst pair across chunks.
    lam = lam_of(g)
    assert mixing.SAMPLE_CHUNK >= 1000
    one_pass = sampled_mixing_verify(g, 1000, 3, lam)
    monkeypatch.setattr(mixing, "SAMPLE_CHUNK", chunk)
    assert sampled_mixing_verify(g, 1000, 3, lam) == one_pass


def test_sampled_verify_hypercube6():
    # n = 64: the masks fill every bit of a 64-bit word.
    g = hypercube(6)
    worst = sampled_mixing_verify(g, 2000, 42, lam_of(g))
    assert math.isfinite(worst.slack)
    assert worst.slack >= -1e-9


@pytest.mark.parametrize("check", [
    lambda g: mixing_check(g, VertexSet(0), VertexSet(0), 1.0),
    lambda g: exhaustive_mixing_verify(g, 1.0),
    lambda g: sampled_mixing_verify(g, 10, 7, 1.0),
], ids=["pair", "exhaustive", "sampled"])
def test_mixing_checks_refuse_empty_graph(check):
    with pytest.raises(PreconditionViolated, match="no vertices"):
        check(from_edge_list(0, []))


def test_mixing_checks_on_one_vertex():
    # n = 1 is defined: the only pairs are of the empty and the full set.
    g = complete(1)
    full = VertexSet(1, 1)
    assert mixing_check(g, full, full, 1.0).slack == 0.0
    assert exhaustive_mixing_verify(g, 1.0).a == VertexSet(1)
    worst = sampled_mixing_verify(g, 10, 3, 1.0)
    assert (worst.a.bits, worst.b.bits, worst.slack) == (0, 1, 0.0)


def test_component_count_bound_values():
    for g, value in ((petersen(), 4), (complete(5), 1), (complete_bipartite(3, 3), 3)):
        assert component_count_bound(g, lam_of(g)) == pytest.approx(value, abs=1e-8)


@pytest.mark.parametrize("lam", [None, 0.0, -1.0, math.nan, math.inf])
def test_component_count_bound_rejects_nonpositive_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be positive"):
        component_count_bound(petersen(), lam)


@pytest.mark.parametrize("lam", [None, 0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("check", [
    lambda g, lam: mixing_check(g, VertexSet(g.n, 1), VertexSet(g.n, 2), lam),
    lambda g, lam: mixing_check(g, VertexSet(g.n, 3), VertexSet(g.n, 3), lam),
    exhaustive_mixing_verify,
    lambda g, lam: sampled_mixing_verify(g, 10, 7, lam),
], ids=["pair", "single", "exhaustive", "sampled"])
def test_mixing_checks_reject_nonpositive_lambda(check, lam):
    # A lambda <= 0 would give a negative bound, so a false violation; a NaN
    # or infinite one would give NaN slacks, which no minimum search orders.
    with pytest.raises(ValueError, match="lambda must be positive"):
        check(petersen(), lam)


def test_verify_component_bound():
    for g in (petersen(), cycle(6), complete(4)):  # K4 is vacuous: no cut
        assert verify_component_bound(g, lam_of(g))


@pytest.mark.parametrize("lam", [None, 0.0, -1.0, math.nan, math.inf])
def test_verify_component_bound_checks_lambda_before_the_scan(lam, monkeypatch):
    # A bad lambda is refused before any of Petersen's 1023 cuts is counted.
    counted = count_calls(monkeypatch, "count_components")
    with pytest.raises(ValueError, match="lambda must be positive"):
        verify_component_bound(petersen(), lam)
    assert counted[0] == 0


# Every corpus graph in reach of the cut scan, complete ones (K4 among them)
# included.
SCANNABLE_GRAPHS = {
    spec.label().replace(" ", "_"): g
    for spec, g in ((spec, build(spec)) for spec in default_corpus())
    if g.n <= COMPONENT_BOUND_MAX_N
}

# The ones that some cut disconnects (not K_n).
SMALL_CUT_GRAPHS = {
    label: g for label, g in SCANNABLE_GRAPHS.items()
    if g.m < g.n * (g.n - 1) // 2
}


@pytest.mark.parametrize("g", SMALL_CUT_GRAPHS.values(), ids=SMALL_CUT_GRAPHS.keys())
def test_component_bound_can_fail(g):
    # At lam* = d*c/(n-c) the ceiling lam*n/(d+lam) equals the largest
    # component count c, so any smaller lam must be refused.
    c = max_components_over_cuts(g)
    lam_star = g.degree(0) * c / (g.n - c)
    assert verify_component_bound(g, lam=lam_star)
    assert not verify_component_bound(g, lam=lam_star * (1 - 1e-6))


@pytest.mark.parametrize("g", SCANNABLE_GRAPHS.values(), ids=SCANNABLE_GRAPHS.keys())
def test_max_components_is_independence_number(g):
    # Each component of G - S holds a vertex, and one per component is an
    # independent set, so c(G-S) <= alpha; S = V - I for a maximum
    # independent set I leaves alpha singletons, a cut when alpha >= 2.
    alpha = independence_number(g)
    assert _independence_number(g) == alpha
    assert max_components_over_cuts(g) == (alpha if alpha >= 2 else 0)


def test_component_bound_attained():
    assert max_components_over_cuts(petersen()) == 4
    assert max_components_over_cuts(cycle(6)) == 3
    assert max_components_over_cuts(complete(4)) == 0
    assert max_components_over_cuts(from_edge_list(0, [])) == 0
    assert max_components_over_cuts(complete(1)) == 0
    assert max_components_over_cuts(from_edge_list(3, [])) == 3


def test_component_bound_cap():
    g = cycle(13)
    with pytest.raises(GraphTooLarge):
        max_components_over_cuts(g)
    with pytest.raises(GraphTooLarge):
        verify_component_bound(g, lam_of(g))
