import math
import random

import pytest

from toughlab import (
    VertexSet,
    component_count_bound,
    exhaustive_mixing_verify,
    max_components_over_cuts,
    mixing_check,
    mixing_check_single,
    sampled_mixing_verify,
    spectrum,
    verify_component_bound,
)
from toughlab.errors import GraphTooLarge, NotRegularGraph
from toughlab.families import (
    build,
    complete,
    complete_bipartite,
    cycle,
    default_corpus,
    hypercube,
    kneser,
    petersen,
    random_regular,
)
from toughlab.graph import from_edge_list
from toughlab.mixing import _random_masks
from toughlab.toughness import COMPONENT_BOUND_MAX_N

from conftest import independent_sets_of_size


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
    full = VertexSet.full(10)
    check = mixing_check(p, full, full, lam_of(p))
    assert check.e_ab == 2 * p.m == 30
    assert check.expected == pytest.approx(30, abs=1e-9)
    assert check.bound == pytest.approx(0, abs=1e-9)
    assert check.slack == pytest.approx(0, abs=1e-9)


def test_mixing_rejects_irregular():
    path3 = from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegularGraph):
        mixing_check(path3, VertexSet(3), VertexSet(3), lam_of(path3))


def test_single_set_petersen(petersen_independent_set):
    p, a = petersen_independent_set
    check = mixing_check_single(p, a, lam_of(p))
    assert check.e_ab == 0
    assert check.expected == pytest.approx(2.4, abs=1e-9)
    assert check.bound == pytest.approx(2.4, abs=1e-9)
    assert check.slack == pytest.approx(0.0, abs=1e-9)


def test_single_set_cycle6():
    a = VertexSet.of(6, [0, 1, 2])
    check = mixing_check_single(cycle(6), a, lam_of(cycle(6)))
    assert check.e_ab == 2
    assert abs(check.e_ab - check.expected) == pytest.approx(0.5, abs=1e-9)
    assert check.bound == pytest.approx(1.5, abs=1e-9)


def test_single_is_half_of_pair_slack():
    p = petersen()
    lam = lam_of(p)
    for bits in (0, 0b1010101010, 0b11111, 0b1111111111):
        a = VertexSet(10, bits)
        single = mixing_check_single(p, a, lam)
        pair = mixing_check(p, a, a, lam)
        assert single.slack == pytest.approx(pair.slack / 2, abs=1e-9)


@pytest.mark.parametrize("g", [petersen(), complete(4), cycle(4), hypercube(3)])
def test_exhaustive_verify(g):
    worst = exhaustive_mixing_verify(g, lam_of(g))
    assert worst.slack >= -1e-9


def test_exhaustive_worst_is_equality_on_petersen():
    p = petersen()
    worst = exhaustive_mixing_verify(p, lam_of(p))
    assert worst.slack == pytest.approx(0.0, abs=1e-9)


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


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("n", [2, 31, 32, 33, 35, 63, 64])
def test_random_masks_match_getrandbits_stream(n, seed):
    rng = random.Random(seed)
    expected = [rng.getrandbits(n) for _ in range(257)]
    assert _random_masks(random.Random(seed), n, 257).tolist() == expected


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


@pytest.mark.parametrize("g", [cycle(12), random_regular(16, 3, 1), kneser(7, 3)],
                         ids=["cycle12", "rr16_3_1", "kneser7_3"])
def test_sampled_verify_matches_loop(g):
    lam = lam_of(g)
    assert sampled_mixing_verify(g, 300, 7, lam) == _sampled_reference(g, 300, 7, lam)


def test_sampled_verify_hypercube6():
    # n = 64: the masks fill every bit of a 64-bit word.
    g = hypercube(6)
    worst = sampled_mixing_verify(g, 2000, 42, lam_of(g))
    assert math.isfinite(worst.slack)
    assert worst.slack >= -1e-9


def test_component_count_bound_values():
    for g, value in ((petersen(), 4), (complete(5), 1), (complete_bipartite(3, 3), 3)):
        assert component_count_bound(g, lam_of(g)) == pytest.approx(value, abs=1e-8)


@pytest.mark.parametrize("lam", [None, 0.0, -1.0])
def test_component_count_bound_rejects_nonpositive_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be positive"):
        component_count_bound(petersen(), lam)


@pytest.mark.parametrize("lam", [None, 0.0, -1.0])
@pytest.mark.parametrize("check", [
    lambda g, lam: mixing_check(g, VertexSet(g.n, 1), VertexSet(g.n, 2), lam),
    lambda g, lam: mixing_check_single(g, VertexSet(g.n, 3), lam),
    exhaustive_mixing_verify,
    lambda g, lam: sampled_mixing_verify(g, 10, 7, lam),
], ids=["pair", "single", "exhaustive", "sampled"])
def test_mixing_checks_reject_nonpositive_lambda(check, lam):
    # A lambda <= 0 would give a negative bound, so a false violation.
    with pytest.raises(ValueError, match="lambda must be positive"):
        check(petersen(), lam)


def test_verify_component_bound():
    for g in (petersen(), cycle(6), complete(4)):  # K4 is vacuous: no cut
        assert verify_component_bound(g, lam_of(g))


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


def independence_number(g):
    """Brute-force alpha(G) over all 2^n vertex sets, independent of the scan."""
    return max(mask.bit_count() for mask in range(1 << g.n)
               if not any(mask >> v & 1 and g.adj[v] & mask for v in range(g.n)))


@pytest.mark.parametrize("g", SCANNABLE_GRAPHS.values(), ids=SCANNABLE_GRAPHS.keys())
def test_max_components_is_independence_number(g):
    # Each component of G - S holds a vertex, and one per component is an
    # independent set, so c(G-S) <= alpha; S = V - I for a maximum
    # independent set I leaves alpha singletons, a cut when alpha >= 2.
    alpha = independence_number(g)
    assert max_components_over_cuts(g) == (alpha if alpha >= 2 else 0)


def test_component_bound_attained():
    assert max_components_over_cuts(petersen()) == 4
    assert max_components_over_cuts(cycle(6)) == 3
    assert max_components_over_cuts(complete(4)) == 0


def test_component_bound_cap():
    g = cycle(13)
    with pytest.raises(GraphTooLarge):
        max_components_over_cuts(g)
    with pytest.raises(GraphTooLarge):
        verify_component_bound(g, lam_of(g))
