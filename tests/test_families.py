import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from toughlab import families, from_edge_list, is_connected, regularity, spectrum
from toughlab.errors import GraphError, InvalidParams, RetriesExhausted
from toughlab.families import (
    FamilySpec,
    build,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    default_corpus,
    hypercube,
    kneser,
    load_manifest,
    parse_family_spec,
    petersen,
    random_regular,
)


def test_cycle():
    assert cycle(3).m == 3
    assert spectrum(cycle(4)).eigenvalues == pytest.approx([2, 0, 0, -2], abs=1e-9)
    with pytest.raises(InvalidParams):
        cycle(2)


def test_complete():
    assert complete(2).m == 1
    assert regularity(complete(5)) == 4
    with pytest.raises(InvalidParams):
        complete(0)


def test_complete_bipartite():
    assert complete_bipartite(1, 1).m == 1
    k33 = complete_bipartite(3, 3)
    assert regularity(k33) == 3
    assert spectrum(k33).lam == pytest.approx(3, abs=1e-9)
    with pytest.raises(InvalidParams):
        complete_bipartite(2, 3)


def test_hypercube():
    assert hypercube(1).m == 1
    q2 = hypercube(2)
    assert q2.n == 4 and regularity(q2) == 2 and is_connected(q2)
    q3 = hypercube(3)
    assert regularity(q3) == 3 and q3.m == 12
    with pytest.raises(InvalidParams):
        hypercube(7)


def test_kneser():
    p = kneser(5, 2)
    assert p.n == 10 and regularity(p) == 3
    big = kneser(7, 3)
    assert big.n == 35 and regularity(big) == 4
    with pytest.raises(InvalidParams):
        kneser(4, 2)


def test_petersen_spectrum_golden():
    prof = spectrum(petersen())
    assert prof.eigenvalues == pytest.approx([3] + [1] * 5 + [-2] * 4, abs=1e-9)


def test_circulant():
    assert circulant(6, 1) == cycle(6)
    assert circulant(5, 1, 2) == complete(5)
    with pytest.raises(InvalidParams):
        circulant(6, 7)


def test_random_regular():
    g = random_regular(8, 3, seed=1)
    assert regularity(g) == 3 and is_connected(g)
    with pytest.raises(InvalidParams):
        random_regular(5, 3, seed=1)
    assert random_regular(8, 3, seed=1) == g  # deterministic
    assert random_regular(8, 3, seed=2) != g  # seed actually matters
    # K1 and K2 are the only connected graphs of degree at most 1; a larger n
    # is refused before any attempt.
    assert random_regular(1, 0, seed=1) == complete(1)
    assert random_regular(2, 1, seed=1) == complete(2)
    with pytest.raises(InvalidParams, match=r"no connected 1-regular graph on n=4 vertices"):
        random_regular(4, 1, seed=0)
    with pytest.raises(InvalidParams, match=r"no connected 0-regular graph on n=6 vertices"):
        random_regular(6, 0, seed=1)
    with pytest.raises(RetriesExhausted, match=r"no valid \(10,6\)-regular graph in 1000 attempts"):
        random_regular(10, 6, seed=1)
    # random.Random(-7) replays seed 7, so -7 would be a second name for it.
    with pytest.raises(InvalidParams, match="seed >= 0, got -7"):
        random_regular(12, 3, seed=-7)


def _shuffle_model(n, d, seed):
    """``random_regular`` as a whole ``random.shuffle`` of the stubs and a
    scan of the pairs, each attempt run to its end: the reference for the
    early rejection, which must name the same graph for every seed."""
    rng = random.Random(seed)
    for _ in range(families.RANDOM_REGULAR_MAX_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            g = from_edge_list(n, sorted(edges))
            if is_connected(g):
                return g
    raise RetriesExhausted(
        f"no valid ({n},{d})-regular graph in {families.RANDOM_REGULAR_MAX_ATTEMPTS} attempts")


def _outcome(make, n, d, seed):
    try:
        return make(n, d, seed)
    except RetriesExhausted as exc:
        return f"RetriesExhausted: {exc}"


# Every (n, d) that random_regular accepts with n <= 24 and d <= 6.
_REGULAR_PARAMS = [(n, d) for n in range(1, 25) for d in range(min(n, 7))
                   if not n * d % 2 and (d >= 2 or n == d + 1)]


@settings(deadline=None)
@given(st.sampled_from(_REGULAR_PARAMS), st.integers(0, 2**64))
@example((1, 0), 0)
@example((2, 1), 1)
@example((10, 6), 1)
def test_random_regular_matches_the_shuffle_model(params, seed):
    # With a cap of 25 attempts, about 57 of 100 draws run out of attempts
    # and 33 more need several, so the point of the stream at which each
    # later attempt starts is compared too, and so is the error.
    n, d = params
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "RANDOM_REGULAR_MAX_ATTEMPTS", 25)
        assert _outcome(random_regular, n, d, seed) == _outcome(_shuffle_model, n, d, seed)


@pytest.mark.parametrize("spec", [
    *(s for s in default_corpus() if s.family == "random_regular"),
    FamilySpec("random_regular", (1, 0, 0)),
    FamilySpec("random_regular", (2, 1, 1)),
    FamilySpec("random_regular", (10, 6, 1)),
], ids=FamilySpec.label)
def test_random_regular_keeps_every_graph_at_the_full_cap(spec):
    got = _outcome(random_regular, *spec.params)
    assert got == _outcome(_shuffle_model, *spec.params)
    if spec.params == (10, 6, 1):
        assert got == "RetriesExhausted: no valid (10,6)-regular graph in 1000 attempts"


@pytest.mark.parametrize("make", [
    lambda: cycle(65),
    lambda: complete(2000),
    lambda: complete_bipartite(33, 33),
    lambda: kneser(13, 4),
    lambda: circulant(65, 1),
    lambda: random_regular(66, 3, seed=1),
], ids=["cycle", "complete", "complete_bipartite", "kneser", "circulant",
        "random_regular"])
def test_vertex_cap_checked_before_building(make, monkeypatch):
    def no_build(n, edges):
        raise AssertionError("edges built before the vertex cap was checked")

    monkeypatch.setattr("toughlab.families.from_edge_list", no_build)
    with pytest.raises(GraphError, match=r"^n=\d+ outside 0\.\.64$"):
        make()


def test_family_spec_parsing_and_build():
    spec = parse_family_spec("kneser 5 2")
    assert spec == FamilySpec("kneser", (5, 2))
    assert build(spec) == petersen()
    with pytest.raises(InvalidParams):
        build(parse_family_spec("frobnicate 3"))
    with pytest.raises(InvalidParams):
        parse_family_spec("cycle x")
    with pytest.raises(InvalidParams, match="empty family spec"):
        parse_family_spec("")


@pytest.mark.parametrize("spec", [
    "cycle 3 4", "complete", "complete_bipartite 3", "hypercube", "kneser 7",
    "petersen 1", "circulant 8", "random_regular 10 3",
])
def test_build_refuses_wrong_parameter_count(spec):
    with pytest.raises(InvalidParams, match=re.escape(spec)):
        build(parse_family_spec(spec))


def test_load_manifest_skips_comments_and_blanks():
    specs = load_manifest("# header\n\ncycle 5\npetersen  # inline\n")
    assert specs == [FamilySpec("cycle", (5,)), FamilySpec("petersen", ())]


def test_default_corpus_builds_and_is_valid():
    specs = default_corpus()
    assert len(specs) >= 60
    labels = {s.label() for s in specs}
    assert "petersen" in labels and "kneser 7 3" in labels
    for spec in specs:
        g = build(spec)
        assert is_connected(g)
        assert isinstance(regularity(g), int)  # every corpus graph is regular
