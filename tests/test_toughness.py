from fractions import Fraction

import pytest

from toughlab import (
    VertexSet,
    exact_toughness,
    naive_toughness,
    toughness_of_cut,
)
from toughlab.errors import GraphTooLarge, PreconditionViolated
from toughlab.families import (
    build,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    parse_family_spec,
    petersen,
    random_regular,
)
from toughlab.graph import from_edge_list


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
