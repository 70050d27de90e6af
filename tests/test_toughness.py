import json
from fractions import Fraction

import pytest

from toughlab import (
    VertexSet,
    exact_toughness,
    is_k_tough,
    naive_toughness,
    toughness_of_cut,
)
from toughlab.cli import main, toughness_search_cap
from toughlab.errors import (
    DisconnectedGraph,
    GraphTooLarge,
    SNotProper,
    ToughlabError,
)
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
from toughlab.graph import emit_graph6, from_edge_list


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
    with pytest.raises(DisconnectedGraph):
        exact_toughness(g)


def test_size_cap():
    with pytest.raises(GraphTooLarge):
        exact_toughness(cycle(12), max_n=10)


def test_size_cap_env_override(monkeypatch, capsys, tmp_path):
    # The library takes its cap as max_n; only the CLI reads the variable.
    path = tmp_path / "c12.g6"
    path.write_text(emit_graph6(cycle(12)) + "\n")
    monkeypatch.setenv("TOUGHLAB_MAX_N", "10")
    assert main(["analyze", str(path), "--toughness"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the cap 10" in err
    monkeypatch.setenv("TOUGHLAB_MAX_N", "12")
    assert main(["analyze", str(path), "--toughness"]) == 0
    assert json.loads(capsys.readouterr().out)["toughness"]["t"] == {"num": 1, "den": 1}


def test_library_cap_ignores_env(monkeypatch):
    monkeypatch.setenv("TOUGHLAB_MAX_N", "5")
    assert exact_toughness(cycle(8)).t == Fraction(1)


@pytest.mark.parametrize("raw", ["abc", "1.5", "", "-3", "0"])
def test_size_cap_env_rejects_non_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("TOUGHLAB_MAX_N", raw)
    with pytest.raises(ToughlabError, match="TOUGHLAB_MAX_N"):
        toughness_search_cap()


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
    assert (result.t, result.witness.members(), result.components) == (
        t, witness, comps)


def test_toughness_of_cut_examples():
    assert toughness_of_cut(cycle(6), VertexSet.of(6, [0, 3])) == Fraction(1)
    assert toughness_of_cut(cycle(6), VertexSet.of(6, [0])) is None
    with pytest.raises(SNotProper):
        toughness_of_cut(cycle(6), VertexSet.full(6))


def test_is_k_tough():
    p = petersen()
    assert is_k_tough(p, Fraction(1))
    assert is_k_tough(p, Fraction(4, 3))
    assert not is_k_tough(p, Fraction(3, 2))
    assert is_k_tough(complete(4), Fraction(100))


@pytest.mark.parametrize(
    "g",
    [cycle(5), cycle(8), petersen(), complete_bipartite(4, 4), hypercube(3),
     random_regular(10, 3, 7)],
)
def test_pruned_matches_naive_oracle(g):
    pruned = exact_toughness(g)
    naive = naive_toughness(g)
    assert pruned.t == naive.t
    assert pruned.components == naive.components
    # both witnesses attain the value
    assert toughness_of_cut(g, pruned.witness) == pruned.t
    assert toughness_of_cut(g, naive.witness) == pruned.t


@pytest.mark.parametrize(
    "g",
    [cycle(6), petersen(), hypercube(3), random_regular(10, 3, 7),
     build(parse_family_spec("circulant 12 1 5"))],
)
def test_monotone_consistency(g):
    t = exact_toughness(g).t
    for k in [Fraction(1, 3), Fraction(1), Fraction(4, 3), Fraction(3, 2),
              Fraction(2), t]:
        assert is_k_tough(g, k) == (k <= t)


def test_witness_determinism():
    a = exact_toughness(petersen())
    b = exact_toughness(petersen())
    assert a == b
