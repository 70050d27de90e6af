import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toughlab import (
    alon_bound,
    brouwer_bound,
    cli,
    exact_toughness,
    gu_bound,
    spectrum,
    theorem_bound,
    verify_theorem,
)
from toughlab.errors import DisconnectedGraph, NotRegularGraph
from toughlab.families import complete, complete_bipartite, cycle, petersen
from toughlab.graph import from_edge_list


def test_alon_bound_values():
    assert alon_bound(3, 2.0) == pytest.approx(-1 / 30, abs=1e-12)
    assert alon_bound(4, 4.0) == pytest.approx(-1 / 6, abs=1e-12)
    assert alon_bound(4, 1.0) == pytest.approx(11 / 15, abs=1e-12)


def test_brouwer_bound_values():
    assert brouwer_bound(3, 2.0) == pytest.approx(-0.5, abs=1e-12)
    assert brouwer_bound(4, 4.0) == pytest.approx(-1.0, abs=1e-12)
    assert brouwer_bound(6, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_gu_bound_values():
    assert gu_bound(3, 2.0) == pytest.approx(1.5 - math.sqrt(2), abs=1e-12)
    assert gu_bound(4, 4.0) == pytest.approx(1 - math.sqrt(2), abs=1e-12)
    assert gu_bound(4, 2.0) == pytest.approx(2 - math.sqrt(2), abs=1e-12)


def test_theorem_bound_values():
    assert theorem_bound(3, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert theorem_bound(4, 4.0) == pytest.approx(0.0, abs=1e-12)
    assert theorem_bound(4, 1.0) == pytest.approx(3.0, abs=1e-12)


def test_nonpositive_lambda_rejected():
    for fn in (alon_bound, brouwer_bound, gu_bound, theorem_bound):
        for lam in (None, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be positive"):
                fn(3, lam)


@given(st.integers(1, 60), st.floats(1e-3, 60.0))
def test_strict_ordering(d, lam):
    assert brouwer_bound(d, lam) < gu_bound(d, lam) < theorem_bound(d, lam)


@given(st.integers(1, 60), st.floats(1e-3, 60.0))
def test_alon_below_main_when_lambda_at_most_d(d, lam):
    if lam <= d:
        assert alon_bound(d, lam) < theorem_bound(d, lam) + 1e-12


@given(st.integers(1, 30), st.floats(0.5, 20.0), st.floats(0.01, 5.0))
def test_monotone_decreasing_in_lambda(d, lam, bump):
    assert theorem_bound(d, lam + bump) < theorem_bound(d, lam)


def verify(g):
    """verify_theorem with lambda and t computed as the CLI computes them."""
    return verify_theorem(g, spectrum(g).lam, exact_toughness(g))


def test_verify_theorem_petersen():
    report = verify(petersen())
    assert report.d == 3
    assert report.lam == pytest.approx(2, abs=1e-9)
    assert report.theorem == pytest.approx(0.5, abs=1e-9)
    assert report.exact_t == Fraction(4, 3)
    assert report.slack == pytest.approx(5 / 6, abs=1e-9)
    assert not report.violation


def test_verify_theorem_cycle4():
    report = verify(cycle(4))
    assert report.d == 2
    assert report.theorem == pytest.approx(0.0, abs=1e-9)
    assert report.exact_t == Fraction(1)
    assert report.slack == pytest.approx(1.0, abs=1e-9)


def test_verify_theorem_complete5():
    report = verify(complete(5))
    assert report.exact_t is None
    assert report.slack is None
    assert not report.violation


def test_verify_theorem_rejects_bad_input():
    path3 = from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegularGraph):
        verify_theorem(path3, spectrum(path3).lam, None)
    two_edges = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        verify_theorem(two_edges, spectrum(two_edges).lam, None)
    for lam in (None, 0.0):
        with pytest.raises(ValueError, match="lambda must be positive"):
            verify_theorem(petersen(), lam, None)


def test_tightness_gap():
    def gap(g):
        return verify(g).tight_gap

    assert gap(petersen()) == pytest.approx(1 / 6, abs=1e-9)
    assert gap(cycle(4)) == pytest.approx(0.0, abs=1e-9)
    assert gap(complete_bipartite(3, 3)) == pytest.approx(0.0, abs=1e-9)
    assert gap(complete(5)) is None


def test_json_dict_field_names():
    payload = json.loads(json.dumps(verify(petersen()), default=cli._report_json))
    assert set(payload) == {
        "d", "lambda", "alon", "brouwer", "gu", "theorem",
        "exact_t", "slack", "tight_gap", "violation",
    }
    assert payload["exact_t"] == {"num": 4, "den": 3}
