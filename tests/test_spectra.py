import math

import pytest

from toughlab import check_regular_spectrum, spectrum
from toughlab.errors import NotRegularGraph
from toughlab.families import complete, complete_bipartite, cycle, petersen
from toughlab.graph import from_edge_list


def test_complete4_spectrum():
    prof = spectrum(complete(4))
    assert prof.eigenvalues == pytest.approx([3, -1, -1, -1], abs=1e-9)
    assert prof.lam == pytest.approx(1, abs=1e-9)


def test_cycle4_spectrum():
    # circulant eigenvalues 2*cos(2*pi*j/4)
    prof = spectrum(cycle(4))
    assert prof.eigenvalues == pytest.approx([2, 0, 0, -2], abs=1e-9)
    assert prof.lam == pytest.approx(2, abs=1e-9)


def test_cycle5_spectrum():
    expected = sorted((2 * math.cos(2 * math.pi * j / 5) for j in range(5)),
                      reverse=True)
    assert spectrum(cycle(5)).eigenvalues == pytest.approx(expected, abs=1e-9)


def test_petersen_spectrum():
    prof = spectrum(petersen())
    assert prof.eigenvalues == pytest.approx([3] + [1] * 5 + [-2] * 4, abs=1e-9)
    assert prof.lam == pytest.approx(2, abs=1e-9)


def test_second_largest_abs():
    assert spectrum(complete_bipartite(3, 3)).lam == pytest.approx(3, abs=1e-9)
    assert spectrum(complete(5)).lam == pytest.approx(1, abs=1e-9)
    assert spectrum(complete(2)).lam == pytest.approx(1, abs=1e-9)


def test_single_vertex_spectrum():
    prof = spectrum(from_edge_list(1, []))
    assert prof.eigenvalues == (0.0,)
    assert prof.lam is None


def test_check_regular_spectrum():
    p = petersen()
    assert check_regular_spectrum(p, spectrum(p))
    c6 = cycle(6)
    assert check_regular_spectrum(c6, spectrum(c6))


def test_check_regular_spectrum_rejects_irregular():
    path3 = from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegularGraph):
        check_regular_spectrum(path3, spectrum(path3))


@pytest.mark.parametrize("g", [cycle(7), complete(6), petersen(),
                               complete_bipartite(4, 4)])
def test_soundness_identities(g):
    prof = spectrum(g)
    assert abs(sum(prof.eigenvalues)) <= 1e-8
    assert abs(sum(x * x for x in prof.eigenvalues) - 2 * g.m) <= 1e-6
    assert prof.residual <= 1e-8
    assert all(abs(x) <= prof.lambda1 + 1e-9 for x in prof.eigenvalues[1:])
    assert list(prof.eigenvalues) == sorted(prof.eigenvalues, reverse=True)


def test_bipartite_regular_lambda_equals_degree():
    for a in (2, 3, 4):
        prof = spectrum(complete_bipartite(a, a))
        assert prof.lam == pytest.approx(a, abs=1e-9)


def test_determinism():
    p = petersen()
    assert spectrum(p) == spectrum(p)
