import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from toughlab import families, from_edge_list, spectrum
from toughlab.toughness import _subsets_of_size

# Tests that start `python -m toughlab.cli` need the package that pytest's
# `pythonpath` setting gives this process, also without an install.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def independent_sets_of_size(g, k):
    """Brute-force: all independent vertex sets of size k, as bitmasks."""
    found = []
    for mask in _subsets_of_size(g.n, k):
        ok = True
        bits = mask
        while bits:
            low = bits & -bits
            if g.adj[low.bit_length() - 1] & mask:
                ok = False
                break
            bits ^= low
        if ok:
            found.append(mask)
    return found


def independence_number(g):
    """Brute-force alpha(G) over all 2^n vertex sets, independent of the scan."""
    return max(mask.bit_count() for mask in range(1 << g.n)
               if not any(mask >> v & 1 and g.adj[v] & mask for v in range(g.n)))


def graphs(max_n=12):
    """Hypothesis strategy for arbitrary simple graphs."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=3 * n,
        ).map(lambda edges: from_edge_list(n, edges))
    )


@pytest.fixture(scope="session")
def corpus():
    """The shipped corpus as (spec, graph) pairs."""
    return [(spec, families.build(spec)) for spec in families.default_corpus()]


@pytest.fixture(scope="session")
def corpus_spectra(corpus):
    """Spectral profiles for every corpus graph, computed once."""
    return {spec: spectrum(g) for spec, g in corpus}
