import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from toughlab import families, from_edge_list, graph, spectrum, toughness
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


def count_calls(monkeypatch, name):
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


def relabel(g, seed):
    """The benchmark's frontier relabelling (bench/workloads.py), copied so
    that the tests do not import the benchmark."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def two_cycles(n):
    """The even and the odd vertices of 0..n-1, each a cycle: disconnected,
    and each component spans the whole range of vertex labels."""
    closing = [(0, range(0, n, 2)[-1]), (1, range(1, n, 2)[-1])]
    return from_edge_list(n, [(v, v + 2) for v in range(n - 2)] + closing)


@pytest.fixture(scope="session")
def corpus():
    """The shipped corpus as (spec, graph) pairs."""
    return [(spec, families.build(spec)) for spec in families.default_corpus()]


@pytest.fixture(scope="session")
def corpus_spectra(corpus):
    """Spectral profiles for every corpus graph, computed once."""
    return {spec: spectrum(g) for spec, g in corpus}
