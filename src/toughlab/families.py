"""Deterministic generators for the verification corpus.

A family spec such as ``circulant 8 1 2`` is a key of ``FAMILIES``, spelled
out because spec names are a file format, followed by the generator's integer
arguments; adding a family means adding a generator and a ``FAMILIES`` row."""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass
from importlib import resources
from itertools import combinations

from .errors import InvalidParams, RetriesExhausted
from .graph import MAX_VERTICES, Graph, _require_vertex_count, from_edge_list, is_connected

RANDOM_REGULAR_MAX_ATTEMPTS = 1000


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParams(f"cycle needs n >= 3, got {n}")
    _require_vertex_count(n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParams(f"complete needs n >= 1, got {n}")
    _require_vertex_count(n)
    return from_edge_list(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    """Balanced complete bipartite K_{a,a}; unbalanced sides are refused
    because every consumer here wants a regular graph."""
    if a != b:
        raise InvalidParams(f"only balanced K_a,a supported, got ({a},{b})")
    if a < 1:
        raise InvalidParams(f"complete_bipartite needs a >= 1, got {a}")
    _require_vertex_count(2 * a)
    return from_edge_list(2 * a, [(i, a + j) for i in range(a) for j in range(a)])


def hypercube(k: int) -> Graph:
    if not 1 <= k <= 6:
        raise InvalidParams(f"hypercube needs 1 <= k <= 6, got {k}")
    n = 1 << k
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(k) if v < v ^ (1 << b)]
    return from_edge_list(n, edges)


def kneser(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of {0..n-1}, adjacent when disjoint.

    Vertex order is colexicographic (equivalently: increasing subset
    bitmask), fixed so graph6 goldens are stable.
    """
    if k < 1 or n < 2 * k + 1:
        raise InvalidParams(f"kneser needs k >= 1 and n >= 2k+1, got ({n},{k})")
    # C(n, k) >= n, so a large n is refused without the costly binomial.
    _require_vertex_count(n if n > MAX_VERTICES else math.comb(n, k))
    subsets = sorted(
        (sum(1 << e for e in combo) for combo in combinations(range(n), k))
    )
    edges = [
        (i, j)
        for i in range(len(subsets))
        for j in range(i + 1, len(subsets))
        if not subsets[i] & subsets[j]
    ]
    return from_edge_list(len(subsets), edges)


def petersen() -> Graph:
    return kneser(5, 2)


def circulant(n: int, *offsets: int) -> Graph:
    if n < 3:
        raise InvalidParams(f"circulant needs n >= 3, got {n}")
    _require_vertex_count(n)
    steps = sorted(set(offsets))
    if not steps:
        raise InvalidParams(f"circulant {n} needs at least one offset")
    if any(not 1 <= s <= n // 2 for s in steps):
        raise InvalidParams(f"offsets {steps} outside 1..{n // 2} for n={n}")
    edges = [(i, (i + s) % n) for s in steps for i in range(n)]
    return from_edge_list(n, edges)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform pairing model: match d*n half-edges, reject bad outcomes.

    An attempt is rejected if the matching yields a loop, a repeated edge, or
    a disconnected graph.  Deterministic for a fixed seed.
    """
    if d < 0 or d >= n:
        raise InvalidParams(f"need 0 <= d < n, got d={d}, n={n}")
    if n * d % 2:
        raise InvalidParams(f"n*d must be even, got n={n}, d={d}")
    if seed < 0:
        # random.Random(-s) replays seed s.
        raise InvalidParams(f"random_regular needs seed >= 0, got {seed}")
    _require_vertex_count(n)
    rng = random.Random(seed)
    for _ in range(RANDOM_REGULAR_MAX_ATTEMPTS):
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
        f"no valid ({n},{d})-regular graph in {RANDOM_REGULAR_MAX_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# Family specs and the shipped corpus manifest


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def label(self) -> str:
        return " ".join([self.family, *map(str, self.params)])


def parse_family_spec(line: str) -> FamilySpec:
    parts = line.split()
    if not parts:
        raise InvalidParams("empty family spec")
    family, raw = parts[0], parts[1:]
    try:
        params = tuple(int(p) for p in raw)
    except ValueError as exc:
        raise InvalidParams(f"non-integer parameter in {line!r}") from exc
    return FamilySpec(family, params)


FAMILIES = {
    "cycle": cycle,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "hypercube": hypercube,
    "kneser": kneser,
    "petersen": petersen,
    "circulant": circulant,
    "random_regular": random_regular,
}


def build(spec: FamilySpec) -> Graph:
    make = FAMILIES.get(spec.family)
    if make is None:
        raise InvalidParams(f"unknown family {spec.family!r}")
    try:
        inspect.signature(make).bind(*spec.params)
    except TypeError as exc:
        raise InvalidParams(f"{spec.label()!r}: {exc}") from None
    return make(*spec.params)


def load_manifest(text: str) -> list[FamilySpec]:
    specs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            specs.append(parse_family_spec(line))
    return specs


def default_corpus() -> list[FamilySpec]:
    """The shipped verification corpus."""
    text = resources.files("toughlab.data").joinpath("corpus.manifest").read_text()
    return load_manifest(text)
