"""Immutable bitset-backed graphs, vertex sets, and edge/component counters.

Vertices are labelled 0..n-1 and each adjacency row is a Python int used as a
bitmask, so set intersections and edge counts reduce to ``&`` and
``int.bit_count``.  Everything here is pure and hashable, and a graph never
changes after construction.  Components are found by one walk,
``_component_masks``.  On a graph with at most ``HALF_TABLE_MAX_N`` vertices
it takes one step per BFS layer: two half neighbourhood tables, built with the
graph, give a layer's neighbourhood in two lookups.  The cut search's BFS for
joining paths (``toughness._joining_path``) reads the same tables.  A larger
graph has no tables, and both walks take one step per vertex through its
adjacency row.  The tables are a field that equality, hashing, ``repr`` and
the graph6 encoding ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import GraphError, PreconditionViolated

# Hard cap on the ambient vertex count.  The exact-toughness search is
# hopeless far below this anyway; the cap keeps every bitmask in one or two
# machine words on CPython.
MAX_VERTICES = 64

# Largest n whose graphs carry the half neighbourhood tables of
# ``Graph._halves``.  A table has 2^ceil(n/2) entries; both together take
# 321 KiB at n = 24 and 1.28 MiB at n = 28 (tracemalloc), built in about 0.4
# and 2 ms.  Past n = 24 the search runs only under a raised ``max_n``, and
# there the tables take exact t on rr(26,3,1), rr(26,4,1) and rr(28,3,1)
# from 1.11, 0.44 and 2.28 s to 0.89, 0.33 and 1.79 s.  Past n = 28 they
# keep doubling with every two vertices (2^32 entries at n = 64), so larger
# graphs walk one adjacency row per vertex.
HALF_TABLE_MAX_N = 28

GRAPH6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class VertexSet:
    """A subset of 0..n-1 for a fixed ambient vertex count ``n``."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > MAX_VERTICES:
            raise GraphError(f"ambient size {self.n} outside 0..{MAX_VERTICES}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0x{self.bits:x} not contained in 0..{self.n - 1}")

    @classmethod
    def of(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in vertices:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} outside 0..{n - 1}")
            bits |= 1 << v
        return cls(n, bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_ambient(other)
        return VertexSet(self.n, self.bits | other.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_ambient(other)
        return VertexSet(self.n, self.bits & other.bits)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ~self.bits & (1 << self.n) - 1)

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check_ambient(other)
        return not self.bits & other.bits

    def _check_ambient(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient size mismatch: {self.n} vs {other.n}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with per-vertex adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]
    m: int
    # ``(w, low, lo, hi)`` for the split of 0..n-1 at w = ceil(n/2), or None
    # past ``HALF_TABLE_MAX_N``.  ``low`` masks vertices 0..w-1, ``lo[x]`` is
    # N(x) for x inside the low half and ``hi[y]`` is N(y << w), so
    # N(S) = lo[S & low] | hi[S >> w] for any vertex set S.  Both BFS walks
    # read them: the component walk and the cut search's joining paths.
    _halves: tuple[int, int, list[int], list[int]] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        halves = None
        if self.n <= HALF_TABLE_MAX_N:
            w = (self.n + 1) // 2
            halves = (w, (1 << w) - 1, _union_table(self.adj[:w]), _union_table(self.adj[w:]))
        object.__setattr__(self, "_halves", halves)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        ]


def _union_table(rows: tuple[int, ...]) -> list[int]:
    """``table[x]`` is the union of ``rows[i]`` over the bits i of x; each
    row doubles the table, so every entry costs one ``|``."""
    table = [0]
    for row in rows:
        table += [t | row for t in table]
    return table


def _require_vertex_count(n: int) -> None:
    """Refuse a vertex count outside 0..``MAX_VERTICES`` before anything is built."""
    if n < 0 or n > MAX_VERTICES:
        raise GraphError(f"n={n} outside 0..{MAX_VERTICES}")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from vertex pairs.  Duplicate edges collapse silently."""
    _require_vertex_count(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    m = sum(row.bit_count() for row in adj) // 2
    return Graph(n, tuple(adj), m)


def components(g: Graph, removed: VertexSet) -> list[VertexSet]:
    """Connected components of the induced subgraph on V minus ``removed``.

    Sorted by size ascending, ties broken by smallest contained vertex, so
    downstream constructions are deterministic.
    """
    if removed.n != g.n:
        raise ValueError("removed set has wrong ambient size")
    avail = ~removed.bits & (1 << g.n) - 1
    comps = _component_masks(g, avail)
    comps.sort(key=lambda c: (c.bit_count(), c & -c))
    return [VertexSet(g.n, c) for c in comps]


def _component_masks(g: Graph, avail: int) -> list[int]:
    # The one component walk.  ``rest`` loses each vertex as it is reached,
    # so a component is what ``rest`` lost since its first vertex.  With the
    # half tables each step reaches a whole BFS layer, ``front``, in two
    # lookups; without them (n > HALF_TABLE_MAX_N) each step pops one vertex
    # and reaches through its adjacency row.
    comps = []
    if g._halves is None:
        adj = g.adj
        while avail:
            todo = avail & -avail
            rest = avail ^ todo
            while todo:
                low = todo & -todo
                todo ^= low
                reached = adj[low.bit_length() - 1] & rest
                rest ^= reached
                todo |= reached
            comps.append(avail ^ rest)
            avail = rest
        return comps
    w, low, lo, hi = g._halves
    while avail:
        front = avail & -avail
        rest = avail ^ front
        while front:
            front = (lo[front & low] | hi[front >> w]) & rest
            rest ^= front
        comps.append(avail ^ rest)
        avail = rest
    return comps


def count_components(g: Graph, removed_bits: int) -> int:
    """Number of components after deleting the vertices in ``removed_bits``.

    Mask-level entry point for the exhaustive searches: one call per cut, and
    the toughness search and its benchmark count cuts by counting these
    calls.  It runs the one walk, ``_component_masks``, and counts the
    components it returns.  Taking a BFS layer per step through the half
    tables, instead of a vertex per step, took the benchmark's corpus
    workload from a median wall time of 0.436 to 0.368 s (-16%) and its
    frontier workload from 0.100 to 0.095 s (10 alternating 30 s pairs, 2
    cores, CPython 3.11).
    """
    return len(_component_masks(g, ~removed_bits & (1 << g.n) - 1))


def e_between(g: Graph, a: VertexSet, b: VertexSet) -> int:
    """Edge incidences with one end in ``a`` and the other in ``b``.

    Edges with both ends in the intersection count twice; e(A,A) is twice the
    number of edges inside A.
    """
    if a.n != g.n or b.n != g.n:
        raise ValueError("vertex set has wrong ambient size")
    return sum((g.adj[v] & b.bits).bit_count() for v in a)


def regularity(g: Graph) -> int | None:
    """Common degree d if the graph is regular, else None."""
    if g.n == 0:
        return 0
    d = g.degree(0)
    for v in range(1, g.n):
        if g.degree(v) != d:
            return None
    return d


def is_connected(g: Graph) -> bool:
    return g.n >= 1 and len(_component_masks(g, (1 << g.n) - 1)) == 1


def _require_regular(g: Graph) -> int:
    """Common degree of a regular graph; the error names a deviating vertex."""
    d = regularity(g)
    if d is None:
        v = next(v for v in range(g.n) if g.degree(v) != g.degree(0))
        raise PreconditionViolated(
            f"vertex {v} has degree {g.degree(v)}, graph is not regular")
    return d


def _require_connected(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise PreconditionViolated(f"{what} is defined for connected graphs only")


# ---------------------------------------------------------------------------
# graph6


def emit_graph6(g: Graph) -> str:
    """Encode as a single graph6 line (standard 6-bit upper-triangle format)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(g.adj[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr((bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
             | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]) + 63)
        for k in range(0, len(bits), 6)
    )
    return head + body


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; the optional ``>>graph6<<`` header is stripped."""
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise GraphError("empty graph6 line")
    if any(not 63 <= ord(ch) <= 126 for ch in line):
        raise GraphError(f"character outside graph6 range in {line!r}")
    if ord(line[0]) == 126:
        if len(line) >= 2 and ord(line[1]) == 126:
            raise GraphError("graph6 36-bit size form exceeds the vertex cap")
        if len(line) < 4:
            raise GraphError("truncated graph6 size field")
        n = 0
        for ch in line[1:4]:
            n = n << 6 | ord(ch) - 63
        body = line[4:]
    else:
        n = ord(line[0]) - 63
        body = line[1:]
    if n > MAX_VERTICES:
        raise GraphError(f"graph6 line encodes n={n} > {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError(f"graph6 body length {len(body)} wrong for n={n}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend(val >> s & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphError(f"nonzero padding bits in graph6 line {line!r}")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Decode the edge-list format; a repeated edge is an error here."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"bad header line {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"non-integer edge line {ln!r}") from exc
    g = from_edge_list(n, edges)
    if g.m != m:
        seen = set()
        for u, v in edges:
            if (u, v) in seen:
                raise GraphError(f"repeated edge {u} {v}")
            seen.update([(u, v), (v, u)])
    return g


def parse_graph(text: str) -> Graph:
    """Decode an edge list if the first nonblank line is two integers (its
    "n m" header), and otherwise exactly one graph6 line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    first = lines[0] if lines else ""
    parts = first.split()
    if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
        return parse_edge_list(text)
    if len(lines) > 1:
        raise GraphError(f"{len(lines)} graph6 lines; expected exactly one graph")
    return parse_graph6(first)
