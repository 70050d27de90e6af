"""Expander mixing lemma checks and the spectral component-count bound.

For a d-regular graph on n vertices with second largest absolute eigenvalue
lam, every pair of vertex subsets A, B satisfies

    |e(A,B) - d|A||B|/n|  <=  lam * sqrt(|A||B| (1-|A|/n)(1-|B|/n))

where e(A,B) counts the edge incidences from A to B.  The single-set form,
on the number e(A) of edges inside A, is ``mixing_check(g, a, a, lam)``:
e(A,A) = 2e(A), so its e_ab, expected, bound and slack are each twice those
of |e(A) - d|A|^2/(2n)| <= (lam/2) |A| (1-|A|/n).

``slack`` is bound minus deviation; the lemma says it is never below zero
(minus the eigenvalue epsilon, since lam itself is computed numerically).
``_size_terms`` gives expected and bound for given sizes and ``_slack`` the
slack, for single pairs and for the sampled scan, which looks both terms up
in per-size tables.  The sampled pairs come from CPython's ``getrandbits``
stream, drawn in bulk through numpy's MT19937; the first sampled scan of a
process pays a one-time ``numpy.random`` import.  The sampled scan counts
e(A,B) exactly, for every n up to 64, from per-byte bit planes of
neighbour counts: one lookup, AND and popcount per byte of B and bit of a
count, instead of one pass per vertex.  The exhaustive scan
(n <= ``EXHAUSTIVE_MAX_N``), which never forms the 4^n pairs, picks its pair
from per-size tables of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import GraphTooLarge, PreconditionViolated
from .graph import Graph, VertexSet, _require_regular, e_between
from .spectra import LAMBDA_EPS, _check_lambda
from .toughness import max_components_over_cuts

EXHAUSTIVE_MAX_N = 10
# Pairs scored per step of the sampled scan: each uint64 array of one word
# per pair is then 64 KiB, under glibc's default 128 KiB mmap threshold, so
# the scan reuses heap pages instead of faulting in fresh ones for every
# temporary.
SAMPLE_CHUNK = 8192


@dataclass(frozen=True)
class MixingCheck:
    a: VertexSet
    b: VertexSet
    e_ab: int
    expected: float
    bound: float
    slack: float


def _size_terms(d: int, n: int, lam: float, ka, kb):
    """``(expected, bound)`` for |A| = ka, |B| = kb: one pair from Python
    numbers, or each element of float64 arrays, with the same roundings."""
    expected = d * ka * kb / n
    bound = lam * np.sqrt(ka * kb * (1.0 - ka / n) * (1.0 - kb / n))
    return expected, bound


def _slack(expected, bound, e):
    """Bound minus the deviation of e = e(A,B) from its expected value."""
    return bound - abs(e - expected)


def _mixing_degree(g: Graph) -> int:
    """Common degree of g, refusing the empty graph: the lemma divides by n."""
    d = _require_regular(g)
    if g.n == 0:
        raise PreconditionViolated("mixing is not defined on a graph with no vertices")
    return d


def mixing_check(g: Graph, a: VertexSet, b: VertexSet, lam: float) -> MixingCheck:
    """Two-set mixing inequality for one pair (A, B), scored by ``_slack``."""
    _check_lambda(lam)
    d = _mixing_degree(g)
    e_ab = e_between(g, a, b)
    expected, bound = _size_terms(d, g.n, lam, len(a), len(b))
    return MixingCheck(a, b, e_ab, expected, float(bound), float(_slack(expected, bound, e_ab)))


def exhaustive_mixing_verify(g: Graph, lam: float) -> MixingCheck:
    """Return the minimum-slack check over every (A, B) pair, in O(2^n n log n).

    The scan's slack is ``bound[|A|,|B|] - |e(A,B) - expected[|A|,|B|]|``
    in floats, with ``expected = (|A||B|) * (d/n)`` and ``bound = (lam*n) *
    (root(|A|) root(|B|))``, ``root(s) = sqrt(s(n-s))/n``.  The rounded
    ``e - expected`` is monotone in the integer e, its ``abs`` is largest at
    one end of any range of e, and ``bound - x`` falls as x grows; so for a
    fixed A and |B| = b the least slack, to the last bit, is at the least or
    the greatest e(A, B).  Since e(A, B) = sum over v in B of |N(v) & A|,
    those are the sums of the b smallest and the b largest of the n counts
    |N(v) & A|.  The first A (by mask) whose least slack is the global
    minimum is then scanned over every B, and the first B reaching it is
    taken: the first minimum in (A, B) mask order, A before B.  It is
    reported through ``mixing_check``, whose ``_slack`` rounds apart from
    these tables on complete 5 and 6; scoring by ``_slack`` would print the
    pinned table's complete 5 row as -0.000000, so that waits for a re-pin.
    """
    _check_lambda(lam)
    d = _mixing_degree(g)
    n = g.n
    if n > EXHAUSTIVE_MAX_N:
        raise GraphTooLarge(
            f"exhaustive mixing on n={n} exceeds the cap {EXHAUSTIVE_MAX_N}"
        )
    s = np.arange(n + 1, dtype=np.float64)
    expected = np.outer(s, s) * (d / n)
    root = np.sqrt(s * (n - s)) / n
    bound = lam * n * np.outer(root, root)

    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(masks)
    # hits[A, v] = |N(v) & A|; e(A, B) is the sum of hits[A, v] over v in B.
    hits = np.bitwise_count(masks[:, None] & np.array(g.adj, dtype=np.int64))
    # least[A, b] / most[A, b]: the sum of the b smallest / largest hits.
    least = np.zeros((1 << n, n + 1), dtype=np.int64)
    least[:, 1:] = np.cumsum(np.sort(hits, axis=1), axis=1)
    most = least[:, -1:] - least[:, ::-1]
    row_bound, row_expected = bound[sizes], expected[sizes]
    row_worst = np.minimum(
        row_bound - np.abs(least - row_expected),
        row_bound - np.abs(most - row_expected),
    ).min(axis=1)
    a_mask = int(np.argmin(row_worst))

    e_row = ((masks[:, None] >> np.arange(n)) & 1) @ hits[a_mask]
    size_a = sizes[a_mask]
    slack = bound[size_a, sizes] - np.abs(e_row - expected[size_a, sizes])
    b_mask = int(np.argmin(slack))
    return mixing_check(g, VertexSet(n, a_mask), VertexSet(n, b_mask), lam)


def _getrandbits_stream(seed: int):
    """numpy's MT19937 in the state of ``random.Random(seed)``: its
    ``random_raw`` words are the 32-bit outputs ``getrandbits`` would use."""
    # The import costs about 14 ms, so only when sampling.  A pure-Python
    # source, np.frombuffer(getrandbits(32*K).to_bytes(...)), would drop it
    # but took 0.56-0.63 ms against 0.11-0.16 ms for random_raw(K) at
    # K = 32,768 (timeit, numpy 2.4, 2 shared cores): 2-3 ms more per
    # 100,000-sample graph, so about 60 ms more per verify-corpus pass.
    from numpy.random import MT19937

    state = random.Random(seed).getstate()[1]
    # Seed 0 only skips the OS entropy read: the state is replaced at once.
    stream = MT19937(0)
    stream.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    return stream


def _random_masks(stream, n: int, count: int) -> np.ndarray:
    """``count`` successive ``getrandbits(n)`` draws, 1 <= n <= 64, as uint64,
    from a ``_getrandbits_stream``.

    CPython builds ``getrandbits(k)`` from 32-bit outputs, least significant
    word first, and shifts the last word right by 32*ceil(k/32) - k.  So
    w*count words, w = ceil(n/32), hold the words of every draw in order, and
    the stream is the same as drawing them one at a time.
    """
    w = -(-n // 32)
    words = stream.random_raw(w * count).reshape(count, w)
    words[:, -1] >>= np.uint64(32 * w - n)
    masks = words[:, 0]
    for i in range(1, w):
        masks = masks | words[:, i] << np.uint64(32 * i)
    return masks


def _size_tables(d: int, n: int, lam: float):
    """``_size_terms`` for every (|A|, |B|), flat: entry |A|*(n+1) + |B|."""
    sizes = np.arange(n + 1, dtype=np.float64)
    return tuple(t.ravel() for t in _size_terms(d, n, lam, sizes[:, None], sizes))


def _count_planes(g: Graph, d: int) -> np.ndarray:
    """``planes[k, j, beta]``: the uint64 mask of the vertices u for which bit
    j of |N(u) & (beta << 8k)| is set, for each byte k of a set, each byte
    value beta and each bit j of a count of at most min(d, 8)."""
    nbytes = -(-g.n // 8)
    adj = np.array(g.adj, dtype="<u8")
    # rows[k, u] is byte k of N(u); counts[k, beta, u] = |N(u) & (beta << 8k)|.
    rows = adj.view(np.uint8).reshape(-1, 8)[:, :nbytes].T
    counts = np.bitwise_count(rows[:, None, :] & np.arange(256, dtype=np.uint8)[:, None])
    levels = np.arange(min(d, 8).bit_length(), dtype=np.uint8)
    bits = counts[:, None] >> levels[:, None, None] & 1
    # Vertex u is bit u of its mask: pack each row of bits little-endian.
    packed = np.zeros((*bits.shape[:-1], 8), dtype=np.uint8)
    packed[..., :nbytes] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8")[..., 0]


def _chunk_slack(n: int, planes: np.ndarray, tables, a_masks: np.ndarray, b_masks: np.ndarray):
    """``_slack`` of each pair (a_masks[i], b_masks[i]) of uint64 masks, with
    expected and bound looked up in ``_size_tables``.

    With beta_k byte k of B, e(A,B) = sum over k of sum over u in A of
    |N(u) & beta_k|, and that count's bit j is set exactly for the u in
    ``planes[k, j, beta_k]`` (``_count_planes``).  So e(A,B) is the sum over
    j of 2^j sum over k of |A & planes[k, j, beta_k]|: one table lookup, AND
    and popcount per byte and bit plane.  Each plane's sum is at most
    8 * 64 and e <= n*d <= 4032, so uint16 holds both exactly.
    """
    b_bytes = b_masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    sums = np.zeros((planes.shape[1], len(a_masks)), dtype=np.uint16)
    for k, plane in enumerate(planes):
        sums += np.bitwise_count(plane.take(b_bytes[:, k], axis=1) & a_masks)
    e = np.zeros(len(a_masks), dtype=np.uint16)
    for j, plane_sum in enumerate(sums):
        e += plane_sum << j
    at = np.bitwise_count(a_masks).astype(np.intp) * (n + 1) + np.bitwise_count(b_masks)
    expected, bound = tables
    return _slack(expected[at], bound[at], e)


def sampled_mixing_verify(g: Graph, samples: int, seed: int, lam: float) -> MixingCheck:
    """Check ``samples`` uniformly random (A, B) pairs, deterministic in seed.

    Each set includes every vertex independently with probability 1/2: the
    i-th pair is A = ``getrandbits(n)`` draw 2i and B = draw 2i+1 of
    ``random.Random(seed)``, so runs are reproducible; the words of that
    stream are drawn in bulk through numpy's MT19937 (``numpy.random`` is
    imported on the first call).  The pairs are scored ``SAMPLE_CHUNK`` at a
    time, in stream order, by ``_slack`` on expected and bound looked up in
    tables over every (|A|, |B|), whose entries are ``_size_terms``' own
    roundings, and on the exact e(A,B) from the graph's ``_count_planes``
    (at most 8 * 4 * 256 words, 64 KiB, built once per call); the first
    pair of least reported slack is kept, as a single pass would keep it.
    """
    _check_lambda(lam)
    d = _mixing_degree(g)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:
        # random.Random(-s) replays seed s, so a negative seed would be a
        # second name for a non-negative one.
        raise ValueError(f"seed must be non-negative, got {seed}")
    n = g.n
    stream = _getrandbits_stream(seed)
    tables = _size_tables(d, n, lam)
    planes = _count_planes(g, d)
    worst = None
    for start in range(0, samples, SAMPLE_CHUNK):
        count = min(SAMPLE_CHUNK, samples - start)
        # Draws alternate A, B; the transposed copy makes each side contiguous.
        a_masks, b_masks = _random_masks(stream, n, 2 * count).reshape(count, 2).T.copy()
        slack = _chunk_slack(n, planes, tables, a_masks, b_masks)
        i = int(np.argmin(slack))
        # A finite lam makes every slack finite, so no NaN can hide a minimum.
        if worst is None or slack[i] < worst[0]:
            worst = (slack[i], int(a_masks[i]), int(b_masks[i]))
    _, a_mask, b_mask = worst
    return mixing_check(g, VertexSet(n, a_mask), VertexSet(n, b_mask), lam)


def component_count_bound(g: Graph, lam: float) -> float:
    """Spectral ceiling lam*n/(d+lam) on c(G-S) for any vertex cut S."""
    d = _require_regular(g)
    _check_lambda(lam)
    return lam * g.n / (d + lam)


def verify_component_bound(g: Graph, lam: float) -> bool:
    """Exhaustively confirm c(G-S) <= lam*n/(d+lam) on every disconnecting cut S.

    Regularity and lam are checked before the cut scan and its size cap.
    """
    bound = component_count_bound(g, lam)
    return max_components_over_cuts(g) <= bound + LAMBDA_EPS
