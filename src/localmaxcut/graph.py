"""Simple undirected graphs with sorted neighbour rows.

Vertices are integers 0..n-1.  A graph is checked and sorted in numpy, then
keeps its edges as sorted (u, v) tuples of Python ints with u < v, which
define equality and hashing, and a regular graph also keeps an (n, d)
read-only array of sorted neighbour rows, which Monte Carlo and the
Hamiltonian build read.  The per-vertex neighbour tuples are derived on
first read.  Neighbour lists are sorted ascending, so every order read
from them is reproducible across runs.  Graph values are immutable after
construction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import hamiltonian

MAX_ATTEMPTS = 1000  # pairings the random regular generator draws at most

NAMED_CUBIC = {
    # complete graph on 4 vertices, girth 3
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    # 3-dimensional hypercube, girth 4
    "CUBE": [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
             (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)],
    # complete bipartite 3+3, girth 4
    "K33": [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
            (2, 3), (2, 4), (2, 5)],
    # Petersen graph, girth 5
    "PETERSEN": [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7),
                 (3, 4), (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9),
                 (7, 9)],
    # Heawood graph (LCF [5,-5]^7), girth 6
    "HEAWOOD": [(0, 1), (0, 5), (0, 13), (1, 2), (1, 10), (2, 3), (2, 7),
                (3, 4), (3, 12), (4, 5), (4, 9), (5, 6), (6, 7), (6, 11),
                (7, 8), (8, 9), (8, 13), (9, 10), (10, 11), (11, 12),
                (12, 13)],
    # McGee graph (LCF [12,7,-7]^8), girth 7
    "MCGEE": [(0, 1), (0, 12), (0, 23), (1, 2), (1, 8), (2, 3), (2, 19),
              (3, 4), (3, 15), (4, 5), (4, 11), (5, 6), (5, 22), (6, 7),
              (6, 18), (7, 8), (7, 14), (8, 9), (9, 10), (9, 21), (10, 11),
              (10, 17), (11, 12), (12, 13), (13, 14), (13, 20), (14, 15),
              (15, 16), (16, 17), (16, 23), (17, 18), (18, 19), (19, 20),
              (20, 21), (21, 22), (22, 23)],
}


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    # (n, d) sorted neighbour rows if the graph is regular, else None
    neighbours: np.ndarray | None = field(compare=False, repr=False)

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples per vertex, built on first read."""
        adj = [[] for _ in range(self.n)]
        # sorted edges reach vertex w from its smaller neighbours first,
        # each in ascending order, so every list comes out sorted
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @functools.cached_property
    def degree(self) -> int | None:
        """Common vertex degree, or None if the graph is not regular."""
        return None if self.neighbours is None else self.neighbours.shape[1]


def philox_key(seed: int, stream: int = 0) -> np.ndarray:
    """The Philox key of a seed: (seed mod 2^64, stream) as a uint64 array,
    so a negative seed keeps its bits (a list key goes through float64).
    The random regular generator, verify's angles and Monte Carlo (one
    stream per trial) all draw from it."""
    return np.array([seed & (2**64 - 1), stream], dtype=np.uint64)


def build_graph(n, edges) -> Graph:
    """Validate an edge list and assemble a Graph: its sorted edges and,
    if it is regular, its neighbour rows.

    edges is an iterable of (u, v) pairs or an (m, 2) integer array.  The
    first bad edge in input order is reported: out of range, a self-loop,
    or a repeat of an earlier edge, which sorting the codes lo*n + hi
    finds.  A non-integer vertex raises TypeError.  Vertex ids become
    Python ints, so numpy integers from the generators do not leak into
    the stored edges.
    """
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if e.size == 0:
        e = np.empty((0, 2), dtype=np.int64)
    elif e.dtype.kind in "biu":
        e = e.astype(np.int64, copy=False)
    else:  # floats and strings fail as index() does; huge ints stay objects
        e = np.array([operator.index(x) for x in e.flat], dtype=object).reshape(e.shape)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {e.shape}")
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    codes = lo * n + hi
    order = np.argsort(codes, kind="stable")  # a repeat sorts after its first
    codes = codes[order]
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    bad[order[1:][codes[1:] == codes[:-1]]] = True
    if bad.any():
        u, v = e[bad.argmax()].tolist()
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
    pairs = np.stack([lo, hi], axis=1)[order].astype(np.int64, copy=False)
    lo, hi = pairs[:, 0], pairs[:, 1]
    counts = np.bincount(pairs.ravel(), minlength=n)
    neighbours = None
    if n and counts.min() == counts.max():
        # each vertex's codes v*n + w sort its neighbours w into its row
        both = np.sort(np.concatenate([lo * n + hi, hi * n + lo]), kind="stable")
        neighbours = (both % n).reshape(n, counts[0])
        neighbours.flags.writeable = False
    return Graph(n=n, edges=tuple(map(tuple, pairs.tolist())), neighbours=neighbours)


def make_cycle(n: int) -> Graph:
    """Cycle graph C_n; the only connected 2-regular graph on n vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    i = np.arange(n)
    return build_graph(n, np.stack([i, (i + 1) % n], axis=1))


def make_named(name: str) -> Graph:
    """One of the stock cubic graphs: K4, CUBE, K33, PETERSEN, HEAWOOD, MCGEE."""
    key = name.upper()
    if key not in NAMED_CUBIC:
        raise ValueError(f"unknown graph {name!r}; choose from {sorted(NAMED_CUBIC)}")
    edges = NAMED_CUBIC[key]
    return build_graph(1 + max(max(e) for e in edges), edges)


def _moore_bound(d: int, g: int, limit: int) -> int:
    """Fewest vertices a d-regular graph of girth >= g can have.

    The ball of radius floor((g-1)/2) around a vertex (odd g) or around an
    edge (even g) is a tree, so its vertices are distinct.  Counting stops
    at the first layer that takes the count past `limit`, which keeps the
    arithmetic small for huge girths and leaves the comparison with any n
    <= limit unchanged.
    """
    k, odd = divmod(g, 2)
    count, layer = (1, d) if odd else (0, 2)
    for _ in range(k):
        if count > limit:
            break
        count += layer
        layer *= d - 1
    return count


def make_random_regular(n: int, d: int, min_girth: int = 3,
                        seed: int = 0) -> Graph:
    """Random d-regular graph with girth >= min_girth via the pairing model.

    Each attempt shuffles the n*d stub list and pairs consecutive stubs,
    MAX_ATTEMPTS times at most.  It is rejected, tested in this order, on
    a self-loop, on a parallel edge (a repeat in a vertex's sorted row of
    partners) or on a cycle shorter than min_girth (`_has_short_cycle`).
    Every attempt takes one shuffle, whatever rejects it, so the order of
    the tests does not change which pairing is accepted.  Deterministic
    for a fixed (n, d, min_girth, seed).  An n below the Moore bound is
    refused before any sampling.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if n * d % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if n <= d:
        raise ValueError(f"need n > d for a simple d-regular graph, got n={n}, d={d}")
    bound = _moore_bound(d, min_girth, limit=n)
    if n < bound:
        raise ValueError(f"no {d}-regular graph on {n} vertices has girth >= "
                         f"{min_girth}: the Moore bound needs n >= {bound}")
    rng = Generator(Philox(key=philox_key(seed)))
    slots = np.arange(n * d)  # stub s belongs to vertex s // d
    place = np.empty_like(slots)
    for _ in range(MAX_ATTEMPTS):
        rng.shuffle(slots)
        pairs = slots.reshape(-1, 2) // d
        u, v = pairs[:, 0], pairs[:, 1]
        if (u == v).any():  # a self-loop
            continue
        place[slots] = np.arange(n * d)
        nbr = (slots[place ^ 1] // d).reshape(n, d)  # row v: v's partners
        # stable sorts page in less of numpy than its default SIMD sort
        rows = np.sort(nbr, axis=1, kind="stable")
        if (rows[:, 1:] == rows[:, :-1]).any():  # a parallel edge
            continue
        if not _has_short_cycle(rows, min_girth):
            return build_graph(n, pairs)
    raise RuntimeError(
        f"no girth-{min_girth} {d}-regular graph on {n} vertices found "
        f"in {MAX_ATTEMPTS} attempts")


def _has_short_cycle(nbr, min_girth: int) -> bool:
    """Whether the simple graph with (n, d) neighbour array nbr has a cycle
    shorter than min_girth.

    Two distinct non-backtracking walks from one root that end on one
    vertex close a cycle no longer than their summed lengths, and a root on
    a cycle of length L sends two such walks of at most ceil(L/2) steps to
    its far side.  So the walks of at most r = (min_girth-1)//2 steps from
    every root end on distinct vertices exactly when no cycle is shorter
    than 2r+1.  For even min_girth, a cycle of length 2r+1 shows as a walk
    of r+1 steps ending where a shorter one does.  Roots go in chunks of
    64, 128, 256, ... roots, doubling up to those whose walks hold about
    `hamiltonian.BLOCK` vertices (or one root's, if more), and the search
    stops at the first chunk with a short cycle.  A pairing's short cycles
    fall on random roots, so small first chunks stop the search near the
    first one instead of after a whole capped chunk, and the cap keeps
    peak memory low.
    """
    if min_girth <= 3:  # a simple graph has no shorter cycle
        return False
    n, d = nbr.shape
    r = (min_girth - 1) // 2
    even = min_girth % 2 == 0
    width = 1 + sum(d * (d - 1) ** k for k in range(r + even))
    cap = max(1, hamiltonian.BLOCK // width)
    start, chunk = 0, min(64, cap)
    while start < n:
        roots = np.arange(start, min(start + chunk, n))
        start, chunk = start + chunk, min(2 * chunk, cap)
        rows = len(roots)
        prev, ends = np.full((rows, 1), -1), roots[:, None]
        tagged = [2 * ends]  # 2v + 1 marks an end after r+1 steps
        for k in range(r + even):
            step = nbr[ends]
            keep = step != prev[..., None]  # each walk drops its one way back
            prev = np.broadcast_to(ends[..., None], step.shape)[keep].reshape(rows, -1)
            ends = step[keep].reshape(rows, -1)
            tagged.append(2 * ends + (k == r))
        seen = np.sort(np.concatenate(tagged, axis=1), axis=1, kind="stable")
        # a vertex reached twice, once within r steps, closes a short cycle;
        # two (r+1)-step walks to one vertex may close a cycle of min_girth
        if np.any((seen[:, 1:] >> 1 == seen[:, :-1] >> 1) & (seen[:, :-1] & 1 == 0)):
            return True
    return False


def girth(g: Graph):
    """Length of the shortest cycle, or math.inf for forests.

    BFS from each root in turn; a non-tree edge (u, w) seen from root r
    closes a walk of length dist(u) + dist(w) + 1 through r, and the
    shortest such walk is no longer than the shortest cycle through r.
    Every cycle through r has then been seen, so r is deleted, and so is
    every vertex left with at most one neighbour, which lies on no cycle.
    On a cycle the first BFS finds the girth and the rest peels away, so
    the work is linear there.
    """
    adj = g.adjacency
    degree = [len(a) for a in adj]
    alive = [True] * g.n

    def delete(stack):
        while stack:
            v = stack.pop()
            if alive[v]:
                alive[v] = False
                for w in adj[v]:
                    degree[w] -= 1
                    if alive[w] and degree[w] <= 1:
                        stack.append(w)

    delete([v for v in range(g.n) if degree[v] <= 1])
    best = math.inf
    for root in range(g.n):
        if not alive[root]:
            continue
        dist, parent = {root: 0}, {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                if 2 * dist[u] >= best:
                    continue
                for w in adj[u]:
                    if not alive[w]:
                        continue
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            queue = nxt
        delete([root])
    return best


def load_edge_list(text: str) -> Graph:
    """Parse 'u v' lines (0-based) into a Graph.

    Every vertex needs an edge, so the ids must be exactly 0..n-1.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex in {line!r}")
        edges.append((u, v))
    if not edges:
        raise ValueError("empty edge list")
    ids = sorted({v for e in edges for v in e})
    if ids[-1] >= len(ids):  # checked before anything is sized by the largest id
        gap = next(i for i, v in enumerate(ids) if i != v)
        raise ValueError(f"vertex {gap} has no edge, but ids run to {ids[-1]}")
    return build_graph(len(ids), edges)


def save_edge_list(g: Graph) -> str:
    """Canonical sorted edge list, one 'u v' per line."""
    return "\n".join(f"{u} {v}" for u, v in g.edges) + "\n"
