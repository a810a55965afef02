"""Simple undirected graphs with ordered neighborhoods.

Vertices are integers 0..n-1.  Edges are stored as sorted (u, v) tuples with
u < v.  Neighbor lists are sorted ascending, so the ordered neighborhood
B(v) = (v, v_1, ..., v_d) is reproducible across runs.  Graph values are
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

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
    adjacency: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def degree(self) -> int | None:
        """Common vertex degree, or None if the graph is not regular."""
        degs = {len(nbrs) for nbrs in self.adjacency}
        return degs.pop() if len(degs) == 1 else None


def build_graph(n, edges) -> Graph:
    """Validate an edge list and assemble a Graph with sorted adjacency.

    Vertex ids become Python ints, so numpy integers from the generators
    do not leak into the stored edges.
    """
    seen = set()
    adj = [[] for _ in range(n)]
    for u, v in edges:
        u, v = operator.index(u), operator.index(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n,
                 edges=tuple(sorted(seen)),
                 adjacency=tuple(tuple(sorted(a)) for a in adj))


def make_cycle(n: int) -> Graph:
    """Cycle graph C_n; the only connected 2-regular graph on n vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


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


def make_random_regular(n: int, d: int, min_girth: int = 3, seed: int = 0,
                        max_attempts: int = 1000) -> Graph:
    """Random d-regular graph with girth >= min_girth via the pairing model.

    Each attempt shuffles the n*d stub list, pairs consecutive stubs, and
    rejects on self-loops, parallel edges, or short cycles.  Deterministic
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
    rng = Generator(Philox(key=[seed & (2**64 - 1), 0]))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_attempts):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(edges) < len(pairs):
            continue
        g = build_graph(n, edges)
        if girth(g) >= min_girth:
            return g
    raise RuntimeError(
        f"no girth-{min_girth} {d}-regular graph on {n} vertices found "
        f"in {max_attempts} attempts")


def girth(g: Graph):
    """Length of the shortest cycle, or math.inf for forests.

    BFS from every root; a non-tree edge (u, w) seen from root r closes a
    walk of length dist(u) + dist(w) + 1 through r.  The minimum over all
    roots and edges is exactly the girth.
    """
    best = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                if 2 * dist[u] >= best:
                    continue
                for w in g.adjacency[u]:
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            queue = nxt
    return best


def neighborhood(g: Graph, v: int) -> tuple[int, ...]:
    """Ordered neighborhood B(v) = (v, neighbors ascending)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return (v,) + g.adjacency[v]


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
