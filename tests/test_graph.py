import hashlib
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from localmaxcut import (girth, load_edge_list, make_cycle, make_named,
                         make_random_regular, save_edge_list)
from derivations import random_regular_loops
from localmaxcut import graph, hamiltonian
from localmaxcut.cli import parse_graph_spec
from localmaxcut.graph import _has_short_cycle, build_graph

# SHA-256 of save_edge_list for each spec (n, d, min_girth, seed), recorded
# when every attempt still went through build_graph and a full girth check:
# the benchmark's girth-5 panel, small cubic graphs like the cold verify
# list's, a 2-regular graph of girth 10 and a 4-regular one.
PINNED = {
    (1000, 3, 5, 1): "28a47f8f41ecf282a6a794f0ca91efc13397050d242e30978443339798faa0ae",
    (1500, 3, 5, 2): "9473d8ee40747f14f1ed2dfa2c197241c0101f8f6bb3da4727ad2ad11740e84a",
    (2000, 3, 5, 3): "2f066b4a895a3c71dff5e8fde56f8a072418048460f8fe73ec2a9967c6141b69",
    (10, 3, 3, 101): "ea1251bb9f4109fa5631f435608eb0545983f4a0df7f9a11438e6b3228c85bcf",
    (10, 3, 4, 102): "c79228ecb736194242586d614c1187cf36e638c33e7bb99fd0602ba880145846",
    (12, 3, 3, 103): "dc8b101c2c99a9d83501cd1df649d3ffa9715dcfdd919c810bea42407d812ad4",
    (12, 3, 4, 104): "865a6aecf94b6f30f1285f978437180105f02bd7a455ea3d0046d6e5238f4d71",
    (14, 3, 3, 105): "9d1331d349e1b79c12866045ab89a501fc23c92b90fffcb311a5cc1ab902b27c",
    (14, 3, 4, 106): "1a458dd39b47c98cf6b672ed1d7035d3dae5132f88eae36b2cd461bb5952a5ff",
    (30, 2, 10, 0): "53151e80d60e9be3c21d15d0ed79fbe5d89110ad48821881c7d67a2eddad1c8f",
    (40, 4, 3, 1): "f8f566b629a1b876c2f9efbf46e302e0eae5e050d5c93c8e59c0a27e7a191ad7",
}


def test_build_graph_normalizes_and_sorts():
    g = build_graph(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.adjacency == ((2,), (2, 3), (0, 1), (1,))


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])  # self-loop
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0)])  # duplicate
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])  # out of range


@pytest.mark.parametrize("edges, message", [
    ([(0, 5), (1, 1)], r"edge \(0,5\) out of range for n=3"),
    ([(1, 1), (0, 5)], "self-loop at vertex 1"),
    ([(0, 1), (1, 0), (2, 2)], r"duplicate edge \(0, 1\)"),
])
def test_build_graph_reports_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_graph(3, edges)


def test_build_graph_vertex_types():
    with pytest.raises(TypeError):
        build_graph(3, [(0.0, 1)])
    g = build_graph(3, [(np.int64(0), np.int32(1)), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert all(type(v) is int for e in g.edges for v in e)
    assert build_graph(3, np.array([[0, 1], [1, 2]])) == g


def test_build_graph_degree_and_ragged_adjacency():
    assert build_graph(0, []).degree is None
    assert build_graph(0, []).neighbours is None
    g = build_graph(5, [(4, 0), (0, 3), (1, 0), (2, 3)])
    assert g.degree is None and g.neighbours is None
    assert g.adjacency == ((1, 3, 4), (0,), (3,), (0, 2), (0,))


def test_neighbours_are_sorted_read_only_rows():
    g = make_named("PETERSEN")
    assert g.neighbours.dtype == np.int64 and g.neighbours.shape == (10, 3)
    assert g.neighbours.tolist() == [
        sorted(w for e in g.edges if v in e for w in e if w != v) for v in range(g.n)]
    with pytest.raises(ValueError):
        g.neighbours[0, 0] = 9


@pytest.mark.parametrize("spec", [
    "cycle:3", "cycle:2001", *(f"named:{name}" for name in graph.NAMED_CUBIC),
    "random:1000,3,3,2", "random:200,4,3,3", "random:500,3,5,4"])
def test_adjacency_is_the_neighbour_rows_on_regular_graphs(spec):
    # the walk over sorted edges, the one derivation, lists each row of
    # the numpy neighbour array
    g = parse_graph_spec(spec)
    assert g.adjacency == tuple(map(tuple, g.neighbours.tolist()))


def test_degree_property():
    assert make_cycle(5).degree == 2
    assert make_named("PETERSEN").degree == 3
    # a path is irregular: endpoints have degree 1
    assert load_edge_list("0 1\n1 2\n").degree is None
    # computed on first read and kept on the frozen graph, which still
    # compares and hashes by its vertices and edges
    g = make_named("PETERSEN")
    assert "degree" not in vars(g)
    assert g.degree == 3 and vars(g)["degree"] == 3
    assert g == make_named("PETERSEN")
    assert hash(g) == hash(make_named("PETERSEN"))


# SHA-256 of save_edge_list(make_cycle(n)), recorded when make_cycle built
# its edge list as Python tuples
CYCLE_PINNED = {
    3: "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af",
    2010: "b1cf23e4295588165f325401d0872d56243f9bad990a55aeb27ed2d5a096578a",
    8030: "c57020b25d528fd839e61b79b0d2b85630010f111a6aed4a487f19b3ebe5384c",
}


@pytest.mark.parametrize("n", sorted(CYCLE_PINNED))
def test_make_cycle_output_pinned(n):
    text = save_edge_list(make_cycle(n))
    assert hashlib.sha256(text.encode()).hexdigest() == CYCLE_PINNED[n]


def test_make_cycle():
    g = make_cycle(3)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        make_cycle(2)


@pytest.mark.parametrize("name,n,girth_expected", [
    ("K4", 4, 3),
    ("CUBE", 8, 4),
    ("K33", 6, 4),
    ("PETERSEN", 10, 5),
    ("HEAWOOD", 14, 6),
    ("MCGEE", 24, 7),
])
def test_named_cubic_graphs(name, n, girth_expected):
    g = make_named(name)
    assert g.n == n
    assert g.degree == 3
    assert len(g.edges) == 3 * n // 2
    assert girth(g) == girth_expected


def test_make_named_case_and_unknown():
    assert make_named("petersen").edges == make_named("PETERSEN").edges
    with pytest.raises(ValueError):
        make_named("TUTTE")


def test_girth_of_cycles_and_forests():
    for n in (3, 4, 7, 11):
        assert girth(make_cycle(n)) == n
    assert girth(load_edge_list("0 1\n1 2\n2 3\n")) == math.inf


def test_girth_matches_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(2, 40)
        # every fifth graph is a forest; the rest mix cycles of all lengths
        m = n - 1 if seed % 5 == 0 else rng.randrange(min(2 * n, n * (n - 1) // 2) + 1)
        G = nx.random_labeled_tree(n, seed=seed) if seed % 5 == 0 else \
            nx.gnm_random_graph(n, m, seed=seed)
        for new in range(n, n + rng.randrange(15)):  # trees hanging off
            G.add_edge(rng.randrange(new), new)
        g = build_graph(G.number_of_nodes(), list(G.edges()))
        assert girth(g) == nx.girth(G), seed


def test_random_regular_basic():
    g = make_random_regular(20, 3, min_girth=4, seed=11)
    assert g.degree == 3
    assert g.n == 20
    assert girth(g) >= 4


def test_random_regular_holds_python_ints():
    g = make_random_regular(20, 3, min_girth=4, seed=11)
    assert all(type(v) is int for e in g.edges for v in e)
    assert all(type(v) is int for nbrs in g.adjacency for v in nbrs)


def test_random_regular_deterministic():
    a = make_random_regular(30, 3, min_girth=3, seed=5)
    b = make_random_regular(30, 3, min_girth=3, seed=5)
    c = make_random_regular(30, 3, min_girth=3, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_random_regular_negative_seed_keeps_its_key():
    # the Philox key went through float64, so every negative seed keyed 0
    # (and warned, which pytest makes an error)
    graphs = {make_random_regular(20, 3, min_girth=3, seed=seed).edges
              for seed in (0, -1, -2)}
    assert len(graphs) == 3


def test_random_regular_rejects_impossible(monkeypatch):
    with pytest.raises(ValueError):
        make_random_regular(10, 1)  # degree too small
    with pytest.raises(ValueError):
        make_random_regular(9, 3)  # odd n*d
    with pytest.raises(ValueError):
        make_random_regular(3, 3)  # n <= d
    with pytest.raises(ValueError):
        # C_4 is the only 2-regular graph on 4 vertices and has girth 4
        make_random_regular(4, 2, min_girth=5)
    # the Petersen graph is the only girth-5 cubic graph on 10 vertices,
    # and the pairing model almost never draws it
    monkeypatch.setattr(graph, "MAX_ATTEMPTS", 10)
    with pytest.raises(RuntimeError):
        make_random_regular(10, 3, min_girth=5)


def test_random_regular_refuses_below_moore_bound():
    # girth 5 needs the center, its 3 neighbors and their 6 children distinct
    with pytest.raises(ValueError, match=r"Moore bound needs n >= 10"):
        make_random_regular(8, 3, min_girth=5)
    # a huge girth is refused without building the astronomical bound
    with pytest.raises(ValueError, match=r"Moore bound needs n >= \d{4}$"):
        make_random_regular(1000, 3, min_girth=10**12)
    assert girth(make_random_regular(10, 2, min_girth=10)) == 10


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_random_regular_output_pinned(spec):
    n, d, min_girth, seed = spec
    text = save_edge_list(make_random_regular(n, d, min_girth=min_girth, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[spec]


def test_random_regular_exhausts_attempts_on_rare_specs():
    # a triangle-free 4-regular pairing is too rare for 1000 attempts
    with pytest.raises(RuntimeError, match="in 1000 attempts"):
        make_random_regular(40, 4, min_girth=4, seed=1)


def test_short_cycle_search_matches_girth(monkeypatch):
    # at the default budget every graph here fits one chunk of roots; at a
    # budget of one element each chunk holds one root, as the roots of a
    # graph of thousands of vertices span many chunks at the default
    budgets = (hamiltonian.BLOCK, 1)
    rng = np.random.default_rng(0)
    simple = 0
    while simple < 300:
        n, d = 2 * int(rng.integers(3, 16)), int(rng.integers(2, 5))
        pairs = rng.permutation(np.repeat(np.arange(n), d)).reshape(-1, 2)
        edges = {(min(u, v), max(u, v)) for u, v in pairs.tolist()}
        if np.any(pairs[:, 0] == pairs[:, 1]) or len(edges) < len(pairs):
            continue
        simple += 1
        g = build_graph(n, edges)
        nbr, shortest = np.array(g.adjacency), girth(g)
        for budget in budgets:
            monkeypatch.setattr(hamiltonian, "BLOCK", budget)
            for min_girth in range(3, 8):
                assert _has_short_cycle(nbr, min_girth) == (shortest < min_girth)


# (n, d, min_girth, seed): degrees 2..5 and girths 3..6 from the Moore
# bound up to n = 2000, accepted and exhausted; the classical Monte Carlo
# benchmark's girth-5 panel and six of its verify_cold graphs
GENERATOR_SPECS = [
    (3, 2, 3, 0), (7, 2, 5, 7), (12, 2, 6, 7), (2000, 2, 4, 7), (2000, 2, 6, 0),
    (4, 3, 3, 7), (6, 3, 4, 7), (10, 3, 5, 7), (14, 3, 6, 7), (60, 3, 6, 0),
    (200, 3, 4, 7), (500, 3, 6, 2), (2000, 3, 3, 7),
    (1000, 3, 5, 1), (1500, 3, 5, 2), (2000, 3, 5, 3),
    (10, 3, 3, 365194888), (10, 3, 4, 190322391), (12, 3, 3, 1813093863),
    (12, 3, 4, 1961820489), (14, 3, 3, 889309816), (14, 3, 4, 981990933),
    (5, 4, 3, 7), (200, 4, 4, 7), (17, 4, 5, 7), (26, 4, 6, 7), (2000, 4, 3, 7),
    (6, 5, 3, 7), (60, 5, 3, 2), (10, 5, 4, 7), (26, 5, 5, 7), (42, 5, 6, 7),
]


def test_random_regular_accepts_the_pairing_of_the_first_loop():
    # the row test for parallel edges and the growing root chunks reject
    # the same pairings as the sorted edge codes and fixed chunks, and each
    # attempt still takes one shuffle, so the same pairing is accepted, or
    # none; over the list every rejection branch is taken
    rejected = np.zeros(3, dtype=int)
    for n, d, min_girth, seed in GENERATOR_SPECS:
        pairs, counts = random_regular_loops(n, d, min_girth, seed)
        rejected += counts
        if pairs is None:
            with pytest.raises(RuntimeError, match="attempts"):
                make_random_regular(n, d, min_girth=min_girth, seed=seed)
        else:
            g = make_random_regular(n, d, min_girth=min_girth, seed=seed)
            assert g.edges == build_graph(n, pairs).edges
    assert rejected.all()


def test_short_cycle_search_reaches_every_root_chunk():
    # at the default budget girth-4 walks on a cubic graph take 1,638
    # roots a chunk, after chunks of 64, 128, ..., 1,024 roots, so 4,000
    # roots span seven chunks, from roots 0, 64, 192, 448, 960, 1984 and
    # 3622.  The one triangle is seen only from its own vertices: numbered
    # from each chunk's first root on, through root 0 and as the highest
    # three, it is found
    g = make_random_regular(4000, 3, min_girth=3, seed=3)
    nbr = g.neighbours
    triangles = [(u, v, int(w)) for u, v in g.edges for w in nbr[u]
                 if v < w and w in nbr[v]]
    assert len(triangles) == 1
    rest = [v for v in range(g.n) if v not in triangles[0]]
    label = np.empty(g.n, dtype=int)
    for first in (0, 64, 192, 448, 960, 1984, 3622, g.n - 3):
        label[rest[:first] + [*triangles[0]] + rest[first:]] = np.arange(g.n)
        h = build_graph(g.n, label[np.array(g.edges)])
        assert girth(h) == 3 and _has_short_cycle(h.neighbours, 4), first


def test_random_regular_huge_girth_bounded_memory(monkeypatch):
    # n passes the Moore bound for girth 30, and seed 1's first pairing is
    # simple, so the attempt reaches the short-cycle search; walking every
    # root at once would hold about 20 GB
    monkeypatch.setattr(graph, "MAX_ATTEMPTS", 1)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(RuntimeError, match="in 1 attempts"):
            make_random_regular(100_000, 3, min_girth=30, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 5.0
    assert peak < 64 * 2**20


def test_edge_list_roundtrip():
    g = make_named("PETERSEN")
    text = save_edge_list(g)
    assert text.endswith("\n")
    assert load_edge_list(text) == build_graph(g.n, g.edges)
    assert load_edge_list(text).edges == g.edges


def test_load_edge_list_skips_comments_and_blanks():
    g = load_edge_list("# triangle\n\n0 1\n 1 2 \n0 2\n")
    assert g.edges == make_cycle(3).edges


@pytest.mark.parametrize("text", [
    "",  # empty
    "0 1 2\n",  # wrong arity
    "0 x\n",  # non-integer
    "-1 2\n",  # negative vertex
    "0 1\n5 6\n",  # vertices 2..4 have no edge
    "0 999999999\n",  # refused before n is sized by the largest id
])
def test_load_edge_list_rejects(text):
    with pytest.raises(ValueError):
        load_edge_list(text)
