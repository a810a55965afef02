import math

import pytest

from localmaxcut import (Graph, girth, load_edge_list, make_cycle, make_named,
                         make_random_regular, neighborhood, save_edge_list)
from localmaxcut.graph import build_graph


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


def test_degree_property():
    assert make_cycle(5).degree == 2
    assert make_named("PETERSEN").degree == 3
    # a path is irregular: endpoints have degree 1
    assert load_edge_list("0 1\n1 2\n").degree is None


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


def test_neighborhood():
    g = make_named("PETERSEN")
    assert neighborhood(g, 0) == (0, 1, 4, 5)
    assert neighborhood(make_cycle(5), 0) == (0, 1, 4)
    with pytest.raises(ValueError):
        neighborhood(g, 10)


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


def test_random_regular_rejects_impossible():
    with pytest.raises(ValueError):
        make_random_regular(10, 1)  # degree too small
    with pytest.raises(ValueError):
        make_random_regular(9, 3)  # odd n*d
    with pytest.raises(ValueError):
        make_random_regular(3, 3)  # n <= d
    with pytest.raises(ValueError):
        # C_4 is the only 2-regular graph on 4 vertices and has girth 4
        make_random_regular(4, 2, min_girth=5, max_attempts=10)
    with pytest.raises(RuntimeError):
        # the Petersen graph is the only girth-5 cubic graph on 10 vertices,
        # and the pairing model almost never draws it
        make_random_regular(10, 3, min_girth=5, max_attempts=10)


def test_random_regular_refuses_below_moore_bound():
    # girth 5 needs the center, its 3 neighbors and their 6 children distinct
    with pytest.raises(ValueError, match=r"Moore bound needs n >= 10"):
        make_random_regular(8, 3, min_girth=5, max_attempts=1)
    # a huge girth is refused without building the astronomical bound
    with pytest.raises(ValueError, match=r"Moore bound needs n >= \d{4}$"):
        make_random_regular(1000, 3, min_girth=10**12, max_attempts=1)
    assert girth(make_random_regular(10, 2, min_girth=10)) == 10


def test_edge_list_roundtrip():
    g = make_named("PETERSEN")
    text = save_edge_list(g)
    assert text.endswith("\n")
    assert load_edge_list(text) == Graph(g.n, g.edges, g.adjacency)
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
