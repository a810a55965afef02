"""The analytic engine against brute-force families, its per-pair route,
the statevector, and the printed closed forms; the tree series against
the closed forms, a light-cone statevector and a bit-by-bit enumeration.
"""

import contextlib
import gc
import itertools
import json
import math
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from derivations import (closed_form_f2, closed_form_f3,
                         light_cone_statevector, odd_intersection_terms,
                         prob_satisfied_initial, tree_enumeration, zk_ball_d3,
                         zk_edge_d2, zk_edge_d3, zk_pair_d2, zk_per_pair)
from localmaxcut import (Clause, build_localmaxcut_hamiltonian,
                         expectation_full, explain_zk,
                         fourier_encode_clause, girth, load_edge_list,
                         make_cycle, make_hamiltonian, make_named,
                         make_random_regular, mask_of, qaoa_expectation_sv,
                         vertices_of)
from localmaxcut import hamiltonian, qaoa_engine
from localmaxcut.classical import EXACT_MAX_DEGREE
from localmaxcut.cli import VERIFY_BLOCK, main, parse_graph_spec
from localmaxcut.hamiltonian import DiagonalHamiltonian
from localmaxcut.optimize import _canonical_qaoa, qaoa_objective
from localmaxcut.qaoa_engine import (COSET_CAP, FAMILY_CAP, _alphas, _bits,
                                     _factors, _families, _gather,
                                     expectation_terms, full_value)

ANGLES = [(0.37, 0.21), (1.1, 0.8), (2.8, 2.9), (5.9, 0.05)]


def girth7_certificate(d, kind):
    """A girth-7 LocalMaxCut Hamiltonian and the subset K whose <Z_K> has a
    closed form.  <Z_K> sees only the terms that meet K, so on girth >= 7
    it equals its value on the infinite d-regular tree.
    """
    if d == 2:
        h = build_localmaxcut_hamiltonian(make_cycle(7))
        return h, mask_of((2, 3) if kind == "EDGE" else (2, 4))
    g = make_named("MCGEE")
    h = build_localmaxcut_hamiltonian(g)
    if kind == "EDGE":
        return h, mask_of((0, g.adjacency[0][0]))
    return h, mask_of((0, *g.neighbours[0].tolist()))


def brute_families(masks, K):
    """Reference implementation: filter the full powerset by XOR, in
    depth-first order (each term left out before it is put in)."""
    out = []
    for chosen in itertools.product((False, True), repeat=len(masks)):
        family = tuple(m for m, c in zip(masks, chosen) if c)
        acc = 0
        for m in family:
            acc ^= m
        if acc == K:
            out.append(family)
    return out


def solution_families(masks, K):
    """The families the solver lists, as tuples of masks, as
    brute_families lists them."""
    return [tuple(m for m, r in zip(masks, row) if r)
            for row in _bits(_families(masks, K), len(masks))]


def odd_masks(terms, L):
    return [m for m, _ in odd_intersection_terms(terms, L)]


def pair_records(pairs, K):
    """The pairs of `pairs`, the gather of K alone, in (|L|, L) order, as
    (L as a vertex mask, the masks of K's cone in term order, O(L), the
    pair's slice of pairs.codes, the pair's index)."""
    masks = [pairs.terms[t][0] for t in pairs.cones[0].tolist()]
    vertices = vertices_of(K)
    starts = (np.cumsum(pairs.count) - pairs.count).tolist()
    for pair, (subset, within, start, count) in enumerate(zip(
            pairs.subset.tolist(), pairs.within.tolist(), starts,
            pairs.count.tolist())):
        L = mask_of(v for j, v in enumerate(vertices) if subset >> j & 1)
        yield L, masks, within, slice(start, start + count), pair


def gathered(h, K):
    """(L, masks of K's cone, O(L), families) for each subset L of K in
    (|L|, L) order, read from the engine's gather of K alone."""
    pairs = _gather(h, [K])
    for L, masks, within, families, _ in pair_records(pairs, K):
        yield L, masks, within, pairs.codes[families]


def test_odd_intersection_on_path_patch():
    h, K = girth7_certificate(2, "EDGE")
    assert K == mask_of((2, 3))
    o = odd_masks(h.nonconstant_terms(), mask_of([2]))
    assert sorted(vertices_of(m) for m in o) == [[0, 2], [1, 2], [2, 3], [2, 4]]
    # the edge {2,3} meets K twice, so it drops out of O(K)
    oK = odd_masks(h.nonconstant_terms(), K)
    assert mask_of((2, 3)) not in oK
    assert len(oK) == 6
    # a term that meets L oddly meets K, so the terms that meet K give
    # every O(L) with L a subset of K, in the same order
    cone = [(m, w) for m, w in h.terms if m & K]
    for L in range(K + 1):
        if L & K == L:
            assert odd_intersection_terms(cone, L) == \
                odd_intersection_terms(h.terms, L)
    # the gather builds each O(L) over the cone from the O({v}) of its
    # vertices, since parity is linear in L
    for L, masks, within, _ in gathered(h, K):
        assert [m for m, r in zip(masks, _bits(within, len(masks))) if r] \
            == odd_masks(h.terms, L)


def test_solution_families_golden():
    h, K = girth7_certificate(2, "EDGE")
    o = odd_masks(h.nonconstant_terms(), mask_of([2]))
    # only the edge term itself can produce the symmetric difference {2,3}
    assert solution_families(o, K) == [(mask_of((2, 3)),)]
    oK = odd_masks(h.nonconstant_terms(), K)
    fams = solution_families(oK, K)
    assert len(fams) == 2
    assert sorted(sorted(vertices_of(m) for m in f) for f in fams) == [
        [[1, 2], [1, 3]], [[2, 4], [3, 4]]]


def test_solution_families_cap():
    with pytest.raises(ValueError, match="exceed the enumeration cap"):
        _families([1 << v for v in range(FAMILY_CAP + 1)], 1)
    # 25 terms through vertex 0 on 6 vertices fit FAMILY_CAP, but only 6
    # of them are independent, so 2^19 families reach K = {0}.  They are
    # refused before any is listed.
    h = make_hamiltonian(6, {1 | s << 1: 0.1 * (s + 1) for s in range(25)})
    with pytest.raises(ValueError, match=(
            rf"light cone: 524288 families of 25 terms exceed the coset cap "
            rf"{COSET_CAP} at K = \[0\]")):
        expectation_terms(h, [1], (0.3, 0.2))[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=63), min_size=0,
                max_size=12),
       st.integers(min_value=0, max_value=63))
def test_solution_families_complete(masks, K):
    # the same families in the same order, which `qaoa explain` prints:
    # with 12 terms on 6 vertices a K that is reached has 64 families or
    # more, listed by doubling and then sorted
    assert solution_families(masks, K) == brute_families(masks, K)


def test_engine_keeps_nothing_of_its_hamiltonian():
    # each light cone is solved within the call, so no H outlives it
    h = make_hamiltonian(4, {0b0101: 0.5, 0b1100: -0.25, 0b0111: 0.375})
    expectation_full(h, ANGLES[0])
    dead = weakref.ref(h)
    del h
    gc.collect()
    assert dead() is None


@pytest.mark.parametrize("graph", ["C7", "K4", "PETERSEN", "RANDOM"])
def test_term_alone_equals_term_among_all(graph):
    # a <Z_K> asked for alone is grouped only with its own pairs, and
    # among every term of H with the pairs of every K; both must give the
    # same bits
    if graph == "RANDOM":
        g = make_random_regular(12, 3, min_girth=3, seed=4)
        assert girth(g) == 3
    else:
        g = make_cycle(7) if graph == "C7" else make_named(graph)
    h = build_localmaxcut_hamiltonian(g)
    gammas, betas = _random_angles(5, 7)
    Ks = [K for K, _ in h.nonconstant_terms()]
    for K, value in zip(Ks, expectation_terms(h, Ks, (gammas, betas))):
        assert np.array_equal(
            expectation_terms(h, [K], (gammas, betas))[0], value)


def loop_alphas(h, masks, families, gamma):
    """alpha_F multiplied out one term at a time, in term order: the
    reference for the engine's one reduction over the terms."""
    weights = dict(h.terms)
    alphas = np.ones((len(families), len(gamma)), dtype=complex)
    for i, m in enumerate(masks):
        alphas *= np.where(families[:, i, None],
                           1j * np.sin(-2 * gamma * weights[m]),
                           np.cos(2 * gamma * weights[m]))
    return alphas


def test_family_products_match_term_loop(monkeypatch):
    # whole blocks and one row of families at a time give the bits of the
    # complex term-by-term loop, up to the sign of a zero: alpha_F is
    # i^|F| times one real product, and alpha'_F is that product with the
    # sign of i^|F| or of i^(|F|-1), so alpha'_F i^(|F| mod 2) is alpha_F.
    # The terms of H have families of odd size and the XOR of two terms
    # even ones, so every |F| mod 4 is met; gamma = 0 makes every sine 0
    h = build_localmaxcut_hamiltonian(make_named("HEAWOOD"))
    gamma, beta = _random_angles(50, 14)
    gamma[:2] = 0.0
    terms = [K for K, _ in h.nonconstant_terms()]
    Ks = terms + [terms[0] ^ terms[2], terms[3] ^ terms[7]]
    for block in (hamiltonian.BLOCK, 1):
        monkeypatch.setattr(hamiltonian, "BLOCK", block)
        most, sizes = 0, set()
        for K in Ks:
            pairs = _gather(h, [K])
            factors = _factors(pairs.terms, gamma)
            for L, masks, within, rows, pair in pair_records(pairs, K):
                # the product runs over the cone and reads 1.0 for the
                # terms outside O(L); the loop runs over O(L) alone
                codes = pairs.codes[rows]
                odd = _bits(within, len(masks))
                families = _bits(codes, len(masks))
                assert not np.any(families[:, ~odd])
                alphas = _alphas(pairs, np.full(len(codes), pair), codes,
                                 factors)
                assert alphas.dtype == np.float64
                size = np.bitwise_count(codes)
                assert np.array_equal(
                    np.where(size[:, None] & 1, 1j * alphas, alphas),
                    loop_alphas(h, odd_masks(h.terms, L), families[:, odd],
                                gamma))
                assert not np.any(alphas[:, :2])
                most = max(most, len(families))
                sizes.update((size & 3).tolist())
        assert most > 1 and sizes == {0, 1, 2, 3}


def test_expectation_zk_rejects_bad_subsets():
    h = build_localmaxcut_hamiltonian(make_cycle(5))
    with pytest.raises(ValueError):
        expectation_terms(h, [0], (0.3, 0.2))[0]
    with pytest.raises(ValueError):
        expectation_terms(h, [1 << 5], (0.3, 0.2))[0]


def test_breakdown_structure():
    h, K = girth7_certificate(2, "EDGE")
    gamma, beta = 0.37, 0.21
    value = expectation_terms(h, [K], (gamma, beta))[0]
    bd = explain_zk(h, K, (gamma, beta))
    assert bd["K"] == vertices_of(K)
    assert bd["total"] == value
    # one record per contributing subset L of K, ordered by size: L = {}
    # has none, as O(empty) is empty and no family reaches K
    records = bd["contributions"]
    assert [len(rec["L"]) for rec in records] == [1, 1, 2]
    assert all(rec["families"] for rec in records)
    # nu(L) = i^|L| sin(2b)^|L| cos(2b)^(|K|-|L|)
    s, c = math.sin(2 * beta), math.cos(2 * beta)
    for rec in records:
        k = len(rec["L"])
        nu = complex(*rec["nu"])
        assert nu == pytest.approx((1j * s) ** k * c ** (2 - k))
        assert complex(*rec["rho"]) == pytest.approx(
            nu * sum(complex(*a) for a in rec["alphas"]))
    assert sum(rec["rho"][0] for rec in records) == pytest.approx(value)


def test_breakdown_json():
    # plain data: JSON round-trips it unchanged, complex numbers as
    # [re, im] pairs of Python floats
    h, K = girth7_certificate(2, "EDGE")
    bd = explain_zk(h, K, (0.5, 0.25))
    assert json.loads(json.dumps(bd)) == bd
    with pytest.raises(ValueError, match="one angle pair"):
        explain_zk(h, K, (np.array([0.5, 0.6]), 0.25))
    assert bd["K"] == [2, 3]
    rec = bd["contributions"][1]
    assert rec["L"] in ([2], [3])
    assert all(len(z) == 2 and all(type(x) is float for x in z)
               for z in rec["alphas"])


def test_breakdown_writes_no_negative_zero():
    # at gamma = 0 every sine is -0.0 and each alpha_F and rho an exact
    # zero; every zero part is written 0.0, whatever sign the arithmetic
    # gave it, so the record does not rest on how a zero was reached
    h = build_localmaxcut_hamiltonian(make_named("PETERSEN"))
    terms = [K for K, _ in h.nonconstant_terms()]
    for K in (terms[0], max(terms, key=int.bit_count)):
        for gamma, beta in ((0.0, 0.3), (-0.0, 0.0), (0.37, 0.21)):
            bd = explain_zk(h, K, (gamma, beta))
            records = bd["contributions"]
            parts = [bd["total"]] + [x for rec in records for z in (
                rec["nu"], rec["rho"], *rec["alphas"]) for x in z]
            assert all(math.copysign(1.0, x) == 1.0
                       for x in parts if x == 0.0)
            if gamma == 0.0:
                assert any(rec["alphas"] for rec in records)
                assert not any(any(z) for rec in records
                               for z in (rec["rho"], *rec["alphas"]))


@pytest.mark.parametrize("d,kind,closed_form", [
    (2, "EDGE", zk_edge_d2),
    (2, "PAIR", zk_pair_d2),
    (3, "EDGE", zk_edge_d3),
    (3, "BALL", zk_ball_d3),
])
def test_patch_reproduces_closed_form(d, kind, closed_form):
    h, K = girth7_certificate(d, kind)
    for angles in ANGLES:
        engine = expectation_terms(h, [K], angles)[0]
        assert engine == pytest.approx(closed_form(angles), abs=1e-12)


def test_engine_vs_statevector_smoke():
    for g in (make_cycle(3), make_cycle(4), make_cycle(5), make_named("K4")):
        h = build_localmaxcut_hamiltonian(g)
        for angles in ANGLES:
            assert expectation_full(h, angles) == pytest.approx(
                qaoa_expectation_sv(h, angles), abs=1e-10)


def draw_hamiltonian(data):
    """Arbitrary diagonal Hamiltonians, not only LocalMaxCut ones: random
    terms, or sums of Walsh-encoded clauses with random truth tables
    (Hadfield, arXiv:1804.09130).  At most 8 terms, or 2 clauses on at
    most 4 vertices, keeps every light cone within the caps: at most 24
    terms, and at most 2^18 families in its coset (two dense clauses that
    share two vertices)."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=1, max_value=8))
        weights = {}
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            support = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                         max_size=min(4, n), unique=True))
            table = data.draw(st.lists(st.sampled_from((0.0, 1.0)),
                                       min_size=2 ** len(support),
                                       max_size=2 ** len(support)))
            clause = Clause(support=tuple(support), truth_table=tuple(table))
            for m, w in fourier_encode_clause(clause).terms:
                weights[m] = weights.get(m, 0.0) + w
    else:
        n = data.draw(st.integers(min_value=1, max_value=6))
        masks = data.draw(st.lists(
            st.integers(min_value=1, max_value=2**n - 1),
            min_size=1, max_size=8, unique=True))
        weights = dict(zip(masks, data.draw(st.lists(
            st.floats(min_value=-2.0, max_value=2.0).filter(lambda w: w != 0.0),
            min_size=len(masks), max_size=len(masks)))))
    return make_hamiltonian(n, weights)


def test_densest_drawn_cone_fits_the_coset_cap():
    # two 4-vertex clauses with every Walsh term, sharing two vertices:
    # the cone of {0,1,2,3} has 24 terms on 6 vertices, so 2^18 families
    # in its coset, the most draw_hamiltonian can give
    table = (0.0,) * 15 + (1.0,)
    weights = {}
    for support in ((0, 1, 2, 3), (0, 1, 4, 5)):
        clause = Clause(support=support, truth_table=table)
        for m, w in fourier_encode_clause(clause).terms:
            weights[m] = weights.get(m, 0.0) + w
    h = make_hamiltonian(6, weights)
    cone = [m for m, _ in h.terms if m & 0b1111]
    assert len(cone) == 24 and len(_families(cone, 0b1111)) == COSET_CAP
    for angles in ANGLES[:2]:
        assert expectation_full(h, angles) == pytest.approx(
            qaoa_expectation_sv(h, angles), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_vs_statevector_random_hamiltonians(data):
    h = draw_hamiltonian(data)
    angles = (data.draw(st.floats(min_value=0.0, max_value=2 * math.pi)),
              data.draw(st.floats(min_value=0.0, max_value=math.pi)))
    assert expectation_full(h, angles) == pytest.approx(
        qaoa_expectation_sv(h, angles), abs=1e-9)


@contextlib.contextmanager
def element_budget(elements):
    """hamiltonian.BLOCK set to `elements` for the duration."""
    saved = hamiltonian.BLOCK
    hamiltonian.BLOCK = elements
    try:
        yield
    finally:
        hamiltonian.BLOCK = saved


def assert_matches_per_pair(h, count, seed):
    """expectation_terms over every term of h equals zk_per_pair bit for
    bit at `count` angle pairs, for the default BLOCK, for blocks
    of one element, and for blocks that split the largest pair's families
    in two.  Returns that pair's (families, cone width)."""
    Ks = [K for K, _ in h.nonconstant_terms()]
    gamma, beta = _random_angles(count, seed)
    reference = np.array([zk_per_pair(h, K, gamma, beta).real for K in Ks],
                         dtype=float).reshape(len(Ks), count)
    pairs = _gather(h, Ks)
    families, size = int(pairs.count.max(initial=0)), pairs.cones.shape[1]
    split = max(1, families * size * count // 2)
    for block in (hamiltonian.BLOCK, 1, split):
        with element_budget(block):
            values = expectation_terms(h, Ks, (gamma, beta))
        assert values.shape == (len(Ks), count)
        assert np.array_equal(values.view(np.uint64),
                              reference.view(np.uint64))
    return families, size


@pytest.mark.parametrize("graph", ["K4", "RANDOM", "HEAWOOD", "K33",
                                   "PETERSEN"])
@pytest.mark.parametrize("count", [1, 2, 50])
def test_expectation_terms_match_per_pair_route(graph, count):
    # grouping the (K, L) pairs of every term by shape, in blocks of whole
    # pairs or of rows of one pair's families, changes no bit of any <Z_K>;
    # on K33 and PETERSEN a family group at 50 pairs spans many blocks
    if graph == "RANDOM":
        g = make_random_regular(12, 3, min_girth=3, seed=4)
        assert girth(g) == 3
    else:
        g = make_named(graph)
    families, size = assert_matches_per_pair(
        build_localmaxcut_hamiltonian(g), count, seed=count)
    # the split block holds about half of that pair's rows of families
    assert families >= 2
    if graph in ("K33", "PETERSEN") and count == 50:
        # one pair's (families, S, B) product spans dozens of blocks
        assert families * size * count > 16 * hamiltonian.BLOCK


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_expectation_terms_match_per_pair_route_random(data):
    assert_matches_per_pair(draw_hamiltonian(data),
                            data.draw(st.sampled_from((1, 2, 50))),
                            seed=data.draw(st.integers(0, 2 ** 16)))


@pytest.mark.parametrize("name", ["K33", "PETERSEN", "HEAWOOD"])
def test_one_block_of_every_term_stays_small(name):
    # the where-array and the alpha'_F are made a chunk at a time, so one
    # call over every term at verify's block size stays within 1.5 MiB
    # (made whole, they took 201 MiB on PETERSEN and 36 MiB on HEAWOOD;
    # complex alpha_F and sums took K33 and PETERSEN above 1.5 MiB)
    h = build_localmaxcut_hamiltonian(make_named(name))
    Ks = [K for K, _ in h.nonconstant_terms()]
    angles = _random_angles(VERIFY_BLOCK, 5)
    expectation_terms(h, Ks, angles)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        expectation_terms(h, Ks, angles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_expectation_terms_shapes():
    h = build_localmaxcut_hamiltonian(make_named("PETERSEN"))
    Ks = [K for K, _ in h.nonconstant_terms()][:5]
    gammas, betas = np.meshgrid(np.linspace(0.0, 2 * math.pi, 4),
                                np.linspace(0.0, math.pi, 3), indexing="ij")
    values = expectation_terms(h, Ks, (gammas, betas))
    assert values.shape == (5, 4, 3)
    for K, value in zip(Ks, values):
        assert np.array_equal(
            value, expectation_terms(h, [K], (gammas, betas))[0])
    assert expectation_terms(h, Ks, (0.3, 0.2)).shape == (5,)
    assert expectation_terms(h, [], (gammas, betas)).shape == (0, 4, 3)


def test_closed_forms_batch_matches_scalar():
    gammas, betas = np.meshgrid(np.linspace(0.0, 2 * math.pi, 9),
                                np.linspace(0.0, math.pi, 7), indexing="ij")
    for closed_form in (closed_form_f2, closed_form_f3):
        batch = closed_form(1, (gammas, betas))
        assert batch.shape == gammas.shape
        for g, b, v in zip(gammas.ravel(), betas.ravel(), batch.ravel()):
            assert v == pytest.approx(closed_form(1, (float(g), float(b))),
                                      abs=1e-12)


@pytest.mark.parametrize("graph", ["C7", "K33", "PETERSEN"])
def test_engine_batch_matches_scalar(graph):
    # within 1e-12, not bit for bit: numpy sums a pair's families pairwise
    # for a lone angle pair and in order for a batch, so on K33 and
    # PETERSEN the last bits differ (see expectation_terms); C7's pairs
    # have too few families to tell
    g = make_cycle(7) if graph == "C7" else make_named(graph)
    h = build_localmaxcut_hamiltonian(g)
    gammas, betas = np.meshgrid(np.linspace(0.0, 2 * math.pi, 9),
                                np.linspace(0.0, math.pi, 7), indexing="ij")
    points = list(zip(gammas.ravel().tolist(), betas.ravel().tolist()))
    for K, _ in h.nonconstant_terms():
        batch = expectation_terms(h, [K], (gammas, betas))[0]
        assert batch.shape == gammas.shape
        scalar = [expectation_terms(h, [K], a)[0] for a in points]
        assert all(isinstance(v, float) for v in scalar)
        assert np.max(np.abs(batch.ravel() - scalar)) <= 1e-12
    batch = expectation_full(h, (gammas, betas))
    scalar = [expectation_full(h, a) for a in points]
    assert np.max(np.abs(batch.ravel() - scalar)) <= 1e-12


def test_expectation_full_of_a_constant_has_the_angles_shape():
    # with no term to sum, F is the constant at every angle pair, as a
    # float for float angles and an array of their broadcast shape else
    h = make_hamiltonian(2, {0: 1.5})
    assert isinstance(expectation_full(h, (0.3, 0.2)), float)
    for gammas, betas in ((np.zeros(4), np.ones(4)),
                          (np.zeros((2, 3)), np.ones((2, 3))),
                          (np.zeros((2, 1)), np.ones(3))):
        value = expectation_full(h, (gammas, betas))
        assert isinstance(value, np.ndarray)
        assert value.shape == np.broadcast_shapes(gammas.shape, betas.shape)
        assert (value == 1.5).all()


def test_full_value_takes_int_weights_and_one_row_per_term():
    # a term map built directly may hold ints; F comes out as the float
    # one of the same weights gives, and values of another term list fail
    exact = DiagonalHamiltonian(3, ((0, 1), (0b011, 2), (0b110, -1)))
    floats = DiagonalHamiltonian(3, ((0, 1.0), (0b011, 2.0), (0b110, -1.0)))
    for angles in ((0.3, 0.2), (np.linspace(0.0, 3.0, 5), np.ones(5))):
        value = expectation_full(exact, angles)
        assert np.array_equal(value, expectation_full(floats, angles))
    assert isinstance(expectation_full(exact, (0.3, 0.2)), float)
    values = expectation_terms(floats, [0b011], (0.3, 0.2))
    with pytest.raises(ValueError):
        full_value(floats, values)


def test_nan_angle_refused_by_residue_check():
    # a NaN angle is refused before any work, on every entry of a batch
    h, K = girth7_certificate(2, "EDGE")
    with pytest.raises(ValueError, match="must be finite"):
        expectation_terms(h, [K], (math.nan, 0.2))[0]
    with pytest.raises(ValueError, match="must be finite"):
        explain_zk(h, K, (0.3, math.nan))
    with pytest.raises(ValueError, match="must be finite"):
        expectation_terms(h, [K], (np.array([0.3, math.nan, 0.5]), 0.2))[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_refused_without_families(bad):
    # on C5, K = {0} has no family for any L, so the sum is 0 whatever
    # gamma is, and a non-finite gamma never reached the residue check
    h = build_localmaxcut_hamiltonian(make_cycle(5))
    assert all(len(codes) == 0 for *_, codes in gathered(h, 1))
    with pytest.raises(ValueError, match="must be finite"):
        expectation_terms(h, [1], (bad, 0.3))[0]
    with pytest.raises(ValueError, match="must be finite"):
        expectation_terms(h, [1], (0.3, bad))[0]
    with pytest.raises(ValueError, match="must be finite"):
        explain_zk(h, 1, (bad, 1.0))


@pytest.mark.parametrize("graph,K", [("C7", 0b11), ("C5", 0b1)])
def test_overflowing_gamma_refused(graph, K):
    # 2 gamma W_M overflows a double at gamma = 1e308: the sines and
    # cosines would not be numbers (C7's {0, 1} has families, C5's {0}
    # none), so gamma is refused by name before numpy warns
    h = build_localmaxcut_hamiltonian(make_cycle(int(graph[1:])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for angles in ((1e308, 0.2), (np.array([0.3, -1e308]), 0.2)):
            with pytest.raises(ValueError,
                               match=r"gamma = 1e\+308 overflows 2 gamma W_M"):
                expectation_terms(h, [K], angles)[0]
        with pytest.raises(ValueError, match="gamma = 1e\\+308"):
            explain_zk(h, K, (1e308, 0.2))
        with pytest.raises(ValueError, match=r"beta = 1e\+308 overflows"):
            expectation_terms(h, [K], (0.3, 1e308))[0]
        # within range, a large gamma is still evaluated
        assert abs(expectation_terms(h, [K], (1e300, 0.2))[0]) <= 1.0
    assert caught == []


def test_family_of_other_parity_refused(capsys, monkeypatch):
    # nu(L) alpha_F is real because |F| = |L| (mod 2) for every family of
    # O_K(L); a solver that flips one term of every family breaks that
    # parity, and the gather refuses it rather than sum a wrong real part
    solve = qaoa_engine._families
    monkeypatch.setattr(qaoa_engine, "_families",
                        lambda masks, K: solve(masks, K) ^ 1)
    h = build_localmaxcut_hamiltonian(make_cycle(7))
    with pytest.raises(ArithmeticError, match="parity"):
        expectation_terms(h, [K for K, _ in h.nonconstant_terms()],
                          (0.3, 0.2))
    for argv in (["verify", "--graph", "cycle:7"],
                 ["qaoa", "explain", "--graph", "cycle:7", "--subset", "0,1",
                  "--gamma", "0.3", "--beta", "0.2"]):
        assert main(argv) == 2
        assert "parity" in capsys.readouterr().err


def test_closed_form_f2_on_high_girth_cycles():
    for n in (7, 8, 9):
        h = build_localmaxcut_hamiltonian(make_cycle(n))
        for angles in ANGLES:
            assert expectation_full(h, angles) == pytest.approx(
                closed_form_f2(n, angles), abs=1e-10)


def test_engine_beyond_64_vertices():
    # The engine keeps term masks as Python ints, so it has no vertex
    # limit.  Moving the C7 certificate to vertices 90..96 of a 100-vertex
    # Hamiltonian must change nothing but the labels.
    h, K = girth7_certificate(2, "EDGE")
    shift = 90
    far = DiagonalHamiltonian(n=100, terms=tuple((m << shift, w)
                                                 for m, w in h.terms))
    for angles in ANGLES:
        assert abs(expectation_terms(far, [K << shift], angles)[0]
                   - zk_edge_d2(angles)) <= 1e-12
    assert abs(expectation_full(far, ANGLES[1])
               - closed_form_f2(7, ANGLES[1])) <= 1e-12
    near, moved = (explain_zk(hh, KK, ANGLES[0])
                   for hh, KK in ((h, K), (far, K << shift)))
    assert abs(moved["total"] - near["total"]) <= 1e-12
    assert [[[[v + shift for v in m] for m in fam] for fam in rec["families"]]
            for rec in near["contributions"]] == \
        [rec["families"] for rec in moved["contributions"]]


def test_engine_beyond_64_vertices_at_array_angles():
    # the gather restricts each term to K's vertices and keeps no vertex
    # mask in an array, so the certificate moved to vertices 90..96 gives
    # every <Z_K> bit for bit, in whole blocks and in blocks of one element
    h, _ = girth7_certificate(2, "EDGE")
    shift = 90
    far = DiagonalHamiltonian(n=100, terms=tuple((m << shift, w)
                                                 for m, w in h.terms))
    angles = _random_angles(50, 100)
    for block in (hamiltonian.BLOCK, 1):
        with element_budget(block):
            near, moved = (expectation_terms(
                hh, [m for m, _ in hh.nonconstant_terms()], angles)
                for hh in (h, far))
            assert np.array_equal(near.view(np.uint64), moved.view(np.uint64))


def traced_peak(call):
    """The traced peak, in bytes, of call() after one untraced call has
    made numpy's first-call allocations; and its result."""
    call()
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_one_k_on_a_long_cycle_costs_its_cone():
    # the terms are listed by the vertices of the Ks alone, so one K on a
    # 20000-vertex cycle costs its cone of three edges, not n: a (terms x
    # n) bit matrix would take 3 GB.  Its record is C7's, bit for bit.
    def cycle(n):
        return make_hamiltonian(n, {1 << v | 1 << (v + 1) % n: 0.5
                                    for v in range(n)})

    near = explain_zk(cycle(7), 0b11, ANGLES[0])
    h = cycle(20000)
    peak, far = traced_peak(lambda: explain_zk(h, 0b11, ANGLES[0]))
    assert peak < 8 * 2 ** 20
    assert far["total"] == near["total"]
    assert [rec["alphas"] for rec in far["contributions"]] == \
        [rec["alphas"] for rec in near["contributions"]]


def test_one_wide_term_pads_no_other():
    # the Ks of one size share that size's subsets, so one 16-vertex term
    # among 100 edges costs its own 2^16 pairs and no more, and the pair
    # sums are folded a block at a time: 7 MiB at verify's block size
    # (every K padded to 2^16 subsets took 229 MiB, and the sums of every
    # pair at once 68 MiB)
    weights = {mask_of(range(16)): 0.3}
    weights.update({1 << v | 1 << (v + 1): 0.5 for v in range(15, 115)})
    h = make_hamiltonian(116, weights)
    Ks = [K for K, _ in h.nonconstant_terms()]
    gamma, beta = _random_angles(VERIFY_BLOCK, 16)
    peak, values = traced_peak(lambda: expectation_terms(h, Ks, (gamma, beta)))
    assert peak < 16 * 2 ** 20
    # each K's value is its own, whatever the other sizes in the call; the
    # first edge has the wide term in its cone
    assert np.array_equal(values[0],
                          expectation_terms(h, [Ks[0]], (gamma, beta))[0])
    for i in range(1, 4):
        assert np.array_equal(values[i].view(np.uint64), np.real(
            zk_per_pair(h, Ks[i], gamma, beta)).view(np.uint64))
    narrow = expectation_terms(h, Ks[1:], (gamma, beta))
    assert np.array_equal(values[1:].view(np.uint64), narrow.view(np.uint64))


def test_a_k_with_no_family_costs_its_cone():
    # an 18-vertex K that no term touches has an empty coset: the engine
    # lists none of its 2^18 subsets (0.95 s and 28 MiB when it did), and
    # its value is 0.0 beside the Ks that have families, and explain_zk
    # gives it no record
    h = make_hamiltonian(40, {mask_of((0, 1)): 1.0, mask_of((2, 3)): 0.5})
    far = mask_of(range(20, 38))
    start = time.perf_counter()
    peak, value = traced_peak(
        lambda: expectation_terms(h, [far], ANGLES[0])[0])
    assert time.perf_counter() - start < 0.1
    assert peak < 2 * 2 ** 20
    assert value == 0.0
    Ks = [mask_of((0, 1)), far, mask_of((2, 3))]
    gamma, beta = _random_angles(5, 19)
    values = expectation_terms(h, Ks, (gamma, beta))
    assert np.array_equal(values[1], np.zeros(5))
    for i in (0, 2):
        assert np.array_equal(values[i], expectation_terms(
            h, [Ks[i]], (gamma, beta))[0])
    record = explain_zk(h, mask_of(range(20, 23)), ANGLES[0])
    assert record["total"] == 0.0
    assert record["contributions"] == []


def submasks(K):
    """The subsets L of K in (|L|, L) order."""
    subsets = [K]
    while subsets[-1]:
        subsets.append((subsets[-1] - 1) & K)
    return sorted(subsets, key=lambda L: (L.bit_count(), L))


def assert_lists_the_contributing_pairs(h, Ks):
    """The gather of Ks lists, for each K in (|L|, L) order, exactly the
    subsets L with a family of O(L) whose XOR is K, each with its family
    count: no pair without a family, and no L with one left out."""
    pairs = _gather(h, Ks)
    assert np.all(pairs.count >= 1)
    listed = [[] for _ in Ks]
    for i, subset, count in zip(pairs.k.tolist(), pairs.subset.tolist(),
                                pairs.count.tolist()):
        vertices = vertices_of(Ks[i])
        L = mask_of(v for j, v in enumerate(vertices) if subset >> j & 1)
        listed[i].append((L, count))
    for K, found in zip(Ks, listed):
        counts = [(L, len(_families(odd_masks(h.terms, L), K)))
                  for L in submasks(K)]
        assert found == [(L, n) for L, n in counts if n]


@pytest.mark.parametrize("spec", [f"cycle:{n}" for n in range(3, 10)] + [
    f"named:{name}" for name in ("K4", "CUBE", "K33", "PETERSEN", "HEAWOOD")])
def test_gather_lists_only_the_pairs_with_families(spec):
    # every term of H, the XOR of two terms, and vertex 0 alone, which
    # has no family on the cycles of girth 5 and more, in one gather
    h = build_localmaxcut_hamiltonian(parse_graph_spec(spec))
    terms = [K for K, _ in h.nonconstant_terms()]
    Ks = terms + [terms[0] ^ terms[-1], terms[1] ^ terms[2], 1]
    assert_lists_the_contributing_pairs(h, [K for K in Ks if K])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gather_lists_only_the_pairs_with_families_random(data):
    h = draw_hamiltonian(data)
    Ks = [K for K, _ in h.nonconstant_terms()] + [1 << v for v in range(h.n)]
    assert_lists_the_contributing_pairs(h, Ks)


def matching_hamiltonian(n):
    """The LocalMaxCut Hamiltonian of a perfect matching on n vertices:
    one edge term per pair, so the only family of a K made of whole
    pairs is those pairs, reached by the L that takes one end of each."""
    return build_localmaxcut_hamiltonian(load_edge_list(
        "".join(f"{2 * i} {2 * i + 1}\n" for i in range(n // 2))))


def test_wide_k_explains_only_its_contributing_subsets():
    # an 18-vertex K of a matching has 2^18 subsets and 2^9 contributing
    # ones; explain lists those 512 (the 262,144 records of every L took
    # 6.6 s and 284 MiB), with the total's bits unchanged
    h = matching_hamiltonian(18)
    K = mask_of(range(18))
    peak, record = traced_peak(lambda: explain_zk(h, K, (0.3, 0.2)))
    assert peak < 16 * 2 ** 20
    assert len(record["contributions"]) == 512
    assert all(len(rec["L"]) == 9 and len(rec["families"]) == 1
               for rec in record["contributions"])
    assert record["total"] == -0.00029347762930961575
    assert record["total"] == expectation_terms(h, [K], (0.3, 0.2))[0]


def test_subsets_of_a_k_with_families_are_capped():
    # 2^|K| subsets past COSET_CAP are refused before they are listed when
    # K's coset is not empty; a K with no family lists none, whatever |K|
    h = matching_hamiltonian(40)
    wide = mask_of(range(20))
    for call in (lambda: expectation_terms(h, [wide], (0.3, 0.2)),
                 lambda: explain_zk(h, wide, (0.3, 0.2))):
        with pytest.raises(ValueError, match=(
                rf"1048576 subsets L of \|K\| = 20 vertices exceed the "
                rf"coset cap {COSET_CAP}")):
            call()
    odd = mask_of(range(21))  # 21 vertices cut the pair {20, 21}
    assert expectation_terms(h, [odd], (0.3, 0.2))[0] == 0.0
    assert explain_zk(h, odd, (0.3, 0.2))["contributions"] == []


def test_closed_form_f2_fails_below_girth_threshold():
    # C_5 has girth 5 < 7: wrap-around families shift the expectation
    h = build_localmaxcut_hamiltonian(make_cycle(5))
    deviation = max(abs(expectation_full(h, a) - closed_form_f2(5, a))
                    for a in ANGLES)
    assert deviation > 1e-3


def test_closed_form_f3_on_mcgee():
    # girth 7 cubic graph: every term sees a tree out to the needed radius
    h = build_localmaxcut_hamiltonian(make_named("MCGEE"))
    for angles in ANGLES:
        assert expectation_full(h, angles) == pytest.approx(
            closed_form_f3(24, angles), abs=1e-10)
        assert expectation_full(h, angles) == pytest.approx(
            24 * qaoa_objective(3)(angles), abs=1e-10)


FULL_CLOSED_FORMS = {2: closed_form_f2, 3: closed_form_f3}


@pytest.mark.parametrize("d", range(1, EXACT_MAX_DEGREE + 1))
@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * math.pi),
       st.floats(min_value=0.0, max_value=math.pi))
@example(0.3, math.nextafter(math.pi / 2, 0.0))  # beta + pi/2 rounds to pi
@example(2 * math.pi, 0.0)
def test_angle_symmetries(d, gamma, beta):
    # shifting beta by pi/2 applies X to every qubit, up to a phase, and
    # flipping every bit leaves H unchanged, so F is invariant (for
    # degree 2: it negates sin(2b) and cos(2b), and every term has even
    # |K|).  Reflecting both angles conjugates the state and F is real.
    forms = [qaoa_objective(d)]
    if d in FULL_CLOSED_FORMS:
        forms.append(lambda x: FULL_CLOSED_FORMS[d](1, x))
    for f in forms:
        assert f((gamma, beta)) == pytest.approx(
            f((gamma, beta + math.pi / 2)), abs=1e-10)
        assert f((gamma, beta)) == pytest.approx(
            f((2 * math.pi - gamma, math.pi - beta)), abs=1e-10)
    # the image the optimizer reports: in [0, pi] x [pi/2, pi), as good a
    # point as the original, and its own image
    g, b = _canonical_qaoa((gamma, beta))
    assert 0.0 <= g <= math.pi and math.pi / 2 <= b < math.pi
    assert forms[0]((g, b)) == pytest.approx(forms[0]((gamma, beta)),
                                             abs=1e-10)
    assert _canonical_qaoa((g, b)) == (g, b)


def _random_angles(count, seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, count]))
    return rng.uniform(0.0, 2 * math.pi, count), rng.uniform(0.0, math.pi, count)


@pytest.mark.parametrize("d", range(1, EXACT_MAX_DEGREE + 1))
def test_tree_series_at_zero_angles_is_initial_satisfaction(d):
    # gamma = 0 or beta = 0 leaves the uniform start's distribution as it is
    gammas, betas = _random_angles(32, d)
    series = qaoa_objective(d)
    for angles in ((0.0, betas), (gammas, 0.0)):
        assert np.max(np.abs(series(angles) - prob_satisfied_initial(d))) \
            <= 1e-12


@pytest.mark.parametrize("d", sorted(FULL_CLOSED_FORMS))
def test_tree_series_equals_closed_forms(d):
    grid = np.meshgrid(np.linspace(0.0, 2 * math.pi, 41),
                       np.linspace(0.0, math.pi, 23), indexing="ij")
    for angles in (grid, _random_angles(1000, d)):
        assert np.max(np.abs(qaoa_objective(d)(angles)
                             - FULL_CLOSED_FORMS[d](1, angles))) <= 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_tree_series_equals_light_cone_statevector(d):
    for angles in ANGLES:
        assert abs(qaoa_objective(d)(angles)
                   - light_cone_statevector(d, angles)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tree_series_equals_bit_enumeration(d):
    for angles in ANGLES[1:3]:
        assert abs(qaoa_objective(d)(angles)
                   - tree_enumeration(d, angles)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * math.pi))
def test_half_angle_identities(g):
    # the four product-to-sum identities used to compact the ball term
    assert math.cos(g) * math.cos(g / 2) + math.sin(g) * math.sin(g / 2) \
        == pytest.approx(math.cos(g / 2), abs=1e-12)
    assert math.cos(g) * math.cos(g / 2) - math.sin(g) * math.sin(g / 2) \
        == pytest.approx(math.cos(3 * g / 2), abs=1e-12)
    assert math.cos(g) ** 3 * math.sin(g / 2) + math.sin(g) ** 3 * math.cos(g / 2) \
        == pytest.approx((3 * math.sin(3 * g / 2) - math.sin(5 * g / 2)) / 4,
                         abs=1e-12)
    assert math.cos(g) ** 3 * math.cos(g / 2) - math.sin(g) ** 3 * math.sin(g / 2) \
        == pytest.approx((3 * math.cos(3 * g / 2) + math.cos(5 * g / 2)) / 4,
                         abs=1e-12)


def test_family_cap_enforced_in_engine():
    # a dense term system blows past the cap and must refuse, not stall:
    # on K_30 the subset {0,1} meets 2 * 28 = 56 edge terms an odd number
    # of times
    n = 30
    weights = {mask_of((u, v)): -0.5 for u in range(n) for v in range(u + 1, n)}
    h = make_hamiltonian(n, weights)
    with pytest.raises(ValueError):
        expectation_terms(h, [mask_of((0, 1))], (0.3, 0.2))[0]


def test_zero_angles_give_classical_mean():
    # at gamma = beta = 0 the circuit is the identity on |s>, so F equals
    # the identity coefficient (the mean satisfied count over all cuts)
    for g in (make_cycle(6), make_named("PETERSEN")):
        h = build_localmaxcut_hamiltonian(g)
        assert expectation_full(h, (0.0, 0.0)) == pytest.approx(
            h.constant, abs=1e-12)
