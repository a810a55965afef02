import numpy as np
import pytest
from hypothesis import given, strategies as st

from derivations import satisfied, term_diagonal
from localmaxcut import (Clause, build_localmaxcut_hamiltonian,
                         evaluate_classical, fourier_encode_clause, girth,
                         hamiltonian_to_json, load_edge_list,
                         local_satisfaction_clause, make_cycle,
                         make_hamiltonian, make_named, make_random_regular,
                         mask_of, vertices_of)
from localmaxcut import hamiltonian
from localmaxcut.statevector import satisfied_counts


def test_mask_vertices_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == [0, 2, 5]
    assert mask_of([]) == 0
    assert vertices_of(0) == []


def test_vertices_of_refuses_a_negative_mask():
    # -1 has every bit set, so the lowest-bit loop would never end
    with pytest.raises(ValueError):
        vertices_of(-1)


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mask_roundtrip_property(vs):
    assert vertices_of(mask_of(vs)) == sorted(vs)


def test_make_hamiltonian_validation():
    h = make_hamiltonian(3, {0: 1.5, 0b011: -0.5, 0b100: 0.0})
    assert h.constant == 1.5
    assert h.nonconstant_terms() == ((0b011, -0.5),)  # zero weight dropped
    with pytest.raises(ValueError):
        make_hamiltonian(2, {0b100: 1.0})  # subset outside 0..n-1


def test_local_satisfaction_clause_tables():
    # bit 0 is the center; satisfied iff at most floor(d/2) neighbors agree
    c2 = local_satisfaction_clause(2)
    assert c2.support == (0, 1, 2)
    assert len(c2.truth_table) == 8
    assert c2.truth_table[0b000] == 0.0  # both neighbors agree
    assert c2.truth_table[0b110] == 1.0  # both disagree
    assert c2.truth_table[0b010] == 1.0  # one agrees
    assert sum(c2.truth_table) == 6.0  # 3/4 of 8 assignments
    c3 = local_satisfaction_clause(3)
    assert len(c3.truth_table) == 16
    assert sum(c3.truth_table) == 8.0  # exactly half satisfied


def test_clause_validation():
    with pytest.raises(ValueError):
        Clause(support=(0, 1), truth_table=(0.0,) * 3)  # not 2^|support|
    with pytest.raises(ValueError):
        Clause(support=(1, 1), truth_table=(0.0,) * 4)  # repeated vertex
    with pytest.raises(ValueError):
        Clause(support=tuple(range(17)), truth_table=(0.0,) * 2 ** 17)


def test_clause_cap_refused_before_the_table(monkeypatch):
    # a degree-d clause has d + 1 variables; past MAX_CLAUSE_VARS it is
    # refused, with Clause's message, before its 2^(d+1) entries are
    # listed (K_21 spent 6.3 s listing them), so a stand-in for Clause
    # never sees a table longer than 2^16
    real = hamiltonian.Clause

    def stand_in(support, truth_table):
        assert len(truth_table) <= 2 ** hamiltonian.MAX_CLAUSE_VARS
        return real(support=support, truth_table=truth_table)

    monkeypatch.setattr(hamiltonian, "Clause", stand_in)
    assert len(local_satisfaction_clause(15).truth_table) == 2 ** 16
    for d in (16, 20):
        with pytest.raises(ValueError, match=(
                f"clause on {d + 1} variables exceeds cap 16")):
            local_satisfaction_clause(d)
    complete = load_edge_list("".join(f"{u} {v}\n" for u in range(17)
                                      for v in range(u + 1, 17)))
    with pytest.raises(ValueError, match="clause on 17 variables"):
        build_localmaxcut_hamiltonian(complete)


def test_encoder_degree2_golden():
    h = fourier_encode_clause(local_satisfaction_clause(2))
    assert dict(h.terms) == {
        0: 0.75,
        mask_of((0, 1)): -0.25,
        mask_of((0, 2)): -0.25,
        mask_of((1, 2)): -0.25,
    }


def test_encoder_degree3_golden():
    h = fourier_encode_clause(local_satisfaction_clause(3))
    assert dict(h.terms) == {
        0: 0.5,
        mask_of((0, 1)): -0.25,
        mask_of((0, 2)): -0.25,
        mask_of((0, 3)): -0.25,
        mask_of((0, 1, 2, 3)): 0.25,
    }


def test_encoder_respects_support_labels():
    base = fourier_encode_clause(local_satisfaction_clause(2))
    table = local_satisfaction_clause(2).truth_table
    moved = fourier_encode_clause(Clause(support=(2, 5, 7), truth_table=table))
    relabel = {0: 2, 1: 5, 2: 7}
    expected = {mask_of(relabel[v] for v in vertices_of(m)): w
                for m, w in base.terms}
    assert dict(moved.terms) == expected


@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=8, max_size=8))
def test_encoder_inverts_to_truth_table(table):
    # encoding then evaluating pointwise must reproduce the table exactly
    h = fourier_encode_clause(Clause(support=(0, 1, 2), truth_table=tuple(table)))
    for x in range(8):
        assert evaluate_classical(h, x) == pytest.approx(table[x], abs=1e-12)


def test_build_c3_merges_pairs_onto_edges():
    # on a triangle every distance-2 pair is itself an edge, so each edge
    # collects -1/4 from both endpoints plus -1/4 from the opposite vertex
    h = build_localmaxcut_hamiltonian(make_cycle(3))
    assert h.constant == 2.25
    assert sorted(h.nonconstant_terms()) == [
        (mask_of((0, 1)), -0.75),
        (mask_of((0, 2)), -0.75),
        (mask_of((1, 2)), -0.75),
    ]


def test_build_c4_merges_diagonals():
    # the two diagonals of C_4 each serve as the distance-2 pair of two
    # vertices, merging to the same -1/2 weight the true edges carry
    h = build_localmaxcut_hamiltonian(make_cycle(4))
    assert h.constant == 3.0
    weights = dict(h.nonconstant_terms())
    assert len(weights) == 6
    assert all(w == -0.5 for w in weights.values())


def test_build_k4_golden():
    h = build_localmaxcut_hamiltonian(make_named("K4"))
    weights = dict(h.nonconstant_terms())
    assert h.constant == 2.0
    assert weights.pop(mask_of((0, 1, 2, 3))) == 1.0  # four balls coincide
    assert len(weights) == 6
    assert all(w == -0.5 for w in weights.values())


def test_build_cycle_girth5_profile():
    # above girth 4 nothing merges: one edge and one pair term per vertex
    for n in (5, 7):
        h = build_localmaxcut_hamiltonian(make_cycle(n))
        assert h.constant == 0.75 * n
        weights = dict(h.nonconstant_terms())
        assert len(weights) == 2 * n
        assert sorted(weights.values()) == [-0.5] * n + [-0.25] * n


def test_build_requires_regular_graph():
    with pytest.raises(ValueError):
        build_localmaxcut_hamiltonian(load_edge_list("0 1\n1 2\n"))


def test_evaluate_classical_counts_satisfied_vertices():
    # H's build against counts taken from the graph alone, on the verify
    # benchmark's fixture graphs and on random cubic graphs of girth 3
    # and 4, where balls overlap and terms merge: the transform of H's
    # weights equals the statevector's count of satisfied vertices
    # exactly at every state, and evaluate_classical the per-vertex check
    # at some.  At d = 2 the clause is symmetric in its three ball
    # positions, so only the degree-3 graphs pin the centre of B(v) at
    # position 0
    randoms = [(make_random_regular(n, 3, min_girth=k, seed=seed), k)
               for n in (8, 10, 12, 14) for k in (3, 4) for seed in (2, 3)]
    assert all(girth(g) == k for g, k in randoms)
    graphs = [make_cycle(n) for n in range(3, 10)] + [
        make_named(name)
        for name in ("K4", "CUBE", "K33", "PETERSEN", "HEAWOOD")] + [
        g for g, _ in randoms]
    rng = np.random.default_rng(2)
    for g in graphs:
        h = build_localmaxcut_hamiltonian(g)
        assert np.array_equal(term_diagonal(h), satisfied_counts(g))
        for _ in range(20):
            bits = rng.integers(0, 2, size=g.n)
            cut = np.where(bits == 1, 1, -1)
            count = sum(satisfied(g, cut, v) for v in range(g.n))
            x = mask_of(v for v in range(g.n) if bits[v])
            assert evaluate_classical(h, x) == pytest.approx(count,
                                                             abs=1e-12)


def test_evaluate_classical_refuses_mask_out_of_range():
    h = build_localmaxcut_hamiltonian(make_cycle(5))
    # every vertex agrees with both neighbours: none is satisfied
    assert evaluate_classical(h, 0b11111) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        evaluate_classical(h, 1 << 5)  # mask out of range


def test_evaluate_all_matches_pointwise():
    # the diagonal over all 16 basis states of K4, built from the graph,
    # against evaluate_classical state by state
    g = make_named("K4")
    h = build_localmaxcut_hamiltonian(g)
    vals = satisfied_counts(g)
    assert vals.shape == (16,)
    for x in range(16):
        assert vals[x] == pytest.approx(evaluate_classical(h, x), abs=1e-12)


def test_evaluate_classical_matches_the_transform_on_random_weights():
    # non-dyadic weights, so the transform's sums round differently from
    # the per-term sum of evaluate_classical
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        masks = rng.integers(0, 2 ** n, size=int(rng.integers(1, 12)))
        h = make_hamiltonian(n, {int(m): float(rng.uniform(-2, 2))
                                 for m in masks})
        vals = term_diagonal(h)
        for x in range(2 ** n):
            assert abs(vals[x] - evaluate_classical(h, x)) <= 1e-12


def test_hamiltonian_to_json_sorted():
    h = build_localmaxcut_hamiltonian(make_cycle(3))
    doc = hamiltonian_to_json(h)
    assert doc["n"] == 3
    assert doc["terms"][0] == {"subset": [], "weight": 2.25}
    assert [t["subset"] for t in doc["terms"][1:]] == [[0, 1], [0, 2], [1, 2]]
