"""Closed forms vs the enumeration oracle, presets, symmetries, Monte Carlo."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from derivations import (_conditional_prob, _fab, exact_prob_loops,
                         four_path_form_d2, hrss_preset,
                         neighborhood_oracle_prob, one_round,
                         prob_satisfied_initial, q2_star,
                         reduced_objective_d2, satisfied, trial_rng)
from localmaxcut import (ClassicalParams, exact_prob, load_edge_list,
                         make_cycle, make_random_regular, monte_carlo,
                         optimal_preset)
from localmaxcut import classical, cli, hamiltonian
from localmaxcut.classical import EXACT_MAX_DEGREE, RunStats
from localmaxcut.graph import build_graph

probs = st.floats(min_value=0.0, max_value=1.0)


def params_strategy(d):
    return st.tuples(probs, st.tuples(*[probs] * (d + 1))).map(
        lambda t: ClassicalParams(p=t[0], q=t[1]))


def test_params_validation():
    with pytest.raises(ValueError):
        exact_prob(2, ClassicalParams(1.5, (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        exact_prob(2, ClassicalParams(0.5, (0.0, -0.1, 0.0)))
    with pytest.raises(ValueError):
        exact_prob(2, ClassicalParams(0.5, (0.0, 0.0)))  # needs d+1 entries
    with pytest.raises(ValueError):
        exact_prob(3, ClassicalParams(0.5, (0.0, 0.0, 0.0)))
    for d in (0, EXACT_MAX_DEGREE + 1):
        with pytest.raises(ValueError):
            exact_prob(d, ClassicalParams(0.5, (0.0,) * (d + 1)))


def test_params_validation_checks_every_batch_entry():
    p = np.full(6, 0.5)
    q = tuple(np.full(6, 0.25) for _ in range(3))
    bad_q = q[:2] + (np.where(np.arange(6) == 4, 1.5, 0.25),)
    with pytest.raises(ValueError, match=r"probabilities must lie in \[0,1\]"):
        exact_prob(2, ClassicalParams(p, bad_q))
    with pytest.raises(ValueError, match=r"probabilities must lie in \[0,1\]"):
        exact_prob(2, ClassicalParams(np.where(np.arange(6) == 1, np.nan, p), q))
    with pytest.raises(ValueError, match=r"probabilities must lie in \[0,1\]"):
        exact_prob(2, ClassicalParams(math.nan, (0.0, 0.0, 0.0)))
    assert exact_prob(2, ClassicalParams(p, q)).shape == (6,)


def test_hrss_preset_thresholds():
    # r_d = ceil((d + sqrt(d)) / 2): 2, 3, 3 for d = 2, 3, 4
    assert hrss_preset(2) == ClassicalParams(0.5, (0.0, 0.0, 1.0))
    assert hrss_preset(3) == ClassicalParams(0.5, (0.0, 0.0, 0.0, 1.0))
    assert hrss_preset(4) == ClassicalParams(0.5, (0.0, 0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        hrss_preset(0)


def test_hrss_values():
    assert exact_prob(2, hrss_preset(2)) == pytest.approx(15 / 16, abs=1e-12)
    assert exact_prob(3, hrss_preset(3)) == pytest.approx(197 / 256, abs=1e-12)


def test_optimal_presets():
    assert optimal_preset(2) == ClassicalParams(0.5, (0.0, 0.0, 0.8))
    assert optimal_preset(3).q == (0.0, 0.0, 0.0, 1.0)
    assert exact_prob(2, optimal_preset(2)) == pytest.approx(0.95, abs=1e-12)
    assert exact_prob(3, optimal_preset(3)) == pytest.approx(
        0.7725678954133012, abs=1e-12)
    with pytest.raises(ValueError):
        optimal_preset(4)


def test_exact_prob_keeps_the_type_of_its_inputs():
    # every sum starts at the integer 0: the degree-2 preset in exact
    # arithmetic gives 19/20 itself, and all-integer inputs an int
    value = exact_prob(2, ClassicalParams(Fraction(1, 2),
                                          (0, 0, Fraction(4, 5))))
    assert type(value) is Fraction and value == Fraction(19, 20)
    assert type(exact_prob(1, ClassicalParams(1, (0, 0)))) is int


def test_prob_satisfied_initial():
    assert prob_satisfied_initial(2) == pytest.approx(3 / 4, abs=1e-15)
    assert prob_satisfied_initial(3) == pytest.approx(1 / 2, abs=1e-15)
    assert prob_satisfied_initial(4) == pytest.approx(11 / 16, abs=1e-15)


def test_prob_satisfied_initial_matches_oracle():
    for d in (2, 3, 4):
        frozen = ClassicalParams(0.5, (0.0,) * (d + 1))
        assert prob_satisfied_initial(d) == pytest.approx(
            neighborhood_oracle_prob(d, frozen), abs=1e-12)


def test_flip_prob_hand_case():
    # d = 2, visible neighbor agrees (a = b = 1): the hidden neighbor
    # agrees w.p. p, so f_11 = (1-p) q_1 + p q_2
    p, q = 0.5, (0.0, 0.0, 0.8)
    assert _fab(1, 1, p, q, 2) == pytest.approx(0.4, abs=1e-15)
    assert _fab(0, 1, p, q, 2) == pytest.approx(
        0.5 * 0.0 + 0.5 * 0.0, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), params_strategy(3))
@example(0, 1, ClassicalParams(0.3340145311422223, (1.0, 1.0, 1.0, 0.0)))
def test_flip_prob_complement_symmetry(a, b, prm):
    # complementing every bit swaps p and 1-p but preserves agreement
    p, q = prm
    assert _fab(a, b, p, q, 3) == pytest.approx(
        _fab(1 - a, 1 - b, 1.0 - p, q, 3), abs=1e-12)
    assert 0.0 <= _fab(a, b, p, q, 3) <= 1.0


@settings(max_examples=60, deadline=None)
@given(params_strategy(2))
def test_exact_d2_matches_oracle(prm):
    assert exact_prob(2, prm) == pytest.approx(
        neighborhood_oracle_prob(2, prm), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(params_strategy(3))
def test_exact_d3_matches_oracle(prm):
    assert exact_prob(3, prm) == pytest.approx(
        neighborhood_oracle_prob(3, prm), abs=1e-12)


def test_exact_d4_matches_oracle():
    rng = np.random.Generator(np.random.Philox(key=[0, 4]))
    for _ in range(10):
        prm = ClassicalParams(float(rng.uniform()),
                              tuple(float(t) for t in rng.uniform(size=5)))
        assert exact_prob(4, prm) == pytest.approx(
            neighborhood_oracle_prob(4, prm), abs=1e-12)


def _random_batch(d, size, key):
    """Seeded (p, q) batch whose first point sits on a corner of the box."""
    rng = np.random.Generator(np.random.Philox(key=[key, d]))
    x = rng.uniform(size=(d + 2, size))
    x[:, 0] = rng.integers(0, 2, size=d + 2)
    return ClassicalParams(x[0], tuple(x[1:]))


def _per_ball_prob(d, prm):
    """exact_prob by the walk over every initial ball and final assignment."""
    total = 0.0
    for ball in itertools.product((0, 1), repeat=d + 1):
        weight = math.prod(prm.p if b == 1 else 1.0 - prm.p for b in ball)
        total += weight * _conditional_prob(ball, prm.p, prm.q, d)
    return total


@pytest.mark.parametrize("d", range(1, EXACT_MAX_DEGREE + 1))
def test_exact_batch_matches_pointwise(d):
    prm = _random_batch(d, 32, key=1)
    batch = exact_prob(d, prm)
    assert batch.shape == (32,)
    for k in range(32):
        point = ClassicalParams(float(prm.p[k]), tuple(float(t[k]) for t in prm.q))
        assert abs(batch[k] - exact_prob(d, point)) <= 1e-15


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


@pytest.mark.parametrize("d", range(1, EXACT_MAX_DEGREE + 1))
def test_exact_prob_has_the_bits_of_the_loop_form(d):
    rng = np.random.Generator(np.random.Philox(key=[3, d]))
    # a batch crossing a block boundary, with 0/1 and -0.0 entries
    x = rng.uniform(size=(d + 2, hamiltonian.BLOCK // 8 + 40))
    x[:, :24] = rng.integers(0, 2, size=(d + 2, 24))
    x[:, 24] = -0.0
    prm = ClassicalParams(x[0], tuple(x[1:]))
    assert _same_bits(exact_prob(d, prm), exact_prob_loops(d, prm))
    # threshold_seeds' shapes: every threshold rule at every p
    rules = (np.arange(d + 1) >= np.arange(d + 2)[:, None]).astype(float)
    prm = ClassicalParams(np.linspace(0.0, 1.0, 11)[:, None], tuple(rules.T))
    value = exact_prob(d, prm)
    assert value.shape == (11, d + 2)
    assert _same_bits(value, exact_prob_loops(d, prm))
    # scalars keep their own type and arithmetic
    for k in range(3):
        for kind in (float, np.float64):
            prm = ClassicalParams(kind(x[0, 30 + k]),
                                  tuple(kind(t) for t in x[1:, 30 + k]))
            value, loops = exact_prob(d, prm), exact_prob_loops(d, prm)
            assert type(value) is type(loops) is kind
            assert _same_bits(value, loops)
    prm = ClassicalParams(Fraction(1, 3), tuple(Fraction(k % 4, 3)
                                                for k in range(d + 1)))
    value = exact_prob(d, prm)
    assert type(value) is Fraction and value == exact_prob_loops(d, prm)
    for bits in rng.integers(0, 2, size=(4, d + 2)).tolist():
        prm = ClassicalParams(bits[0], tuple(bits[1:]))
        value = exact_prob(d, prm)
        assert type(value) is int and value == exact_prob_loops(d, prm)


@pytest.mark.parametrize("d", range(1, 9))
def test_exact_matches_per_ball_route(d):
    prm = _random_batch(d, 4 if d <= 6 else 2, key=2)
    batch = exact_prob(d, prm)
    for k in range(len(prm.p)):
        point = ClassicalParams(float(prm.p[k]), tuple(float(t[k]) for t in prm.q))
        assert batch[k] == pytest.approx(_per_ball_prob(d, point), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(params_strategy(3))
def test_d3_conditional_decomposition(prm):
    # conditionals recombine to the unconditional probability under the
    # product measure on the ball bits
    p = prm.p
    total = 0.0
    for ball in itertools.product((0, 1), repeat=4):
        weight = math.prod(p if b == 1 else 1.0 - p for b in ball)
        cond = _conditional_prob(ball, prm.p, prm.q, 3)
        assert -1e-12 <= cond <= 1 + 1e-12
        total += weight * cond
    assert total == pytest.approx(exact_prob(3, prm), abs=1e-12)


def test_d3_conditional_matches_oracle_conditionals():
    prm = ClassicalParams(0.37, (0.1, 0.0, 0.4, 0.9))
    for ball in itertools.product((0, 1), repeat=4):
        assert _conditional_prob(ball, prm.p, prm.q, 3) == pytest.approx(
            neighborhood_oracle_prob(3, prm, ball_condition=ball), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(params_strategy(2))
def test_objective_reflection_symmetries_d2(prm):
    # complementing the initial cut (p -> 1-p) or the final cut
    # (q -> 1-q componentwise) cannot change any satisfaction event
    base = exact_prob(2, prm)
    assert exact_prob(2, ClassicalParams(1.0 - prm.p, prm.q)) \
        == pytest.approx(base, abs=1e-12)
    flipped = tuple(1.0 - t for t in prm.q)
    assert exact_prob(2, ClassicalParams(prm.p, flipped)) \
        == pytest.approx(base, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(params_strategy(3))
def test_objective_reflection_symmetries_d3(prm):
    base = exact_prob(3, prm)
    assert exact_prob(3, ClassicalParams(1.0 - prm.p, prm.q)) \
        == pytest.approx(base, abs=1e-12)
    flipped = tuple(1.0 - t for t in prm.q)
    assert exact_prob(3, ClassicalParams(prm.p, flipped)) \
        == pytest.approx(base, abs=1e-12)


def test_reflection_symmetry_holds_for_oracle_d4():
    # the symmetry argument is degree-independent; spot-check beyond the
    # closed forms
    prm = ClassicalParams(0.3, (0.2, 0.0, 0.7, 1.0, 0.5))
    base = neighborhood_oracle_prob(4, prm)
    assert neighborhood_oracle_prob(
        4, ClassicalParams(0.7, prm.q)) == pytest.approx(base, abs=1e-12)
    assert neighborhood_oracle_prob(
        4, ClassicalParams(0.3, (0.8, 1.0, 0.3, 0.0, 0.5))) \
        == pytest.approx(base, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(probs, probs)
def test_four_path_form_exact_when_no_weak_flips(p, q2):
    prm = ClassicalParams(p, (0.0, 0.0, q2))
    assert four_path_form_d2(prm) == pytest.approx(exact_prob(2, prm), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(params_strategy(2))
def test_four_path_form_upper_bounds_exact(prm):
    # with q0 or q1 > 0 it ignores satisfied-to-unsatisfied flow
    assert four_path_form_d2(prm) >= exact_prob(2, prm) - 1e-12


def test_q2_star_is_stationary():
    for p in (0.35, 0.5, 0.62):
        q2 = q2_star(p, 0.0)
        assert 0.0 <= q2 <= 1.0
        eps = 1e-6
        up = exact_prob(2, ClassicalParams(p, (0.0, 0.0, q2 + eps)))
        down = exact_prob(2, ClassicalParams(p, (0.0, 0.0, q2 - eps)))
        assert abs(up - down) / (2 * eps) < 1e-8
    assert q2_star(0.5, 0.0) == pytest.approx(0.8, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.3, max_value=0.7))
def test_reduced_objective_matches_substitution(p):
    prm = ClassicalParams(p, (0.0, 0.0, q2_star(p, 0.0)))
    assert reduced_objective_d2(p) == pytest.approx(exact_prob(2, prm), abs=1e-12)


def test_reduced_objective_peak():
    assert reduced_objective_d2(0.5) == pytest.approx(0.95, abs=1e-15)


def test_oracle_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        neighborhood_oracle_prob(1, ClassicalParams(0.5, (0.0, 0.0)))
    with pytest.raises(ValueError):
        neighborhood_oracle_prob(5, ClassicalParams(0.5, (0.0,) * 6))
    with pytest.raises(ValueError):
        neighborhood_oracle_prob(6, ClassicalParams(0.5, (0.0,) * 7))
    with pytest.raises(ValueError):
        neighborhood_oracle_prob(3, optimal_preset(3), ball_condition=(0, 1))


def one_round_cuts(adj, params, rng):
    """one_round with its bits as cuts of +1 / -1: (tau_0, tau_1, count)."""
    x0, x1, count = one_round(adj, params, rng)
    return np.where(x0, 1, -1), np.where(x1, 1, -1), count


def test_one_round_never_unsatisfies_with_zero_weak_flips():
    # with q_0 = q_1 = 0 a satisfied vertex keeps its bit and can only
    # lose agreeing neighbors, so satisfaction is monotone over the round
    g2 = make_cycle(101)
    g3 = make_random_regular(60, 3, min_girth=4, seed=1)
    for g, prm, d in ((g2, optimal_preset(2), 2), (g3, optimal_preset(3), 3)):
        adj = g.neighbours
        for seed in range(20):
            tau0, tau1, _ = one_round_cuts(adj, prm, trial_rng(seed, 0))
            for v in range(g.n):
                if satisfied(g, tau0, v):
                    assert satisfied(g, tau1, v)


def test_one_round_deterministic():
    g = make_cycle(50)
    adj = g.neighbours
    _, tau_a, count_a = one_round_cuts(adj, optimal_preset(2),
                                       trial_rng(3, 0))
    _, tau_b, count_b = one_round_cuts(adj, optimal_preset(2),
                                       trial_rng(3, 0))
    assert count_a == count_b
    assert np.array_equal(tau_a, tau_b)
    assert set(np.unique(tau_a)) <= {-1, 1}
    assert count_a == sum(satisfied(g, tau_a, v) for v in range(g.n))


def test_monte_carlo_rejects_irregular():
    with pytest.raises(ValueError):
        monte_carlo(load_edge_list("0 1\n1 2\n"), optimal_preset(2), trials=1)


def test_monte_carlo_stats():
    # the re-keyed generator gives each trial the draws of a new Philox
    # keyed (seed, t), so every count, and the statistics, keep their bits
    for g, seed in ((make_cycle(60), 9),
                    (make_random_regular(40, 3, seed=2), 2 ** 40 + 3)):
        d = g.degree
        stats = monte_carlo(g, optimal_preset(d), trials=40, seed=seed)
        adj = g.neighbours
        per_trial = np.array(
            [one_round(adj, optimal_preset(d), trial_rng(seed, t))[2] / g.n
             for t in range(40)])
        assert stats.trials == 40
        assert stats.mean == float(np.mean(per_trial))
        assert stats.stderr == float(np.std(per_trial, ddof=1) / np.sqrt(40))
        again = monte_carlo(g, optimal_preset(d), trials=40, seed=seed)
        assert again == stats
    with pytest.raises(ValueError):
        monte_carlo(g, optimal_preset(d), trials=0)


def one_round_stats(g, params, trials, seed):
    """`monte_carlo`'s RunStats from `one_round` on a new generator per
    trial, which draws the flip coins whatever q is."""
    per_trial = np.array(
        [one_round(g.neighbours, params, trial_rng(seed, t))[2] / g.n
         for t in range(trials)])
    return RunStats(trials=trials, mean=float(np.mean(per_trial)),
                    stderr=float(np.std(per_trial, ddof=1) / np.sqrt(trials)))


# one graph per degree 1..4, and flip vectors with every q in {0, 1}
# (the threshold rule: no coins drawn) or with fractional entries
MC_GRAPHS = {
    1: lambda: build_graph(30, [(v, v + 1) for v in range(0, 30, 2)]),
    2: lambda: make_cycle(31),
    3: lambda: make_random_regular(30, 3, min_girth=4, seed=1),
    4: lambda: make_random_regular(25, 4, seed=3),
}


@pytest.mark.parametrize("d", sorted(MC_GRAPHS))
@pytest.mark.parametrize("p", [0.0, 1.0, 0.3])
@pytest.mark.parametrize("coins", [False, True])
def test_monte_carlo_has_the_bits_of_one_round(d, p, coins):
    # skipping coins that u < 0 or u < 1 would decide, counting cut edges
    # for agreeing ones, and reading q reversed by that count keep every
    # count, so RunStats keeps its bits
    q = hrss_preset(d).q
    if coins:
        q = tuple((0.0, 0.7, 1.0, 0.25)[l % 4] for l in range(d + 1))
    params = ClassicalParams(p=p, q=q)
    g = MC_GRAPHS[d]()
    assert (monte_carlo(g, params, trials=25, seed=d)
            == one_round_stats(g, params, 25, d))


def test_monte_carlo_draws_coins_only_when_a_flip_is_fractional(monkeypatch):
    draws = []
    generator = classical.Generator

    class Counted:
        def __init__(self, bits):
            self.rng = generator(bits)

        def random(self, *args, **kwargs):
            draws.append(1)
            return self.rng.random(*args, **kwargs)

    monkeypatch.setattr(classical, "Generator", Counted)
    g = make_cycle(20)
    for q, per_trial in (((0.0, 1.0, 1.0), 1), ((0.0, 0.0, 0.8), 2)):
        draws.clear()
        monte_carlo(g, ClassicalParams(p=0.5, q=q), trials=5)
        assert len(draws) == 5 * per_trial


def test_monte_carlo_builds_no_adjacency_tuples(monkeypatch):
    # Monte Carlo reads the neighbour array, and `classical run` never asks
    # for the per-vertex tuples, so they are not built
    g = make_random_regular(40, 3, seed=2)
    monte_carlo(g, optimal_preset(3), trials=5, seed=4)
    assert "adjacency" not in vars(g)
    seen = []

    def recording(g, *args, **kwargs):
        seen.append(g)
        return monte_carlo(g, *args, **kwargs)

    monkeypatch.setattr(cli, "monte_carlo", recording)
    for spec in ("cycle:30", "random:40,3,4,1"):
        assert cli.main(["classical", "run", "--graph", spec, "--trials", "5",
                         "--json", "--no-timestamp"]) == 0
    assert len(seen) == 2
    assert all("adjacency" not in vars(g) for g in seen)


def test_monte_carlo_single_trial_has_zero_stderr():
    stats = monte_carlo(make_cycle(30), optimal_preset(2), trials=1, seed=4)
    assert stats.stderr == 0.0


def test_monte_carlo_tracks_exact_value():
    # high-girth cycle, many vertices: the tree computation is exact and
    # the empirical mean should land within a few standard errors
    g = make_cycle(2000)
    stats = monte_carlo(g, optimal_preset(2), trials=60, seed=0)
    assert abs(stats.mean - 0.95) <= 4 * stats.stderr
