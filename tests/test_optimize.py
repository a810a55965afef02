import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from derivations import exact_prob_loops, q2_star
from localmaxcut import (ClassicalParams, exact_prob, grid_sweep,
                         optimal_preset, optimize_classical)
from localmaxcut import optimize
from localmaxcut.optimize import (DISTINCT_TOL, P_SEEDS, QAOA_BOX,
                                  QAOA_RESOLUTION, TOP_K,
                                  _canonical_classical, _top_k,
                                  classical_curve, classical_objective,
                                  compass_search, qaoa_objective,
                                  threshold_seeds)


def paraboloid(x):
    return -(x[0] - 0.3) ** 2 - (x[1] - 0.7) ** 2


def test_grid_axes_are_halfopen():
    sweep = grid_sweep(lambda x: 0.0, ((0.0, 1.0),), 4)
    assert np.allclose(sweep.axes[0], [0.0, 0.25, 0.5, 0.75])


def test_grid_values_are_row_major():
    sweep = grid_sweep(lambda x: 10 * x[0] + x[1], ((0.0, 1.0), (0.0, 1.0)),
                       (4, 5))
    assert sweep.values.shape == (4, 5)
    for i, a in enumerate(sweep.axes[0]):
        for j, b in enumerate(sweep.axes[1]):
            assert sweep.values[i, j] == pytest.approx(10 * a + b)
    assert sweep.argmax == (0.75, 0.8)
    assert sweep.value == pytest.approx(8.3)


def test_grid_calls_objective_once():
    calls = []

    def counting(x):
        calls.append(x)
        return x[0] * x[1] - x[2]

    sweep = grid_sweep(counting, ((0.0, 1.0),) * 3, (3, 4, 5))
    assert len(calls) == 1
    assert [c.shape for c in calls[0]] == [(3, 1, 1), (1, 4, 1), (1, 1, 5)]
    assert sweep.argmax == pytest.approx((2 / 3, 0.75, 0.0))
    assert sweep.value == pytest.approx(0.5)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_equals_dense_evaluation(d):
    sweep = grid_sweep(qaoa_objective(d), QAOA_BOX, QAOA_RESOLUTION)
    dense = qaoa_objective(d)(tuple(np.meshgrid(*sweep.axes, indexing="ij")))
    assert np.array_equal(sweep.values, dense)


def test_grid_fills_objective_of_one_coordinate():
    sweep = grid_sweep(lambda x: 2 * x[1], ((0.0, 1.0), (0.0, 1.0)), (3, 4))
    assert sweep.values.shape == (3, 4)
    assert np.array_equal(sweep.values,
                          np.tile(2 * sweep.axes[1], (3, 1)))
    assert sweep.argmax == (0.0, 0.75)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=200))
@example([0] * 200)
@example([0] * TOP_K)
@example([5] * (TOP_K + 1))
@example([1])
def test_top_k_is_stable_argsort_prefix(values):
    scores = np.array(values, dtype=float)
    assert np.array_equal(_top_k(scores),
                          np.argsort(-scores, kind="stable")[:TOP_K])


def test_top_k_sorts_nan_last():
    scores = np.array([np.nan, 1.0, np.nan] + [0.0] * 20)
    assert np.array_equal(_top_k(scores),
                          np.argsort(-scores, kind="stable")[:TOP_K])
    scores = np.array([np.nan] * 10 + [1.0, 2.0])
    assert np.array_equal(_top_k(scores),
                          np.argsort(-scores, kind="stable")[:TOP_K])


def test_grid_tie_goes_to_first_cell():
    sweep = grid_sweep(lambda x: 1.0, ((0.0, 1.0), (2.0, 3.0)), 3)
    assert sweep.argmax == (0.0, 2.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        grid_sweep(paraboloid, ((0.0, 1.0),), 1)
    with pytest.raises(ValueError):
        grid_sweep(paraboloid, ((1.0, 0.0),), 8)  # inverted interval
    with pytest.raises(ValueError):
        grid_sweep(paraboloid, ((0.0, math.inf),), 8)
    with pytest.raises(ValueError):
        grid_sweep(paraboloid, ((0.0, 1.0), (0.0, 1.0)), (8,))


UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))


def test_compass_refines_paraboloid():
    x, value, _, converged, step = compass_search(
        paraboloid, [(0.0, 0.0)], ((-1.0, 1.0), (-1.0, 1.0)), (0.25, 0.25))
    assert x[0] == pytest.approx((0.3, 0.7), abs=1e-6)
    assert value[0] == pytest.approx(0.0, abs=1e-10)
    assert converged[0]
    assert step[0] <= 1e-6


def test_compass_respects_box():
    # unconstrained maximum sits at 1.5, outside the box
    x, *_ = compass_search(lambda x: -(x[0] - 1.5) ** 2, [(0.5,)],
                           ((0.0, 1.0),), (0.25,))
    assert 0.0 <= x[0, 0] <= 1.0
    assert x[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_compass_start_outside_box():
    with pytest.raises(ValueError):
        compass_search(paraboloid, [(2.0, 0.0)], UNIT_BOX, (0.25, 0.25))


def test_compass_never_worse_than_seed(monkeypatch):
    # a budget of one step ends unconverged, and the seed is kept
    monkeypatch.setattr(optimize, "MAX_ITERS", 1)
    _, value, _, converged, _ = compass_search(paraboloid, [(0.3, 0.7)],
                                               UNIT_BOX, (0.25, 0.25))
    assert value[0] >= paraboloid((0.3, 0.7))
    assert not converged[0]


def test_compass_one_call_per_step_for_all_starts(monkeypatch):
    monkeypatch.setattr(optimize, "TOL", 1e-6)
    calls = []

    def counting(x):
        calls.append(x)
        return paraboloid(x) - 0.1 * x[2] ** 2

    starts = [(0.0, 0.0, 0.5), (1.0, 1.0, 0.0), (0.3, 0.7, 0.0)]
    x, value, iters, converged, step = compass_search(
        counting, starts, ((0.0, 1.0),) * 3, (0.1, 0.2, 0.1))
    assert x.shape == (3, 3)
    assert [a.shape for a in (value, iters, converged, step)] == [(3,)] * 4
    assert len(calls) == max(iters)
    for n, pt in enumerate(calls):
        live = sum(iters > n)
        assert [c.shape for c in pt] == [(live, 7)] * 3
    assert calls[0][0].shape == (3, 7)
    assert converged.all() and (step < 1e-6).all()
    assert np.array_equal(value, paraboloid(tuple(x.T)) - 0.1 * x[:, 2] ** 2)
    assert x == pytest.approx(np.tile((0.3, 0.7, 0.0), (3, 1)), abs=1e-6)


def test_compass_zero_step_holds_axis():
    calls = []

    def counting(x):
        calls.append(x)
        return paraboloid(x)

    x, *_ = compass_search(counting, [(0.1, 0.0), (0.9, 1.0)], UNIT_BOX,
                           (0.0, 0.5))
    assert x[:, 0].tolist() == [0.1, 0.9]
    assert x[:, 1] == pytest.approx((0.7, 0.7), abs=1e-6)
    # the held axis adds no point: x and x +- s e_1, 3 per live start
    assert all(pt[0].shape[1] == 3 for pt in calls)


def test_compass_restarts_stalled_d2_point():
    # where a simplex refinement once stalled, below the optimum 19/20
    stalled = (0.49738443318794134, 1.113913223441221e-14,
               0.0002729522826054483, 0.8020819911418287)
    _, value, _, converged, _ = compass_search(
        classical_objective(2), [stalled], ((0.0, 1.0),) * 4, (0.1,) * 4)
    assert converged[0]
    assert value[0] == pytest.approx(0.95, abs=1e-12)


def test_canonical_classical():
    # orbit of (p, q) under p -> 1-p and q -> 1-q; lexicographic minimum
    assert _canonical_classical((0.7, 1.0, 1.0, 0.0)) \
        == pytest.approx((0.3, 0.0, 0.0, 1.0))
    assert _canonical_classical((0.5, 0.0, 0.0, 0.8)) == (0.5, 0.0, 0.0, 0.8)
    x = (0.39, 0.0, 0.0, 0.0, 1.0)
    assert _canonical_classical(_canonical_classical(x)) \
        == _canonical_classical(x)
    # brute force the four candidates
    cands = []
    for pp in (0.61, 0.39):
        for qq in ((0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0)):
            cands.append((pp,) + qq)
    assert _canonical_classical((0.61, 1.0, 1.0, 1.0, 0.0)) == min(cands)


def test_objective_factories():
    prm = ClassicalParams(0.4, (0.1, 0.2, 0.3))
    assert classical_objective(2)((0.4, 0.1, 0.2, 0.3)) \
        == pytest.approx(exact_prob(2, prm))
    assert classical_objective(3)((0.5,) + (0.25,) * 4) == pytest.approx(
        exact_prob(3, ClassicalParams(0.5, (0.25,) * 4)))
    assert classical_objective(4)((0.5,) + (0.25,) * 5) == exact_prob(
        4, ClassicalParams(0.5, (0.25,) * 5))
    for d in (0, 11):
        with pytest.raises(ValueError, match="tree series covers"):
            qaoa_objective(d)
    with pytest.raises(ValueError):
        classical_objective(3)((0.5,) + (0.25,) * 3)  # q needs d+1 entries


def test_optimize_qaoa_d2(qaoa_d2):
    report, _ = qaoa_d2
    assert report.value == pytest.approx(0.9393746244547952, abs=1e-9)
    assert report.grid_resolution == (256, 256)
    assert report.grid_value <= report.value
    assert report.converged
    # the reported argmax reproduces the reported value
    assert qaoa_objective(2)(report.argmax) == pytest.approx(report.value,
                                                            abs=1e-12)
    g, b = report.argmax
    assert QAOA_BOX[0][0] <= g <= QAOA_BOX[0][1]
    assert QAOA_BOX[1][0] <= b <= QAOA_BOX[1][1]


def test_optimize_qaoa_d3(qaoa_d3):
    report, _ = qaoa_d3
    assert report.value == pytest.approx(0.8192920717076764, abs=1e-9)
    assert qaoa_objective(3)(report.argmax) == pytest.approx(report.value,
                                                            abs=1e-12)


def test_optimize_classical_d2(classical_d2):
    report, _ = classical_d2
    assert report.value == pytest.approx(0.95, abs=1e-9)
    p, q0, q1, q2 = report.argmax
    assert p == pytest.approx(0.5, abs=1e-6)
    assert q0 == pytest.approx(0.0, abs=1e-6)
    assert q1 == pytest.approx(0.0, abs=1e-6)
    assert q2 == pytest.approx(0.8, abs=1e-6)
    # the optimum solves the q2 stationarity condition
    assert q2 == pytest.approx(q2_star(p, q1), abs=1e-4)


def test_optimize_classical_d3(classical_d3):
    report, _ = classical_d3
    assert report.value == pytest.approx(0.7725678954133012, abs=1e-9)
    p = report.argmax[0]
    assert p == pytest.approx(0.39116622410642893, abs=1e-6)
    assert report.argmax[1:] == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-3)


def test_optimize_classical_d3_finds_both_maxima(classical_d3):
    report, _ = classical_d3
    assert len(report.maxima) == 2
    top, second = report.maxima
    assert top["value"] == pytest.approx(0.7725678954133012, abs=1e-9)
    assert top["argmax"][0] == pytest.approx(0.39116622410642893, abs=1e-6)
    assert top["argmax"][3] == pytest.approx(0.0, abs=1e-6)
    assert second["value"] == pytest.approx(0.7724641655016696, abs=1e-9)
    assert second["argmax"][0] == pytest.approx(0.5, abs=1e-6)
    assert second["argmax"][3] == pytest.approx(0.0730576, abs=1e-6)


def test_threshold_seeds_are_scored_rules():
    ps = [0.0, 0.3, 0.5]
    seeds, values = threshold_seeds(3, ps)
    assert seeds.shape == (3, 5)
    assert seeds[:, 0].tolist() == ps
    for p, *q in seeds:
        r = 4 - int(sum(q))  # flip iff l >= r
        assert q == [float(l >= r) for l in range(4)]
    assert np.array_equal(values, classical_objective(3)(tuple(seeds.T)))
    # no threshold rule beats the seed at its p
    for p, v in zip(ps, values):
        for r in range(5):
            rule = tuple(float(l >= r) for l in range(4))
            assert exact_prob(3, ClassicalParams(p, rule)) <= v + 1e-15
    with pytest.raises(ValueError):
        threshold_seeds(0, ps)


@pytest.mark.parametrize("d", [1, 4])
def test_optimize_classical_other_degrees(d):
    report = optimize_classical(d)
    assert report.converged
    assert report.grid_resolution == (P_SEEDS,)
    assert report.value >= report.grid_value
    assert report.grid_value == threshold_seeds(
        d, np.linspace(0.0, 1.0, P_SEEDS))[1].max()
    assert report.value == pytest.approx(
        classical_curve(d, np.linspace(0.0, 1.0, 101)).max(), abs=1e-9)


def test_optimizer_sees_the_loop_form_bits(monkeypatch, classical_d2,
                                           classical_d3):
    # exact_prob has every bit of the loop form, so the optimizer takes
    # the same steps on either and reports the same maxima
    ps = np.linspace(0.0, 1.0, 11)
    curve = classical_curve(3, ps)
    monkeypatch.setattr(optimize, "exact_prob", exact_prob_loops)
    assert optimize_classical(2) == classical_d2[0]
    assert optimize_classical(3) == classical_d3[0]
    assert np.array_equal(classical_curve(3, ps).view(np.uint64),
                          curve.view(np.uint64))


def test_classical_curve_reaches_tuned_optimum(classical_d3):
    report, _ = classical_d3
    (value,) = classical_curve(3, [optimal_preset(3).p])
    assert value == pytest.approx(report.value, abs=1e-12)


def test_maxima_are_distinct_and_ranked(classical_d2, qaoa_d2):
    for report, _ in (classical_d2, qaoa_d2):
        values = [m["value"] for m in report.maxima]
        assert values == sorted(values, reverse=True)
        assert report.maxima[0] == {"argmax": report.argmax,
                                    "value": report.value}
        points = [m["argmax"] for m in report.maxima]
        for i, xi in enumerate(points):
            for xj in points[i + 1:]:
                assert math.dist(xi, xj) > DISTINCT_TOL


def _json(report):
    """The report as `reproduce` writes it."""
    return json.loads(json.dumps(dataclasses.asdict(report)))


def test_reports_count_their_unconverged_starts(monkeypatch, classical_d3,
                                               qaoa_d3):
    # `converged` is the best start's alone; `unconverged` counts every
    # start that MAX_ITERS stopped.  The d = 3 classical starts take 37 to
    # 46 steps, so a budget of 41 stops four of them and one of 3 all
    for report, _ in (classical_d3, qaoa_d3):
        assert report.unconverged == 0 and _json(report)["unconverged"] == 0
    for budget, stalled in ((41, 4), (3, TOP_K)):
        monkeypatch.setattr(optimize, "MAX_ITERS", budget)
        report = optimize_classical(3)
        assert report.unconverged == stalled
        assert _json(report)["unconverged"] == stalled
    assert not report.converged


def test_reports_describe_their_seeds(classical_d2, classical_d3, qaoa_d2,
                                      qaoa_d3):
    for (report, _), shape in ((classical_d2, (P_SEEDS,)),
                               (classical_d3, (P_SEEDS,)),
                               (qaoa_d2, (256, 256)), (qaoa_d3, (256, 256))):
        assert report.grid_resolution == shape
        assert report.grid_value is not None
        assert report.grid_value <= report.value
        doc = _json(report)
        assert doc["grid_resolution"] == list(shape)
        assert doc["grid_value"] == report.grid_value


def test_report_to_json(qaoa_d2):
    report, _ = qaoa_d2
    doc = _json(report)
    assert doc["argmax"] == list(report.argmax)
    assert doc["value"] == report.value
    assert doc["grid_resolution"] == [256, 256]
    assert doc["iterations"] == report.iterations
    assert doc["maxima"][0] == {"argmax": list(report.argmax),
                                "value": report.value}
