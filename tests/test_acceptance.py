"""Acceptance gate: the headline numbers and cross-checks, one line each.

Run with -s (or -rA) to see the per-criterion lines; each test prints

    ACCEPTANCE NN PASS|FAIL - description (detail)

and then asserts, so `pytest -v tests/test_acceptance.py` doubles as the
checklist.  Runtime budgets are asserted alongside the values.  The
expensive optimizer runs come from session-scoped fixtures shared with
the unit tests, timed where they actually ran.
"""

import math
import time

import numpy as np
import pytest

from derivations import (closed_form_f2, closed_form_f3,
                         neighborhood_oracle_prob, prob_satisfied_initial,
                         zk_ball_d3, zk_edge_d2, zk_edge_d3, zk_pair_d2)
from localmaxcut import (ClassicalParams, build_localmaxcut_hamiltonian,
                         evaluate_all, exact_prob, expectation_full,
                         fourier_encode_clause, girth,
                         local_satisfaction_clause, make_cycle, make_named,
                         make_random_regular, mask_of, monte_carlo,
                         optimal_preset, phase_table,
                         qaoa_expectation_sv)
from localmaxcut.cli import main
from localmaxcut.qaoa_engine import expectation_terms
from localmaxcut.statevector import qaoa_values_sv


def check(num, ok, desc, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}{tail}"
    print(line)
    assert ok, line


def test_criterion_01_classical_d2_optimum(classical_d2):
    report, seconds = classical_d2
    p, q0, q1, q2 = report.argmax
    ok = (abs(report.value - 0.95) <= 1e-6
          and abs(p - 0.5) <= 1e-3
          and abs(q2 - 0.8) <= 1e-3
          and q1 <= 1e-4
          and seconds < 10.0)
    check(1, ok, "degree-2 classical optimum 0.95 at p=1/2, q2=4/5",
          f"value={report.value:.9f} argmax={report.argmax} {seconds:.1f}s")


def test_criterion_02_qaoa_d2_optimum(qaoa_d2):
    report, seconds = qaoa_d2
    ok = (abs(report.value - 0.93937) <= 1e-4
          and report.value < 0.94
          and seconds < 10.0)
    check(2, ok, "degree-2 QAOA optimum ~0.93937, strictly below 0.94",
          f"value={report.value:.9f} {seconds:.1f}s")


def test_criterion_03_qaoa_d3_optimum(qaoa_d3):
    report, seconds = qaoa_d3
    ok = (abs(report.value - 0.819292) <= 1e-4
          and report.value > 0.81
          and seconds < 10.0)
    check(3, ok, "degree-3 QAOA optimum ~0.819292, strictly above 0.81",
          f"value={report.value:.9f} {seconds:.1f}s")


def test_criterion_04_classical_d3_optimum(classical_d3):
    report, seconds = classical_d3
    q = report.argmax[1:]
    ok = (abs(report.value - 0.77) <= 5e-3
          and report.value < 0.8
          and max(abs(a - b) for a, b in zip(q, (0.0, 0.0, 0.0, 1.0))) <= 1e-3
          and seconds < 60.0)
    check(4, ok, "degree-3 classical optimum ~0.77 at q=(0,0,0,1), below 0.8",
          f"value={report.value:.9f} argmax={report.argmax} {seconds:.1f}s")


FIXTURES = [f"cycle:{n}" for n in range(3, 10)] + [
    "K4", "CUBE", "K33", "PETERSEN", "HEAWOOD"]


def _fixture_graph(label):
    if label.startswith("cycle:"):
        return make_cycle(int(label.split(":")[1]))
    return make_named(label)


def test_criterion_05_engine_matches_statevector():
    t0 = time.perf_counter()
    worst = 0.0
    for label in FIXTURES:
        g = _fixture_graph(label)
        h = build_localmaxcut_hamiltonian(g)
        rng = np.random.Generator(np.random.Philox(key=[0, g.n]))
        # row j is pair j, gamma drawn before beta as the scalar calls were
        gammas, betas = rng.uniform((0.0, 0.0), (2 * math.pi, math.pi),
                                    size=(50, 2)).T
        sv, _ = qaoa_values_sv(phase_table(evaluate_all(h)), (), gammas,
                               betas)
        worst = max(worst, float(np.max(np.abs(
            expectation_full(h, (gammas, betas)) - sv))))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-9 and seconds < 60.0
    check(5, ok, "engine vs statevector on 12 fixtures, 50 angle pairs each",
          f"worst={worst:.2e} {seconds:.1f}s")


@pytest.mark.slow
def test_criterion_05_slow_mcgee_statevector():
    # 24-qubit statevector: minutes of runtime, ~0.5 GiB of amplitude arrays
    t0 = time.perf_counter()
    h = build_localmaxcut_hamiltonian(make_named("MCGEE"))
    rng = np.random.Generator(np.random.Philox(key=[0, 24]))
    worst = 0.0
    for _ in range(3):
        angles = (rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, math.pi))
        worst = max(worst, abs(expectation_full(h, angles)
                               - qaoa_expectation_sv(h, angles)))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-8 and seconds < 600.0
    check(5, ok, "engine vs statevector on MCGEE (slow)",
          f"worst={worst:.2e} {seconds:.1f}s")


def test_criterion_06_closed_form_fidelity():
    gammas = [2 * math.pi * i / 32 for i in range(32)]
    betas = [math.pi * j / 32 for j in range(32)]
    gm = make_named("MCGEE")
    assert girth(gm) == 7  # the closed forms need girth >= 7
    h7 = build_localmaxcut_hamiltonian(make_cycle(7))
    hm = build_localmaxcut_hamiltonian(gm)
    # <Z_K> sees only the terms meeting K, so on girth 7 each term equals
    # its value on the infinite regular tree
    certificates = [(h7, mask_of((2, 3)), zk_edge_d2),
                    (h7, mask_of((2, 4)), zk_pair_d2),
                    (hm, mask_of((0, gm.adjacency[0][0])), zk_edge_d3),
                    (hm, mask_of((0, *gm.neighbours[0].tolist())), zk_ball_d3)]
    grid = np.meshgrid(gammas, betas, indexing="ij")
    worst_term = max(np.max(np.abs(expectation_terms(h, [K], grid)[0]
                                   - fn(grid)))
                     for h, K, fn in certificates)
    coarse = np.meshgrid(gammas[::4], betas[::4], indexing="ij")
    worst_f2 = np.max(np.abs(expectation_full(h7, coarse)
                             - closed_form_f2(7, coarse)))
    worst_f3 = np.max(np.abs(expectation_full(hm, coarse)
                             - closed_form_f3(24, coarse)))
    ok = worst_term <= 1e-9 and worst_f2 <= 1e-9 and worst_f3 <= 1e-9
    check(6, ok, "per-term and full closed forms on C7 / MCGEE",
          f"term={worst_term:.2e} f2={worst_f2:.2e} f3={worst_f3:.2e}")


def test_criterion_07_encoder_goldens():
    h2 = fourier_encode_clause(local_satisfaction_clause(2))
    h3 = fourier_encode_clause(local_satisfaction_clause(3))
    ok = (dict(h2.terms) == {0: 0.75, 0b011: -0.25, 0b101: -0.25, 0b110: -0.25}
          and dict(h3.terms) == {0: 0.5, 0b0011: -0.25, 0b0101: -0.25,
                                 0b1001: -0.25, 0b1111: 0.25})
    check(7, ok, "clause encoder reproduces the degree-2/3 coefficients exactly")


def test_criterion_08_exact_forms_match_oracle():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[0, 8]))
    worst2 = worst3 = 0.0
    for _ in range(200):
        prm = ClassicalParams(float(rng.uniform()),
                              tuple(float(t) for t in rng.uniform(size=3)))
        worst2 = max(worst2, abs(exact_prob(2, prm)
                                 - neighborhood_oracle_prob(2, prm)))
    for _ in range(200):
        prm = ClassicalParams(float(rng.uniform()),
                              tuple(float(t) for t in rng.uniform(size=4)))
        worst3 = max(worst3, abs(exact_prob(3, prm)
                                 - neighborhood_oracle_prob(3, prm)))
    seconds = time.perf_counter() - t0
    ok = worst2 <= 1e-12 and worst3 <= 1e-12 and seconds < 30.0
    check(8, ok, "closed forms vs enumeration oracle, 200 points per degree",
          f"d2={worst2:.2e} d3={worst3:.2e} {seconds:.1f}s")


def test_criterion_09_initial_satisfaction():
    targets = {2: 3 / 4, 3: 1 / 2, 4: 11 / 16}
    ok = True
    for d, want in targets.items():
        got = prob_satisfied_initial(d)
        frozen = neighborhood_oracle_prob(d, ClassicalParams(0.5, (0.0,) * (d + 1)))
        ok = ok and abs(got - want) <= 1e-12 and abs(got - frozen) <= 1e-12
    check(9, ok, "initial satisfaction 3/4, 1/2, 11/16 for degrees 2, 3, 4")


def test_criterion_10_monte_carlo_concordance():
    t0 = time.perf_counter()
    s2 = monte_carlo(make_cycle(10000), optimal_preset(2), trials=200, seed=0)
    dev2 = abs(s2.mean - 0.95)
    g3 = make_random_regular(1000, 3, min_girth=5, seed=0)
    exact3 = exact_prob(3, optimal_preset(3))
    s3 = monte_carlo(g3, optimal_preset(3), trials=500, seed=0)
    dev3 = abs(s3.mean - exact3)
    seconds = time.perf_counter() - t0
    ok = dev2 <= 4 * s2.stderr and dev3 <= 4 * s3.stderr and seconds < 120.0
    check(10, ok, "Monte Carlo within 4 stderr of the tree-exact values",
          f"d2={dev2 / s2.stderr:.2f}se d3={dev3 / s3.stderr:.2f}se {seconds:.1f}s")


def test_criterion_11_reproduce_command(capsys):
    rc2 = main(["reproduce", "--degree", "2", "--json", "--no-timestamp"])
    out2 = capsys.readouterr().out
    rc3 = main(["reproduce", "--degree", "3", "--json", "--no-timestamp"])
    out3 = capsys.readouterr().out
    import json
    doc2 = json.loads(out2)["degrees"]["2"]
    doc3 = json.loads(out3)["degrees"]["3"]
    ok = (rc2 == 0 and doc2["winner"] == "classical"
          and doc2["classical"]["value"] > doc2["quantum"]["value"]
          and rc3 == 0 and doc3["winner"] == "quantum"
          and doc3["quantum"]["value"] > doc3["classical"]["value"])
    check(11, ok, "reproduce exits 0 with the right winner for both degrees",
          f"d2 sep={doc2['separation']:.4f} d3 sep={-doc3['separation']:.4f}")
