#!/usr/bin/env python3
"""Cross-check the analytic expectation engine against dense simulation.

The engine computes <gamma,beta| Z_K |gamma,beta> by enumerating families
of Hamiltonian terms whose symmetric difference is K, for a whole batch
of angle pairs in one call.  The statevector takes verify's route: it
counts the locally satisfied vertices of every basis state from the
graph, not from the Hamiltonian, and multiplies out the actual 2^n
amplitudes for the same batch, also in one call.  They must agree to
floating-point precision on every graph small enough to simulate.

Run: python3 demos/engine_vs_statevector.py
"""

import math

import numpy as np

from localmaxcut import (build_localmaxcut_hamiltonian, expectation_full,
                         explain_zk, make_cycle, make_named)
from localmaxcut.statevector import qaoa_values_sv, satisfied_counts

rng = np.random.Generator(np.random.Philox(key=[0, 0]))

print(f"{'graph':>10} {'n':>3} {'samples':>7} {'max |engine - sv|':>18}")
for label, g in [("C_5", make_cycle(5)), ("C_8", make_cycle(8)),
                 ("K33", make_named("K33")), ("PETERSEN", make_named("PETERSEN")),
                 ("HEAWOOD", make_named("HEAWOOD"))]:
    h = build_localmaxcut_hamiltonian(g)
    gammas = rng.uniform(0, 2 * math.pi, 25)
    betas = rng.uniform(0, math.pi, 25)
    engine = expectation_full(h, (gammas, betas))  # one call for all 25 pairs
    sv, _ = qaoa_values_sv(satisfied_counts(g), (), gammas, betas)
    worst = np.max(np.abs(engine - sv))
    print(f"{label:>10} {g.n:>3} {25:>7} {worst:>18.3e}")

# Peek inside one expectation: the family decomposition of an edge term.
print("\nDecomposition of <Z_{0,1}> on PETERSEN at gamma=0.9, beta=0.4:")
h = build_localmaxcut_hamiltonian(make_named("PETERSEN"))
breakdown = explain_zk(h, 0b11, (0.9, 0.4))
for rec in breakdown["contributions"]:
    rho, imag = rec["rho"]
    assert imag == 0.0
    print(f"  L={str(rec['L']):>8}  |O_K(L)|={len(rec['families']):>3}  "
          f"rho={rho:+.6f}")
# every family F of O_K(L) has |F| of the parity of |L|, so each
# nu(L) alpha_F, and so each rho, is exactly real: nothing has to cancel
print(f"  total: {breakdown['total']:+.6f}  (each rho real: |F| = |L| mod 2)")
