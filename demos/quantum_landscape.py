#!/usr/bin/env python3
"""Map the single-round angle landscape F(gamma, beta)/n for both degrees.

Prints a coarse ASCII heatmap of the per-vertex expectation, then runs
the real optimizer and reports every distinct local maximum it found.
The CSV twins of these heatmaps come from `localmaxcut sweep`.

Run: python3 demos/quantum_landscape.py
"""

import math

from localmaxcut import grid_sweep, optimize_qaoa
from localmaxcut.optimize import QAOA_BOX, qaoa_objective

SHADES = " .:-=+*#%@"

for d in (2, 3):
    sweep = grid_sweep(qaoa_objective(d), QAOA_BOX, (48, 24))
    lo = float(sweep.values.min())
    hi = float(sweep.values.max())
    print(f"\ndegree {d}: per-vertex expectation over "
          f"gamma in [0, 2pi) x beta in [0, pi)   [{lo:.3f}, {hi:.3f}]")
    # beta grows upward, gamma rightward
    for j in reversed(range(sweep.values.shape[1])):
        row = ""
        for i in range(sweep.values.shape[0]):
            t = (sweep.values[i, j] - lo) / (hi - lo)
            row += SHADES[min(int(t * len(SHADES)), len(SHADES) - 1)]
        print("  " + row)

    report = optimize_qaoa(d)
    g, b = report.argmax
    print(f"  refined optimum {report.value:.9f} at "
          f"gamma={g:.6f} ({g / math.pi:.4f} pi), "
          f"beta={b:.6f} ({b / math.pi:.4f} pi)")
    print(f"  distinct local maxima within 0.1 of the top:")
    for m in report.maxima:
        (g, b), v = m["argmax"], m["value"]
        print(f"    {v:.9f} at gamma={g:.6f} beta={b:.6f}")

print("""
Every Hamiltonian term here touches an even number of vertices, so both
landscapes are invariant under beta -> beta + pi/2; the stripes above are
that symmetry.  F is real, so they are also invariant under
(gamma, beta) -> (2pi - gamma, pi - beta).  The optimizer reports each
maximum as its image in [0, pi] x [pi/2, pi) under both, deduplicating
points closer than 1e-3.
""")
