#!/usr/bin/env python3
"""The headline comparison: one quantum round vs one classical round.

Recovers all four optima, prints the separation table, then confirms the
tree-exact classical numbers by Monte Carlo on concrete large graphs.

Run: python3 demos/classical_vs_quantum.py  (about 10 seconds)
"""

from localmaxcut import (exact_prob, make_cycle, make_random_regular,
                         monte_carlo, optimal_preset, optimize_classical,
                         optimize_qaoa)

print("optimizing both sides (degree 2 then 3)...")
rows = []
for d in (2, 3):
    rc = optimize_classical(d)
    rq = optimize_qaoa(d)
    rows.append((d, rc, rq))

print(f"\n{'degree':>6} {'classical':>12} {'quantum':>12} {'gap':>9}  winner")
for d, rc, rq in rows:
    winner = "classical" if rc.value > rq.value else "quantum"
    print(f"{d:>6} {rc.value:>12.6f} {rq.value:>12.6f} "
          f"{abs(rc.value - rq.value):>9.4f}  {winner}")

for d, rc, rq in rows:
    p, *q = rc.argmax
    print(f"\ndegree {d} classical argmax: p={p:.6f}, "
          f"q=({', '.join(f'{t:.4f}' for t in q)})")
    print(f"degree {d} quantum argmax:   gamma={rq.argmax[0]:.6f}, "
          f"beta={rq.argmax[1]:.6f}")

print("""
One round of the classical flip algorithm beats one QAOA round on cycles
(0.95 vs 0.9394 per vertex) but loses on cubic graphs (0.7726 vs 0.8193):
neither side dominates at equal round count.
""")

print("Monte Carlo spot checks at the tuned parameters:")
g2 = make_cycle(10000)
s2 = monte_carlo(g2, optimal_preset(2), trials=100, seed=0)
print(f"  C_10000:            mean {s2.mean:.4f} +- {s2.stderr:.4f} "
      "(tree-exact 0.9500)")

g3 = make_random_regular(1000, 3, min_girth=5, seed=0)
s3 = monte_carlo(g3, optimal_preset(3), trials=200, seed=0)
print(f"  random cubic n=1000: mean {s3.mean:.4f} +- {s3.stderr:.4f} "
      f"(tree-exact {exact_prob(3, optimal_preset(3)):.4f})")
