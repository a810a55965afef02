"""Grid-plus-compass maximization of the angle and parameter landscapes.

Both surfaces we care about are cheap, smooth, low-dimensional and mildly
multimodal, so the strategy is deliberately plain: score a table of seeds
(angle grid cells, or the best threshold rule at each p), refine the best
handful together by compass search (Kolda, Lewis and Torczon, SIAM Review
45, 2003), and report every distinct local maximum found.  Ties between
equal seeds go to the lowest index so golden outputs are stable.

An objective is a function of one packed point x written in numpy
arithmetic: x is a tuple of coordinate arrays of one shape, and the
objective returns the values in that shape.  The grid passes every cell
in a single call, and compass search passes every stencil point of every
start in one call per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import EXACT_MAX_DEGREE, ClassicalParams, exact_prob
from .qaoa_engine import closed_form_f2, closed_form_f3

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 2000
TOP_K = 8           # seeds carried into refinement
DISTINCT_TOL = 1e-3  # refined points closer than this count as one maximum
REPORT_MARGIN = 0.1  # maxima reported down to this far below the best
QAOA_RESOLUTION = 256  # grid cells per angle axis
P_SEEDS = 11  # values of p, 0 to 1 with 1/2 among them, in the classical seeds

QAOA_BOX = ((0.0, 2.0 * math.pi), (0.0, math.pi))


@dataclass(frozen=True)
class GridSweep:
    """Full value grid plus the best cell, for heatmap export and seeding."""
    axes: tuple
    values: np.ndarray
    argmax: tuple[float, ...]
    value: float


@dataclass(frozen=True)
class OptimizationReport:
    argmax: tuple[float, ...]
    value: float
    grid_resolution: tuple[int, ...]  # shape of the seed table
    grid_value: float                 # its best value
    iterations: int
    converged: bool
    tol: float
    tolerance_achieved: float
    maxima: tuple[tuple[tuple[float, ...], float], ...]


def grid_sweep(objective, box, resolution) -> GridSweep:
    """Evaluate `objective` on a regular half-open grid over `box` in one call.

    `box` is a sequence of (lo, hi) pairs and `resolution` an int or a
    per-axis sequence, at least 2 everywhere.  The objective receives the
    whole grid as one packed point whose coordinates are arrays of the
    grid's shape (`np.meshgrid(..., indexing="ij")`) and must return the
    values in that shape, or anything that broadcasts to it.  The best cell
    is the first (lowest row-major index) among equal maxima.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ValueError(f"box axis ({lo}, {hi}) is not a finite interval")
    if isinstance(resolution, int):
        resolution = (resolution,) * len(box)
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != len(box) or any(r < 2 for r in resolution):
        raise ValueError(f"need resolution >= 2 on each of {len(box)} axes, "
                         f"got {resolution}")
    axes = tuple(lo + (hi - lo) * np.arange(r) / r
                 for (lo, hi), r in zip(box, resolution))
    grid = tuple(np.meshgrid(*axes, indexing="ij"))
    values = np.array(np.broadcast_to(objective(grid), resolution), dtype=float)
    idx = np.unravel_index(int(np.argmax(values)), resolution)
    argmax = tuple(float(axes[j][idx[j]]) for j in range(len(axes)))
    return GridSweep(axes=axes, values=values, argmax=argmax,
                     value=float(values[idx]))


def compass_search(objective, starts, box, steps, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS):
    """Maximize `objective` by compass search from every row of `starts` at once.

    Each step evaluates every active start x together with x +- s*steps[j]
    along each axis j, clamped to `box`: 2D+1 points per start, passed as
    one packed point whose coordinates have shape (active starts, 2D+1).
    x moves to the best of them, staying put on ties, and s (initially 1/2)
    halves whenever x stays.  A step of 0 holds its axis fixed.  Every
    start takes at least one step and stops once s*max(steps) < `tol`; one
    still moving after `max_iters` steps is not converged.  No result is
    worse than its start.  Returns per-start arrays (argmax of shape (k, D),
    value, iterations, converged, final s*max(steps)).
    """
    lo, hi = np.array(box, dtype=float).T
    x = np.atleast_2d(np.array(starts, dtype=float))
    if x.shape[1] != len(lo) or np.any((x < lo) | (x > hi)):
        raise ValueError(f"starts {x.tolist()} leave the search box {box}")
    moves = np.eye(len(lo)) * steps
    stencil = np.vstack([np.zeros(len(lo)), moves, -moves])  # (2D+1, D)
    reach = float(max(steps))
    k = len(x)
    value = np.empty(k)
    scale = np.full(k, 0.5)
    iters = np.zeros(k, dtype=int)
    active = np.ones(k, dtype=bool)
    for _ in range(max_iters):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        pts = np.clip(x[live, None, :] + scale[live, None, None] * stencil,
                      lo, hi)
        vals = np.broadcast_to(objective(tuple(np.moveaxis(pts, -1, 0))),
                               pts.shape[:2])
        rows, best = np.arange(live.size), np.argmax(vals, axis=1)
        stay = np.all(pts[rows, best] == x[live], axis=1)
        x[live] = pts[rows, best]
        value[live] = vals[rows, best]
        scale[live] *= np.where(stay, 0.5, 1.0)
        iters[live] += 1
        active[live] = scale[live] * reach >= tol
    return x, value, iters, ~active, scale * reach


def _multistart(objective, seeds, scores, box, steps, canonical=lambda x: x):
    """Refine the TOP_K best-scored seeds together, merge coincident maxima.

    `seeds` holds one point per entry of `scores`, along its last axis.
    Maxima are compared and reported as their `canonical` images.
    """
    top = np.argsort(-scores.ravel(), kind="stable")[:TOP_K]
    x, value, iters, converged, step = compass_search(
        objective, seeds.reshape(-1, seeds.shape[-1])[top], box, steps)
    kept = []
    for i in np.argsort(-value, kind="stable"):
        xi = canonical(tuple(x[i].tolist()))
        if all(math.dist(xi, kx) > DISTINCT_TOL for kx, _ in kept):
            kept.append((xi, float(value[i])))
    best = int(np.argmax(value))
    return OptimizationReport(argmax=kept[0][0], value=kept[0][1],
                              grid_resolution=scores.shape,
                              grid_value=float(scores.ravel()[top[0]]),
                              iterations=int(iters.sum()),
                              converged=bool(converged[best]), tol=DEFAULT_TOL,
                              tolerance_achieved=float(step[best]),
                              maxima=tuple((xi, v) for xi, v in kept
                                           if v >= value[best] - REPORT_MARGIN))


# Per-vertex F/n by degree; calls go through this module's names.
QAOA_OBJECTIVES = {
    2: lambda x: closed_form_f2(1, (x[0], x[1])),
    3: lambda x: closed_form_f3(1, (x[0], x[1])),
}


def qaoa_objective(d: int):
    """Per-vertex expectation F/n as a function of the packed point (gamma, beta)."""
    if d not in QAOA_OBJECTIVES:
        raise ValueError(f"closed forms cover d in {set(QAOA_OBJECTIVES)}, got {d}")
    return QAOA_OBJECTIVES[d]


def classical_objective(d: int):
    """Satisfaction probability as a function of the packed point (p, q0..qd)."""
    return lambda x: exact_prob(d, ClassicalParams(x[0], tuple(x[1:])))


def optimize_qaoa(d: int) -> OptimizationReport:
    """Maximize the per-vertex one-round expectation over one angle period.

    Seeds are the cells of the angle grid; steps are its spacing.
    """
    objective = qaoa_objective(d)
    sweep = grid_sweep(objective, QAOA_BOX, QAOA_RESOLUTION)
    cells = np.stack(np.meshgrid(*sweep.axes, indexing="ij"), axis=-1)
    spacing = [axis[1] - axis[0] for axis in sweep.axes]
    return _multistart(objective, cells, sweep.values, QAOA_BOX, spacing)


def _canonical_classical(x):
    """Smallest symmetry image of a classical parameter vector.

    The satisfaction probability is invariant under p -> 1-p (complement
    the initial cut) and under q -> 1-q componentwise (complement the
    final cut), so maxima come in orbits of up to four points.  Reports
    use the lexicographically smallest image as the representative.
    """
    p, q = x[0], tuple(x[1:])
    return min((pp,) + qq
               for pp in (p, 1.0 - p)
               for qq in (q, tuple(1.0 - t for t in q)))


def threshold_seeds(d: int, ps):
    """The best threshold rule at every p of the array `ps`, and its value.

    Rule r flips a vertex iff l >= r of its d neighbours share its side,
    q_l = [l >= r], r = 0..d+1 (Hirvonen, Rybicki, Schmid and Suomela,
    arXiv:1402.2543), all scored in one objective call.  Returns one row
    (p, q0..qd) per p and its value; ties go to the smallest r.
    """
    if not 1 <= d <= EXACT_MAX_DEGREE:
        raise ValueError(f"exact sum covers 1 <= d <= {EXACT_MAX_DEGREE}, got {d}")
    ps = np.asarray(ps, dtype=float)
    rules = (np.arange(d + 1) >= np.arange(d + 2)[:, None]).astype(float)
    scores = classical_objective(d)((ps[:, None], *rules.T))  # (len(ps), d+2)
    return (np.column_stack([ps, rules[np.argmax(scores, axis=1)]]),
            scores.max(axis=1))


def optimize_classical(d: int) -> OptimizationReport:
    """Maximize the one-round satisfaction probability over (p, q0..qd).

    Seeds are `threshold_seeds` on P_SEEDS values of p, every step their
    spacing; maxima are reported as their `_canonical_classical` images.
    """
    ps = np.linspace(0.0, 1.0, P_SEEDS)
    return _multistart(classical_objective(d), *threshold_seeds(d, ps),
                       ((0.0, 1.0),) * (d + 2), (ps[1] - ps[0],) * (d + 2),
                       _canonical_classical)


def classical_curve(d: int, ps) -> np.ndarray:
    """max over q of exact_prob(d, (p, q)) at every p of the array `ps`.

    Each p is seeded with its best threshold rule (`threshold_seeds`).
    One compass search then refines all seeds together with p held fixed
    (step 0 on the p axis) and a full-width step on each q axis.
    """
    return compass_search(classical_objective(d), threshold_seeds(d, ps)[0],
                          ((0.0, 1.0),) * (d + 2), (0.0,) + (1.0,) * (d + 1))[1]


def report_to_json(report: OptimizationReport) -> dict:
    return {
        "argmax": list(report.argmax),
        "value": report.value,
        "grid_resolution": list(report.grid_resolution),
        "grid_value": report.grid_value,
        "iterations": report.iterations,
        "converged": report.converged,
        "tol": report.tol,
        "tolerance_achieved": report.tolerance_achieved,
        "maxima": [{"argmax": list(x), "value": v} for x, v in report.maxima],
    }
