"""Grid-plus-compass maximization of the angle and parameter landscapes.

Both surfaces we care about are cheap, smooth, low-dimensional and mildly
multimodal, so the strategy is deliberately plain: score a table of seeds
(angle grid cells, or the best threshold rule at each p), refine the best
handful together by compass search (Kolda, Lewis and Torczon, SIAM Review
45, 2003), and report every distinct local maximum found.  Ties between
equal seeds go to the lowest index so golden outputs are stable.

An objective is a function of one packed point x written in numpy
arithmetic: x is a tuple of coordinate arrays that broadcast together,
and the objective returns the values in their broadcast shape.  The grid
passes every cell in a single call, as one axis per coordinate, and
compass search passes every stencil point of every start in one call per
step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classical import EXACT_MAX_DEGREE, ClassicalParams, exact_prob
from .qaoa_engine import tree_coefficients

TOL = 1e-9  # compass search stops once its step is below this
MAX_ITERS = 2000  # compass search steps before a start counts as unconverged
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
    converged: bool                   # the best start's
    unconverged: int                  # starts stopped by MAX_ITERS
    tol: float
    tolerance_achieved: float
    maxima: tuple[dict, ...]  # {"argmax": ..., "value": ...}, best first


def grid_sweep(objective, box, resolution) -> GridSweep:
    """Evaluate `objective` on a regular half-open grid over `box` in one call.

    `box` is a sequence of (lo, hi) pairs and `resolution` an int or a
    per-axis sequence, at least 2 everywhere.  The objective receives the
    whole grid as one packed point whose coordinates broadcast to the
    grid's shape: coordinate j has the grid's length on axis j and 1 on
    every other (`np.meshgrid(..., indexing="ij", sparse=True)`), so a
    factor of one coordinate is computed once per axis value.  It must
    return the values in the grid's shape, or anything that broadcasts to
    it.  The best cell is the first (lowest row-major index) among equal
    maxima.
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
    grid = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
    values = np.array(np.broadcast_to(objective(grid), resolution), dtype=float)
    idx = np.unravel_index(int(np.argmax(values)), resolution)
    argmax = tuple(float(axes[j][idx[j]]) for j in range(len(axes)))
    return GridSweep(axes=axes, values=values, argmax=argmax,
                     value=float(values[idx]))


def compass_search(objective, starts, box, steps):
    """Maximize `objective` by compass search from every row of `starts` at once.

    Each step evaluates every active start x together with x +- s*steps[j]
    along each axis j whose step is nonzero, clamped to `box`: 2J+1 points
    per start for J such axes, passed as one packed point whose coordinates
    have shape (active starts, 2J+1).  x moves to the best of them, staying
    put on ties, and s (initially 1/2) halves whenever x stays.  A step of
    0 holds its axis fixed and adds no point.  Every
    start takes at least one step and stops once s*max(steps) < TOL; one
    still moving after MAX_ITERS steps is not converged.  No result is
    worse than its start.  Returns per-start arrays (argmax of shape (k, D),
    value, iterations, converged, final s*max(steps)).

    The active starts are held compacted, in start order, with x as one
    row per coordinate, so a step's stencil is one (D, active, 2J+1)
    array and its rows are the coordinates the objective receives.  A
    start's results are written out once, on the step it stops.
    """
    lo, hi = np.array(box, dtype=float).T
    x = np.atleast_2d(np.array(starts, dtype=float))
    if x.shape[1] != len(lo) or np.any((x < lo) | (x > hi)):
        raise ValueError(f"starts {x.tolist()} leave the search box {box}")
    moves = (np.eye(len(lo)) * steps)[np.flatnonzero(steps)]
    # the stencil as (D, 1, 2J+1), and lo and hi as (D, 1, 1)
    stencil = np.vstack([np.zeros(len(lo)), moves, -moves]).T[:, None, :]
    lo, hi = lo[:, None, None], hi[:, None, None]
    reach = float(max(steps))
    k = len(x)
    value = np.empty(k)
    iters = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    final = np.full(k, 0.5 * reach)
    # the active starts: their indices, x as (D, active) and s
    live, xs, scale = np.arange(k), x.T, np.full(k, 0.5)
    rows = np.arange(k)
    for n in range(1, MAX_ITERS + 1):
        pts = np.minimum(np.maximum(xs[:, :, None] + scale[:, None] * stencil,
                                    lo), hi)
        vals = objective(tuple(pts))
        if np.shape(vals) != pts.shape[1:]:
            vals = np.broadcast_to(vals, pts.shape[1:])
        best = vals.argmax(axis=1)
        moved = pts[:, rows, best]
        np.multiply(scale, 0.5, out=scale, where=(moved == xs).all(axis=0))
        xs = moved
        step = scale * reach
        if n < MAX_ITERS and step.min() >= TOL:  # False on a NaN too
            continue
        going = step >= TOL
        done = ~going | (n == MAX_ITERS)
        gone = live[done]
        x[gone] = xs[:, done].T
        value[gone] = vals[rows[done], best[done]]
        iters[gone] = n
        converged[gone] = ~going[done]
        final[gone] = step[done]
        live, xs, scale = live[going], xs[:, going], scale[going]
        if not live.size:
            break
        rows = np.arange(live.size)
    return x, value, iters, converged, final


def _top_k(scores):
    """Indices of the TOP_K largest of the 1-D `scores`, best first.

    Equal to `np.argsort(-scores, kind="stable")[:TOP_K]`, ties going to
    the lowest index, but only the scores at least the TOP_K-th largest
    are sorted.  A NaN key never compares above the cut, so it stays a
    candidate and sorts last, as in the full argsort.
    """
    keys = -scores
    candidates = np.arange(keys.size)
    if keys.size > TOP_K:
        cut = np.partition(keys, TOP_K - 1)[TOP_K - 1]
        candidates = np.flatnonzero(~(keys > cut))
    return candidates[np.argsort(keys[candidates], kind="stable")[:TOP_K]]


def _multistart(objective, seeds, scores, box, steps, canonical):
    """Refine the TOP_K best-scored seeds together, merge coincident maxima.

    `seeds` is a packed point whose coordinates broadcast to `scores.shape`,
    one point per score; only the TOP_K starts are gathered from it.
    Maxima are compared and reported as their `canonical` images.
    """
    top = _top_k(scores.ravel())
    cells = np.unravel_index(top, scores.shape)
    starts = np.column_stack([np.broadcast_to(c, scores.shape)[cells]
                              for c in seeds])
    x, value, iters, converged, step = compass_search(
        objective, starts, box, steps)
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
                              converged=bool(converged[best]),
                              unconverged=int(np.count_nonzero(~converged)),
                              tol=TOL,
                              tolerance_achieved=float(step[best]),
                              maxima=tuple({"argmax": xi, "value": v}
                                           for xi, v in kept
                                           if v >= value[best] - REPORT_MARGIN))


@functools.cache
def qaoa_objective(d: int):
    """Per-vertex expectation F/n on the d-regular tree as a function of the
    packed point (gamma, beta): the series of `tree_coefficients(d)`, summed
    over gamma's frequencies and then beta's, so a grid's axes stay sparse.
    Einsum rounds a point alike on a sparse or a dense grid; matmul need not.
    """
    coefficients = tree_coefficients(d)
    k, l = (np.arange(size) - size // 2 for size in coefficients.shape)

    def objective(x):
        rows = np.einsum("...k,kl->...l", np.exp(1j * np.multiply.outer(x[0], k)),
                         coefficients)
        return np.einsum("...l,...l->...", rows,
                         np.exp(4j * np.multiply.outer(x[1], l))).real
    return objective


def classical_objective(d: int):
    """Satisfaction probability as a function of the packed point (p, q0..qd)."""
    return lambda x: exact_prob(d, ClassicalParams(x[0], tuple(x[1:])))


def optimize_qaoa(d: int) -> OptimizationReport:
    """Maximize the per-vertex one-round expectation over one angle period.

    Seeds are the cells of the angle grid; steps are its spacing; maxima
    are reported as their `_canonical_qaoa` images.
    """
    objective = qaoa_objective(d)
    sweep = grid_sweep(objective, QAOA_BOX, QAOA_RESOLUTION)
    cells = np.meshgrid(*sweep.axes, indexing="ij", sparse=True)
    spacing = [axis[1] - axis[0] for axis in sweep.axes]
    return _multistart(objective, cells, sweep.values, QAOA_BOX, spacing,
                       _canonical_qaoa)


def _canonical_qaoa(x):
    """The image of an angle pair in [0, pi] x [pi/2, pi).  F is real, so
    (2 pi - gamma, pi - beta) is as good as (gamma, beta), and flipping
    every bit leaves H unchanged, so F has period pi/2 in beta."""
    gamma, beta = x
    if gamma > math.pi:
        gamma, beta = 2.0 * math.pi - gamma, math.pi - beta
    beta = math.pi / 2 + math.fmod(beta, math.pi / 2)
    return gamma, beta if beta < math.pi else math.pi / 2  # pi by rounding


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
    table, scores = threshold_seeds(d, ps)
    return _multistart(classical_objective(d), table.T, scores,
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

