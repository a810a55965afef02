"""One-round randomized local algorithm for LocalMaxCut.

The algorithm draws an initial cut tau_0 with each vertex independently
assigned +1 with probability p, then every vertex v computes its agreeing
neighbor count l(v) under tau_0 and flips independently with probability
q_{l(v)}.  A vertex is satisfied when at most floor(d/2) neighbors agree
with it, i.e. at least ceil(d/2) incident edges are cut.

Cuts are numpy arrays of +1/-1.  In bit notation (0/1) used by the
conditional probabilities below, bit 1 corresponds to +1 and is drawn
with probability p.

Two evaluation routes are provided: the exact sum over a vertex's
initial bit and agreeing-neighbor count (`exact_prob`, every degree up to
EXACT_MAX_DEGREE, on scalars or numpy batches), and seeded Monte Carlo on
concrete graphs.  The test suite checks both against a third, a
brute-force enumeration oracle on the radius-2 tree
(`tests/derivations.py`, the arbiter).
Randomness is counter-based (Philox keyed by master seed and trial index)
so runs are reproducible and trial order is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .graph import philox_key

EXACT_MAX_DEGREE = 10  # the sum has O(d^3) terms: under 1 ms per point at d = 10
MAX_TRIALS = 10**8  # Monte Carlo keeps one float per trial: 0.8 GB at the cap


class ClassicalParams(NamedTuple):
    p: float
    q: tuple[float, ...]


def _is_probability(x) -> bool:
    """Whether x, or every entry of an array x, lies in [0,1] (NaN does not)."""
    if isinstance(x, np.ndarray):
        return bool(np.all((x >= 0.0) & (x <= 1.0)))
    return 0.0 <= x <= 1.0


def _check_params(params, d: int):
    p, q = params
    if not all(_is_probability(x) for x in (p, *q)):
        raise ValueError(f"probabilities must lie in [0,1], got p={p}, q={q}")
    if len(q) != d + 1:
        raise ValueError(f"flip vector has {len(q)} entries, expected d+1={d + 1}")


@dataclass(frozen=True)
class RunStats:
    trials: int
    mean: float
    stderr: float


# Tuned parameters by degree.  Degree 2: unbiased start, flip an
# unsatisfied vertex with probability 4/5, reaching 19/20.  Degree 3:
# always flip at l = 3, with the initial bias the degree-3 optimizer
# settles on (value about 0.77257).  1 - p is just as good by the
# complement symmetry.
OPTIMAL_PRESETS = {
    2: ClassicalParams(p=0.5, q=(0.0, 0.0, 0.8)),
    3: ClassicalParams(p=0.39116622410642893, q=(0.0, 0.0, 0.0, 1.0)),
}


def optimal_preset(d: int) -> ClassicalParams:
    """Parameters maximizing the one-round satisfaction probability."""
    if d not in OPTIMAL_PRESETS:
        raise ValueError(f"tuned parameters cover d in {set(OPTIMAL_PRESETS)}, "
                         f"got {d}")
    return OPTIMAL_PRESETS[d]


def _agreeing(adj, x, ell):
    """Per-vertex count of neighbours whose boolean side equals its own,
    written into the array ell."""
    ell[:] = 0
    for j in range(adj.shape[1]):
        ell += x[adj[:, j]] == x
    return ell


def monte_carlo(g, params, trials: int, seed: int = 0) -> RunStats:
    """Mean satisfied fraction over independent seeded trials, with stderr.

    Trial t draws from Philox keyed `philox_key(seed, t)` at counter 0.
    One generator is re-keyed through its state for each trial, which
    gives the draws a new Philox with that key would without reading OS
    entropy for a seed sequence that the key overrides."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"need 1 <= trials <= {MAX_TRIALS}, got {trials}")
    d = g.degree
    if d is None:
        raise ValueError("graph is not regular")
    _check_params(params, d)
    p, q = params
    qv = np.asarray(q)
    adj = g.neighbours
    bits = Philox(key=philox_key(seed))
    fresh = bits.state  # counter 0 and an empty buffer
    rng = Generator(bits)
    ell = np.empty(g.n, dtype=np.min_scalar_type(d))
    fractions = np.empty(trials)
    for t in range(trials):
        fresh["state"]["key"] = philox_key(seed, t)
        bits.state = fresh
        x0 = rng.random(g.n) < p
        x1 = x0 ^ (rng.random(g.n) < qv.take(_agreeing(adj, x0, ell)))
        fractions[t] = np.count_nonzero(_agreeing(adj, x1, ell) <= d // 2) / g.n
    stderr = float(np.std(fractions, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RunStats(trials=trials, mean=float(np.mean(fractions)), stderr=stderr)


def _fab(a: int, b: int, p: float, q, d: int) -> float:
    """f_ab: probability that a vertex with own bit b flips, given one
    visible neighbor with bit a, marginalized over its d-1 hidden neighbors.
    Unvalidated: callers check the parameters once per evaluation.  No
    term is negative, but the sum can round past 1, so it is capped, a
    float by `min` (a numpy scalar's first arithmetic costs 0.16 MiB).
    """
    agree = p if b == 1 else 1 - p
    ell0 = 1 if a == b else 0
    total = 0
    for k, weight in enumerate(_binomial_pmf(d - 1, agree)):
        total += weight * q[ell0 + k]
    return np.minimum(total, 1.0) if np.ndim(total) else min(total, 1.0)


def _binomial_pmf(n: int, r):
    """[Pr[Bin(n, r) = k] for k = 0..n]."""
    return [math.comb(n, k) * r ** k * (1 - r) ** (n - k) for k in range(n + 1)]


def _pmf_of_sum(x, y):
    """Distribution of X + Y for independent X, Y given as pmf lists."""
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return out


def exact_prob(d: int, params):
    """Pr[v satisfied after one round] on a locally tree-like d-regular graph.

    Sums over the center's initial bit a and its agreeing-neighbor count l,
    weighted p_a^(l+1) (1-p_a)^(d-l) C(d, l).  Given both, each neighbor
    flips independently (with f_aa if it agreed, f_ab if not), so the
    number S of neighbors ending on side a is Bin(l, 1 - f_aa) +
    Bin(d - l, f_ab).  The center stays with probability 1 - q_l and is
    then satisfied iff S <= floor(d/2); it moves with probability q_l and
    is then satisfied iff d - S <= floor(d/2).  O(d^3) terms of plain
    arithmetic, so p and the q entries may be floats, Fractions (kept
    exact: every sum starts at the integer 0, so all-integer inputs can
    give an int) or numpy arrays of one shape, and the result has that
    shape.  Agrees with the brute-force oracle for every (p, q).
    """
    if not 1 <= d <= EXACT_MAX_DEGREE:
        raise ValueError(f"exact sum covers 1 <= d <= {EXACT_MAX_DEGREE}, got {d}")
    p, q = params
    _check_params(params, d)
    m = d // 2
    total = 0
    for a, pa in ((0, 1 - p), (1, p)):
        f_same, f_diff = _fab(a, a, p, q, d), _fab(a, 1 - a, p, q, d)
        for l in range(d + 1):
            s = _pmf_of_sum(_binomial_pmf(l, 1 - f_same),
                            _binomial_pmf(d - l, f_diff))
            weight = math.comb(d, l) * pa ** (l + 1) * (1 - pa) ** (d - l)
            total += weight * ((1 - q[l]) * sum(s[:m + 1])
                               + q[l] * sum(s[d - m:]))
    return total
