"""One-round randomized local algorithm for LocalMaxCut.

The algorithm draws an initial cut tau_0 with each vertex independently
assigned +1 with probability p, then every vertex v computes its agreeing
neighbor count l(v) under tau_0 and flips independently with probability
q_{l(v)}.  A vertex is satisfied when at most floor(d/2) neighbors agree
with it, i.e. at least ceil(d/2) incident edges are cut.

Cuts are numpy arrays of +1/-1.  In bit notation (0/1) used by the
conditional probabilities below, bit 1 corresponds to +1 and is drawn
with probability p.

Three independent evaluation routes are provided and cross-checked in the
test suite: a brute-force enumeration oracle on the radius-2 tree
(`neighborhood_oracle_prob`, the arbiter), the exact sum over a vertex's
initial bit and agreeing-neighbor count (`exact_prob`, every degree up to
EXACT_MAX_DEGREE, on scalars or numpy batches), and seeded Monte Carlo on
concrete graphs.
Randomness is counter-based (Philox keyed by master seed and trial index)
so runs are reproducible and trial order is irrelevant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

# The oracle holds one uint64 array of 2^V entries per vertex of the radius-2
# tree, V = 1 + d + d(d-1): 17 MiB at d = 4, but about 13 GiB at d = 5.
ORACLE_MAX_DEGREE = 4
EXACT_MAX_DEGREE = 10  # the sum has O(d^3) terms: under 1 ms per point at d = 10


class ClassicalParams(NamedTuple):
    p: float
    q: tuple[float, ...]


def _is_probability(x) -> bool:
    """Whether x, or every entry of an array x, lies in [0,1] (NaN does not)."""
    if isinstance(x, np.ndarray):
        return bool(np.all((x >= 0.0) & (x <= 1.0)))
    return 0.0 <= x <= 1.0


def _check_params(params, d=None):
    p, q = params
    if not all(_is_probability(x) for x in (p, *q)):
        raise ValueError(f"probabilities must lie in [0,1], got p={p}, q={q}")
    if d is not None and len(q) != d + 1:
        raise ValueError(f"flip vector has {len(q)} entries, expected d+1={d + 1}")


@dataclass(frozen=True)
class RunStats:
    trials: int
    mean: float
    stderr: float
    per_trial: tuple[float, ...] | None = None


def agreeing_count(g, cut, v: int) -> int:
    """l(v): number of neighbors sharing v's side of the cut."""
    return sum(1 for u in g.adjacency[v] if cut[u] == cut[v])


def satisfied(g, cut, v: int) -> bool:
    """Whether at most floor(d/2) of v's neighbors agree with it."""
    return agreeing_count(g, cut, v) <= len(g.adjacency[v]) // 2


def hrss_preset(d: int) -> ClassicalParams:
    """Threshold rule r_d = ceil((d + sqrt(d)) / 2): flip iff l(v) >= r_d, p = 1/2."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    r = math.ceil((d + math.sqrt(d)) / 2)
    return ClassicalParams(p=0.5, q=tuple(1.0 if l >= r else 0.0 for l in range(d + 1)))


def optimal_preset(d: int) -> ClassicalParams:
    """Parameters maximizing the one-round satisfaction probability.

    Degree 2: unbiased start, flip an unsatisfied vertex with probability
    4/5, reaching 19/20.  Degree 3: always flip at l = 3, with the initial
    bias the degree-3 optimizer settles on (value about 0.77257).  Note
    1 - p is just as good by the complement symmetry.
    """
    if d == 2:
        return ClassicalParams(p=0.5, q=(0.0, 0.0, 0.8))
    if d == 3:
        return ClassicalParams(p=0.39116622410642893, q=(0.0, 0.0, 0.0, 1.0))
    raise ValueError(f"tuned parameters cover d in {{2, 3}}, got {d}")


def _adjacency_array(g, d):
    return np.array(g.adjacency, dtype=np.int64).reshape(g.n, d)


def _one_round(adj, params, rng):
    """One trial on the (n, d) array adj: (tau_0, tau_1, satisfied count)."""
    p, q = params
    n, d = adj.shape
    qv = np.asarray(q)
    tau0 = np.where(rng.random(n) < p, 1, -1)
    ell0 = np.sum(tau0[adj] == tau0[:, None], axis=1)
    flips = rng.random(n) < qv[ell0]
    tau1 = np.where(flips, -tau0, tau0)
    ell1 = np.sum(tau1[adj] == tau1[:, None], axis=1)
    return tau0, tau1, int(np.sum(ell1 <= d // 2))


def _trial_rng(seed: int, trial: int):
    return Generator(Philox(key=[seed & (2**64 - 1), trial]))


def run_one_round(g, params, seed: int = 0):
    """Run the algorithm once; returns (tau_1, satisfied count).  Deterministic."""
    d = g.degree
    if d is None:
        raise ValueError("graph is not regular")
    _check_params(params, d)
    _, tau1, count = _one_round(_adjacency_array(g, d), params,
                                _trial_rng(seed, 0))
    return tau1, count


def monte_carlo(g, params, trials: int, seed: int = 0,
                keep_trials: bool = False) -> RunStats:
    """Mean satisfied fraction over independent seeded trials, with stderr."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    d = g.degree
    if d is None:
        raise ValueError("graph is not regular")
    _check_params(params, d)
    adj = _adjacency_array(g, d)
    fractions = np.empty(trials)
    for t in range(trials):
        _, _, count = _one_round(adj, params, _trial_rng(seed, t))
        fractions[t] = count / g.n
    stderr = float(np.std(fractions, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RunStats(trials=trials, mean=float(np.mean(fractions)), stderr=stderr,
                    per_trial=tuple(fractions) if keep_trials else None)


def prob_satisfied_initial(d: int) -> float:
    """Probability a vertex starts satisfied under the uniform initial cut.

    Equals 2^-d sum_{j <= floor(d/2)} C(d, j): both center assignments times
    the ways to place at most floor(d/2) agreeing neighbors.  Only p = 1/2
    has this closed form; other biases go through the oracle.
    """
    return sum(math.comb(d, j) for j in range(d // 2 + 1)) / 2 ** d


def four_path_form_d2(params) -> float:
    """One minus the four ways an all-agreeing path stays all-agreeing.

    Exact (equal to exact_prob(2, .)) precisely when q0 = q1 = 0, because
    only then is a satisfied vertex guaranteed to stay satisfied.  With
    q0 or q1 positive it overestimates: it ignores the satisfied initial
    assignments that flow to unsatisfied ones.  Its maximizer analysis
    (q2_star, reduced_objective_d2) lives on the q0 = q1 = 0 slice, where
    the two functions coincide.
    """
    p, (q0, q1, q2) = params
    _check_params(params, 2)
    return (1.0
            - (1 - p) ** 3 * (1 - q2) * (1 - p * q1 - (1 - p) * q2) ** 2
            - (1 - p) ** 3 * q2 * (p * q1 + (1 - p) * q2) ** 2
            - p ** 3 * (1 - q2) * (1 - (1 - p) * q1 - p * q2) ** 2
            - p ** 3 * q2 * ((1 - p) * q1 + p * q2) ** 2)


def q2_star(p: float, q1: float) -> float:
    """The q2 that zeroes d(exact_prob(2, .))/dq2 at fixed (p, q1)."""
    den = -6 + 26 * p - 44 * p ** 2 + 36 * p ** 3 - 18 * p ** 4
    if den == 0.0:
        raise ZeroDivisionError(f"stationarity denominator vanishes at p={p}")
    num = (-3 + 11 * p - 15 * p ** 2 + 8 * p ** 3 - 4 * p ** 4
           + 4 * p * q1 - 14 * p ** 2 * q1 + 20 * p ** 3 * q1 - 10 * p ** 4 * q1)
    return num / den


def reduced_objective_d2(p: float) -> float:
    """exact_prob(2, .) at q1 = 0 and q2 = q2_star(p, 0), as one rational function."""
    num = (9 - 30 * p + 19 * p ** 2 + 42 * p ** 3 - 55 * p ** 4 - 4 * p ** 5
           + 76 * p ** 6 - 64 * p ** 7 + 16 * p ** 8)
    den = 12 - 52 * p + 88 * p ** 2 - 72 * p ** 3 + 36 * p ** 4
    if den == 0.0:
        raise ZeroDivisionError(f"reduced-objective denominator vanishes at p={p}")
    return num / den


def _fab(a: int, b: int, p: float, q, d: int) -> float:
    """f_ab: probability that a vertex with own bit b flips, given one
    visible neighbor with bit a, marginalized over its d-1 hidden neighbors.
    Unvalidated: callers check the parameters once per evaluation.
    """
    agree = p if b == 1 else 1 - p
    ell0 = 1 if a == b else 0
    total = 0.0
    for k in range(d):
        weight = math.comb(d - 1, k) * agree ** k * (1 - agree) ** (d - 1 - k)
        total += weight * q[ell0 + k]
    return total


@lru_cache(maxsize=None)
def _satisfying_assignments(d: int):
    """Final ball assignments (center, neighbors...) leaving the center satisfied."""
    return [bits for bits in itertools.product((0, 1), repeat=d + 1)
            if sum(1 for b in bits[1:] if b == bits[0]) <= d // 2]


def _conditional_prob(ball, p: float, q, d: int) -> float:
    """Pr[center satisfied after one round | tau_0(B(v)) = ball] on the d-regular tree.

    A cross-check route for `exact_prob`: it walks every satisfying final
    assignment of the ball instead of counting agreeing neighbors.
    """
    a = ball[0]
    ell = sum(1 for b in ball[1:] if b == a)
    flip = (_fab(a, 0, p, q, d), _fab(a, 1, p, q, d))
    total = 0.0
    for final in _satisfying_assignments(d):
        term = q[ell] if final[0] != a else 1.0 - q[ell]
        for b, y in zip(ball[1:], final[1:]):
            term *= flip[b] if b != y else 1.0 - flip[b]
        total += term
    return total


def _binomial_pmf(n: int, r):
    """[Pr[Bin(n, r) = k] for k = 0..n]."""
    return [math.comb(n, k) * r ** k * (1 - r) ** (n - k) for k in range(n + 1)]


def _pmf_of_sum(x, y):
    """Distribution of X + Y for independent X, Y given as pmf lists."""
    out = [0.0] * (len(x) + len(y) - 1)
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
    arithmetic, so p and the q entries may be floats or numpy arrays of
    one shape, and the result has that shape.  Agrees with the
    brute-force oracle for every (p, q).
    """
    if not 1 <= d <= EXACT_MAX_DEGREE:
        raise ValueError(f"exact sum covers 1 <= d <= {EXACT_MAX_DEGREE}, got {d}")
    p, q = params
    _check_params(params, d)
    m = d // 2
    total = 0.0
    for a, pa in ((0, 1 - p), (1, p)):
        f_same, f_diff = _fab(a, a, p, q, d), _fab(a, 1 - a, p, q, d)
        for l in range(d + 1):
            s = _pmf_of_sum(_binomial_pmf(l, 1 - f_same),
                            _binomial_pmf(d - l, f_diff))
            weight = math.comb(d, l) * pa ** (l + 1) * (1 - pa) ** (d - l)
            total += weight * ((1 - q[l]) * sum(s[:m + 1])
                               + q[l] * sum(s[d - m:]))
    return total


def neighborhood_oracle_prob(d: int, params, ball_condition=None) -> float:
    """Brute-force Pr[v satisfied after one round] on the infinite d-regular tree.

    Enumerates every initial assignment of the radius-2 tree around v (the
    center, its d neighbors, and their d-1 children each) and every flip
    pattern of the center and neighbors, accumulating exact probability.
    No independence factorization or closed form is reused, which is what
    makes this the arbiter for the sums above.

    With `ball_condition` = bits (a, b, ...) the initial assignment of
    (v, neighbors) is fixed instead of random and the result is the
    conditional satisfaction probability.
    """
    if not 2 <= d <= ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle covers 2 <= d <= {ORACLE_MAX_DEGREE}, got {d}")
    p, q = params
    _check_params(params, d)
    qv = np.asarray(q)

    n_vertices = 1 + d + d * (d - 1)
    neighbors = np.arange(1, d + 1)
    child = {i: np.arange(1 + d + i * (d - 1), 1 + d + (i + 1) * (d - 1))
             for i in range(d)}

    x = np.arange(2 ** n_vertices, dtype=np.uint64)
    bit = [(x >> np.uint64(k)) & np.uint64(1) for k in range(n_vertices)]

    if ball_condition is None:
        ones = np.bitwise_count(x).astype(np.int64)
        weight = p ** ones * (1 - p) ** (n_vertices - ones)
    else:
        if len(ball_condition) != d + 1:
            raise ValueError(f"ball condition needs {d + 1} bits")
        match = np.ones(len(x), dtype=bool)
        for k, want in enumerate(ball_condition):
            match &= bit[k] == want
        child_mask = np.uint64(((1 << n_vertices) - 1) ^ ((1 << (d + 1)) - 1))
        ones = np.bitwise_count(x & child_mask).astype(np.int64)
        weight = np.where(match, p ** ones * (1 - p) ** (d * (d - 1) - ones), 0.0)

    ell_center = sum((bit[1 + i] == bit[0]).astype(np.int64) for i in range(d))
    ell_nbr = [
        (bit[0] == bit[1 + i]).astype(np.int64)
        + sum((bit[c] == bit[1 + i]).astype(np.int64) for c in child[i])
        for i in range(d)
    ]

    flip_p_center = qv[ell_center]
    flip_p_nbr = [qv[ell_nbr[i]] for i in range(d)]

    total = 0.0
    for pattern in range(2 ** (d + 1)):
        prob = np.where(pattern & 1, flip_p_center, 1.0 - flip_p_center)
        final_center = bit[0] ^ np.uint64(pattern & 1)
        agree = np.zeros(len(x), dtype=np.int64)
        for i in range(d):
            f = pattern >> (1 + i) & 1
            prob = prob * np.where(f, flip_p_nbr[i], 1.0 - flip_p_nbr[i])
            agree += (bit[1 + i] ^ np.uint64(f)) == final_center
        total += float(np.sum(weight * prob * (agree <= d // 2)))
    return total
