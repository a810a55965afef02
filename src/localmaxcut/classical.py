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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

# The oracle holds one uint64 array of 2^V entries per vertex of the radius-2
# tree, V = 1 + d + d(d-1): 17 MiB at d = 4, but about 13 GiB at d = 5.
ORACLE_MAX_DEGREE = 4
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


def satisfied(g, cut, v: int) -> bool:
    """Whether at most floor(d/2) of v's neighbors agree with it."""
    agreeing = sum(1 for u in g.adjacency[v] if cut[u] == cut[v])
    return agreeing <= len(g.adjacency[v]) // 2


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


def monte_carlo(g, params, trials: int, seed: int = 0) -> RunStats:
    """Mean satisfied fraction over independent seeded trials, with stderr."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"need 1 <= trials <= {MAX_TRIALS}, got {trials}")
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
    return RunStats(trials=trials, mean=float(np.mean(fractions)), stderr=stderr)


def prob_satisfied_initial(d: int) -> float:
    """Probability a vertex starts satisfied under the uniform initial cut.

    Equals 2^-d sum_{j <= floor(d/2)} C(d, j): both center assignments times
    the ways to place at most floor(d/2) agreeing neighbors.  Only p = 1/2
    has this closed form; other biases go through the oracle.
    """
    return sum(math.comb(d, j) for j in range(d // 2 + 1)) / 2 ** d


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
