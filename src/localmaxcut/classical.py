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
(`tests/derivations.py`, the arbiter).  `exact_prob` takes the initial
bit as an array axis and each power once, and keeps every bit of the
plain loop form there, `exact_prob_loops`.
Randomness is counter-based (Philox keyed by master seed and trial index)
so runs are reproducible and trial order is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from . import hamiltonian
from .graph import philox_key

EXACT_MAX_DEGREE = 10  # O(d^3) terms: at d = 10, 2 us a point in a batch, 0.7 ms alone
MAX_TRIALS = 10**8  # Monte Carlo keeps one float per trial: 0.8 GB at the cap


class ClassicalParams(NamedTuple):
    p: float
    q: tuple[float, ...]


def _check_params(params, d: int):
    """(p, q0..qd) stacked, each checked to lie in [0,1] (NaN does not):
    float64 in their broadcast shape if any is an array, else an object
    array of the scalars, which keep their own arithmetic."""
    p, q = params
    entries = (p, *q)
    if any(isinstance(e, np.ndarray) for e in entries):
        x = np.array(np.broadcast_arrays(*entries), dtype=float)
        with np.errstate(invalid="ignore"):  # NaN compares false
            inside = np.all((x >= 0.0) & (x <= 1.0))
    else:
        x = np.array(entries, dtype=object)
        inside = all(0.0 <= e <= 1.0 for e in entries)
    if not inside:
        raise ValueError(f"probabilities must lie in [0,1], got p={p}, q={q}")
    if len(q) != d + 1:
        raise ValueError(f"flip vector has {len(q)} entries, expected d+1={d + 1}")
    return x


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


def monte_carlo(g, params, trials: int, seed: int = 0) -> RunStats:
    """Mean satisfied fraction over independent seeded trials, with stderr.

    Trial t draws from Philox keyed `philox_key(seed, t)` at counter 0.
    One generator is re-keyed through its state for each trial, which
    gives the draws a new Philox with that key would without reading OS
    entropy for a seed sequence that the key overrides.  A trial draws n
    doubles u in [0, 1) into one buffer for the initial bits (u < p), and
    n more for the flip coins (u < q_l) only when some q_l lies strictly
    inside (0, 1): otherwise u < q_l is u < 1, always true, or u < 0,
    never, and the next trial is re-keyed, so skipping them changes no
    bit.  A vertex's count of cut edges c is summed over the neighbour
    columns in the smallest dtype that holds d; it flips with q_(d - c)
    and is satisfied when c >= d - floor(d/2)."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"need 1 <= trials <= {MAX_TRIALS}, got {trials}")
    d = g.degree
    if d is None:
        raise ValueError("graph is not regular")
    _check_params(params, d)
    p, q = params
    flip = np.asarray(q)[::-1]  # by cut count, d - l
    coins = any(0 < e < 1 for e in q)
    if not coins:
        flip = flip == 1
    columns = np.ascontiguousarray(g.neighbours.T)
    bits = Philox(key=philox_key(seed))
    fresh = bits.state  # counter 0 and an empty buffer
    rng = Generator(bits)
    u = np.empty(g.n)
    cut = np.empty(g.n, dtype=np.min_scalar_type(d))
    fractions = np.empty(trials)
    for t in range(trials):
        fresh["state"]["key"] = philox_key(seed, t)
        bits.state = fresh
        x = rng.random(out=u) < p
        moves = flip.take(_cut(columns, x, cut))
        if coins:
            moves = rng.random(out=u) < moves
        x ^= moves
        fractions[t] = np.count_nonzero(_cut(columns, x, cut) >= d - d // 2) / g.n
    stderr = float(np.std(fractions, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RunStats(trials=trials, mean=float(np.mean(fractions)), stderr=stderr)


def _cut(columns, x, cut):
    """Per-vertex count of cut edges under the boolean sides x, written
    into the array cut: x at the (d, n) neighbour columns XOR x, summed
    over the columns."""
    x = x.view(np.uint8)
    return np.add.reduce(x.take(columns) ^ x, axis=0, dtype=cut.dtype, out=cut)


def exact_prob(d: int, params):
    """Pr[v satisfied after one round] on a locally tree-like d-regular graph.

    Sums over the center's initial bit a and its agreeing-neighbor count l,
    weighted p_a^(l+1) (1-p_a)^(d-l) C(d, l).  Given both, each neighbor
    flips independently (with f_aa if it agreed, f_ab if not), so the
    number S of neighbors ending on side a is Bin(l, 1 - f_aa) +
    Bin(d - l, f_ab).  The center stays with probability 1 - q_l and is
    then satisfied iff S <= floor(d/2); it moves with probability q_l and
    is then satisfied iff d - S <= floor(d/2).  p and the q entries may
    be arrays that broadcast together (the result has their shape) or
    scalars, each keeping its arithmetic: Fractions stay exact and
    all-integer inputs give an int.  Agrees with the brute-force oracle
    for every (p, q).
    """
    if not 1 <= d <= EXACT_MAX_DEGREE:
        raise ValueError(f"exact sum covers 1 <= d <= {EXACT_MAX_DEGREE}, got {d}")
    x = _check_params(params, d)
    points = x.reshape(d + 2, -1)
    out = np.empty(points.shape[1], dtype=x.dtype)
    # from BLOCK // 4 points a block, each block pages in fresh memory:
    # 20,000-point calls took 1.3-1.4x the loop form's time, not 0.85x
    step = max(1, hamiltonian.BLOCK // 8)
    for start in range(0, len(out), step):
        out[start:start + step] = _satisfied(d, points[:, start:start + step])
    return out.reshape(x.shape[1:])[()]


def _pmf(n: int, up, down):
    """[Pr[Bin(n, r) = k] for k = 0..n], C(n, k) * up[k] * down[n - k] from
    up[k] = r ** k and down[k] = (1 - r) ** k.  An end is a power itself:
    C(n, 0) = C(n, n) = 1 and x ** 0 = 1 exactly."""
    if n == 0:
        return [up[0]]
    return [down[n], *(math.comb(n, k) * up[k] * down[n - k]
                       for k in range(1, n)), up[n]]


def _pmf_of_sum(x, y):
    """Distribution of X + Y for independent X, Y given as pmf lists, each
    entry summed in sequence from its first term.  A one-entry pmf, [1],
    is X = 0 and leaves the other as it is."""
    if len(x) == 1:
        return y
    if len(y) == 1:
        return x
    out = []
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if i + j < len(out):
                out[i + j] += xi * yj
            else:
                out.append(xi * yj)
    return out


def _sum(terms):
    """terms[0] + terms[1] + ..., in sequence from the first term."""
    return sum(terms[1:], terms[0])


def _satisfied(d: int, x):
    """exact_prob on the columns (p, q0..qd) of the (d+2, B) array x, with
    the center's bit a as an axis of length 2 and l and the pmf entries as
    loops.  Every value has the bits of `exact_prob_loops`: its operations
    in its order, less products by an exact 1 (`_pmf`, `_pmf_of_sum`), each
    power `r ** k` taken once (an array exponent, a reversed view or
    repeated products round otherwise), each sum from its first term.  The
    loop form's sums start at 0, which changes only the sign of a zero and
    so no later value but a zero: only the final sum does here."""
    m = d // 2
    p, q = x[0], x[1:]
    u = 1 - p
    base = np.array((1 - u, u, p))  # (1 - (1-p), 1-p, p)
    pw = [base ** j for j in range(d + 2)]
    up = [w[1:] for w in pw]  # p_a ** j
    down = [w[:2] for w in pw]  # (1 - p_a) ** j
    # f_ab over the d - 1 hidden neighbors: f_aa counts the visible one as
    # agreeing (q from q1), f_ab does not (q0) and has p_b = p_(1-a), so
    # comes out in reversed a.  Capped: a sum can round past 1
    hidden = _pmf(d - 1, up, down)
    f_same = np.minimum(_sum([h * q[k + 1] for k, h in enumerate(hidden)]), 1.0)
    f_diff = np.minimum(_sum([h * q[k] for k, h in enumerate(hidden)])[::-1], 1.0)
    # S = Bin(l, 1 - f_aa) + Bin(d - l, f_ab), the neighbors ending on a
    r = np.array((1 - f_same, f_diff))
    rc = 1 - r
    rise, fall = [r ** j for j in range(d + 1)], [rc ** j for j in range(d + 1)]
    stay = [w[0] for w in rise], [w[0] for w in fall]
    join = [w[1] for w in rise], [w[1] for w in fall]
    qc = 1 - q
    terms = []
    for l in range(d + 1):
        s = _pmf_of_sum(_pmf(l, *stay), _pmf(d - l, *join))
        weight = math.comb(d, l) * up[l + 1] * down[d - l]
        terms.append(weight * (qc[l] * _sum(s[:m + 1]) + q[l] * _sum(s[d - m:])))
    return sum([t[0] for t in terms] + [t[1] for t in terms])  # a = 0 first
