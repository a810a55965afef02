"""Derivation certificates, kept as test helpers.

These routes are not used by the package: each one cross-checks a
package route from a different direction.

Classical side.  `neighborhood_oracle_prob` enumerates every initial
assignment and flip pattern of the radius-2 tree, the brute-force
arbiter for `exact_prob`; `exact_prob_loops` is the same sum as
`exact_prob` written as plain loops, one numpy operation per term, with
the flip probability `_fab` and the pmfs as lists, and `exact_prob` must
give its bits; `prob_satisfied_initial` is its closed form at
the frozen uniform start, and `satisfied` the per-vertex check on a
concrete cut.  `hrss_preset` is the threshold rule of Hirvonen, Rybicki,
Schmid and Suomela (arXiv:1402.2543), one of the rules that
`optimize.threshold_seeds` scores.  `four_path_form_d2`, `q2_star` and
`reduced_objective_d2` are the degree-2 stationarity analysis (the
optimum 19/20 at p = 1/2, q2 = 4/5), and `_conditional_prob` walks
every satisfying final assignment of a ball instead of counting
agreeing neighbors.

Quantum side.  The hand-derived closed forms of the one-round value on
the tree: the degree-2 per-term forms `zk_edge_d2` and `zk_pair_d2`, the
degree-3 ones `zk_edge_d3` and `zk_ball_d3`, the full degree-2 value
`closed_form_f2` (written out on its own, not from the per-term forms)
and the full degree-3 value `closed_form_f3`, assembled from its per-term
forms.  The generic engine reproduces each per-term form on girth >= 7
graphs, and the package's Fourier series (`qaoa_engine.tree_coefficients`)
reproduces the full ones.  Two more routes to the same tree value check
that series at any degree: `light_cone_statevector` simulates the
radius-3 ball densely, and `tree_enumeration` sums every bit of the
light cone one by one.

Engine.  `zk_per_pair` is the analytic engine's earlier route: one
(K, L) pair at a time, each with its own O(L) (`odd_intersection_terms`),
elimination, family matrix, product reduction and sum.
`qaoa_engine.expectation_terms` solves each K's light cone once, takes
the pairs of many K as arrays, sums them in groups of equal family count,
and must give the same bits.

Monte Carlo.  `one_round` is one trial of the classical algorithm on the
generator `trial_rng(seed, t)` builds, a new Philox keyed (seed, t),
drawing the flip coins whatever q is; `classical.monte_carlo` re-keys
one generator per trial, skips coins it cannot read, and must give the
same counts.

Random regular graphs.  `random_regular_loops` is the pairing model's
rejection loop as first written: a self-loop test, a stable sort of all
the edge codes for parallel edges, and `short_cycle_fixed_chunks`, the
short-cycle search over chunks of roots of one size.
`graph.make_random_regular` tests parallel edges on its partner rows and
searches roots in growing chunks, and must accept the same pairing.

Statevector.  `butterfly_walsh`, `loop_mixer` and `exp_phase` are the
plain loops over the whole array: one butterfly or one 7-operation mixer
gate per qubit, and one exponential per entry.  `walsh_transform`,
`apply_mixer` and `apply_phase` walk blocks and take one exponential per
distinct value, and must give the same bits, on a lone array and on each
column of a batch.
"""

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from localmaxcut import graph, hamiltonian
from localmaxcut.classical import ClassicalParams, _check_params
from localmaxcut.qaoa_engine import _families
from localmaxcut.statevector import apply_mixer, apply_phase, phase_table

# The oracle holds one uint64 array of 2^V entries per vertex of the radius-2
# tree, V = 1 + d + d(d-1): 17 MiB at d = 4, but about 13 GiB at d = 5.
ORACLE_MAX_DEGREE = 4


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
    Unvalidated.  No term is negative, but the sum can round past 1, so it
    is capped.
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


def exact_prob_loops(d: int, params):
    """`exact_prob`'s sum as loops over the center's bit a, its agreeing
    count l and every pmf entry, each term one operation on p and q.

    Given a and l, each neighbor flips independently (with f_aa if it
    agreed, f_ab if not), so the number S of neighbors ending on side a
    is Bin(l, 1 - f_aa) + Bin(d - l, f_ab); the center stays with
    probability 1 - q_l and is then satisfied iff S <= floor(d/2), and
    moves with probability q_l and is then satisfied iff
    d - S <= floor(d/2).  Every sum starts at the integer 0.
    """
    _check_params(params, d)
    p, q = params
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


def zk_edge_d2(angles):
    """<Z_uv> for an edge uv of a 2-regular graph with tree-like surroundings."""
    g, b = angles
    return (-2 * np.cos(2 * b) * np.sin(2 * b)
            * np.cos(g) * np.sin(g) * np.cos(g / 2) ** 2
            + 2 * np.sin(2 * b) ** 2
            * np.cos(g) * np.sin(g) * np.cos(g / 2) ** 3 * np.sin(g / 2))


def zk_pair_d2(angles):
    """<Z_{w1 w2}> for the two neighbors w1, w2 of a common degree-2 vertex."""
    g, b = angles
    return (-2 * np.cos(2 * b) * np.sin(2 * b)
            * np.cos(g) ** 2 * np.cos(g / 2) * np.sin(g / 2)
            + np.sin(2 * b) ** 2
            * np.cos(g) ** 2 * np.sin(g) ** 2 * np.cos(g / 2) ** 2)


def zk_edge_d3(angles):
    """<Z_uv> for an edge uv of a 3-regular graph with tree-like surroundings."""
    g, b = angles
    return (-2 * np.cos(2 * b) * np.sin(2 * b)
            * np.sin(g) * np.cos(g) * np.cos(g / 2) ** 4)


def zk_ball_d3(angles):
    """<Z_B(u)> for the closed neighborhood of a degree-3 vertex u."""
    g, b = angles
    s2b, c2b = np.sin(2 * b), np.cos(2 * b)
    ch = np.cos(g / 2)
    sh = np.sin(g / 2)
    return (s2b * c2b ** 3 * ch ** 3
            * (3 * np.sin(3 * g / 2) - np.sin(5 * g / 2)) / 4
            + 3 * s2b * c2b ** 3 * sh * ch ** 2
            * (3 * np.cos(3 * g / 2) + np.cos(5 * g / 2)) / 4
            - 3 * s2b ** 3 * c2b * sh * np.cos(g) ** 5 * ch ** 5
            - s2b ** 3 * c2b * ch ** 6
            * (sh * (3 * np.cos(3 * g / 2) + np.cos(5 * g / 2)) ** 3 / 64
               + np.sin(g) ** 3 * np.cos(g) ** 3 * ch ** 4))


def odd_intersection_terms(terms, L: int) -> list:
    """The set O(L): the (mask, weight) terms meeting L an odd number of
    times, in the order given."""
    return [(m, w) for m, w in terms if (m & L).bit_count() % 2 == 1]


def zk_per_pair(h, K: int, gamma, beta) -> np.ndarray:
    """<Z_K> summed one (K, L) pair at a time, before its imaginary residue
    is dropped; gamma and beta are 1-D arrays of one length B.

    For each subset L of K in (|L|, L) order: O(L) from all the terms of
    H, its families of XOR K as a boolean (families x terms) matrix, each
    alpha_F one product over the terms in term order, and
    nu(L) * sum_F alpha_F added to the total.
    """
    subsets = [K]
    while subsets[-1]:
        subsets.append((subsets[-1] - 1) & K)
    subsets.sort(key=lambda L: (L.bit_count(), L))
    s2b, c2b = np.sin(2 * beta), np.cos(2 * beta)
    total = np.zeros(len(gamma), dtype=complex)
    for L in subsets:
        o_terms = odd_intersection_terms(h.terms, L)
        size = len(o_terms)
        codes = _families([m for m, _ in o_terms], K)
        families = (codes[:, None] >> np.arange(size - 1, -1, -1) & 1
                    ).astype(bool)
        alphas = np.ones((0, len(gamma)), dtype=complex)
        if len(families):
            weights = np.array([w for _, w in o_terms])[:, None]
            sines = 1j * np.sin(-2 * gamma * weights)
            cosines = np.cos(2 * gamma * weights)
            alphas = np.multiply.reduce(
                np.where(families[:, :, None], sines, cosines),
                axis=1, initial=1 + 0j)
        nu = (1j * s2b) ** L.bit_count() * c2b ** (K.bit_count()
                                                    - L.bit_count())
        # the real and imaginary parts as two float sums: at B = 1 numpy
        # groups a complex array's pairwise sum differently from a float
        # array's, and the engine sums floats
        total += nu * (alphas.real.sum(axis=0)
                       + 1j * alphas.imag.sum(axis=0))
    return total


def closed_form_f2(n, angles):
    """Full degree-2 expectation F(gamma, beta) per vertex count n (girth >= 7)."""
    g, b = angles
    return (3 * n / 4
            + n / 32 * np.sin(4 * b)
            * (3 * np.sin(g) + 4 * np.sin(2 * g) + 3 * np.sin(3 * g))
            - n / 16 * np.sin(2 * b) ** 2 * np.sin(g) * np.cos(g / 2) ** 2
            * (np.sin(g) + 4 * np.sin(2 * g) + np.sin(3 * g)))


def closed_form_f3(n, angles):
    """Full degree-3 expectation: n/2 - (3n/4) <Z_uv> + (n/4) <Z_B(u)>.

    Assembled from the per-term closed forms with |E| = 3n/2 edges and n
    balls, all equivalent under the girth assumption.
    """
    return (n / 2
            - 3 * n / 4 * zk_edge_d3(angles)
            + n / 4 * zk_ball_d3(angles))


def _clause(d: int, bit, neighbour_bits) -> float:
    """The clause C_u: 1 when at most floor(d/2) neighbours agree with u."""
    return float(sum(b == bit for b in neighbour_bits) <= d // 2)


def light_cone_statevector(d: int, angles) -> float:
    """<C_v> on the d-regular tree by a dense statevector.

    The qubits are the radius-3 ball around v (2 at d = 1, 7 at d = 2, 22
    at d = 3) and the Hamiltonian is the clauses of the vertices within
    distance 2 of v, the only ones that reach <C_v>.  Vertex 0 is v; the
    others are numbered breadth first.
    """
    gamma, beta = angles
    adjacency = [[]]
    frontier = [0]
    for depth in range(3):
        grown = []
        for u in frontier:
            for _ in range(d if depth == 0 else d - 1):
                adjacency[u].append(len(adjacency))
                adjacency.append([u])
                grown.append(len(adjacency) - 1)
        frontier = grown
    n = len(adjacency)
    x = np.arange(2 ** n)

    def clause(u):
        agree = sum((x >> w & 1) == (x >> u & 1) for w in adjacency[u])
        return (agree <= d // 2).astype(float)

    diagonal = sum(clause(u) for u in range(1 + d + d * (d - 1)))
    state = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    apply_mixer(beta, apply_phase(phase_table(diagonal), gamma, state))
    return float(np.abs(state) ** 2 @ clause(0))


def tree_enumeration(d: int, angles) -> float:
    """<C_v> on the d-regular tree with every bit of the light cone summed
    one by one: no agreeing counts, no binomial weights, no powers.

    <C_v> = 2^-(d+1) sum over the measured bits z, bra bits x and ket bits
    x' of B(v) of prod_u m(z_u, x_u) conj(m(z_u, x'_u)) times
    C_v(z) e^{-i gamma (C_v(x) - C_v(x'))}, times one factor per neighbour
    w.  Off B(v) the mixer is unitary, so there x = x', and each bit is an
    average over its two values.  A neighbour's factor averages over its
    d-1 children's bits the phase of C_w times a factor per child u, which
    averages over u's d-1 children's bits the phase of C_u.
    """
    gamma, beta = angles
    kids = list(itertools.product((0, 1), repeat=d - 1))

    def phase(bra, ket):
        return cmath.exp(-1j * gamma * (bra - ket))

    def child(bit, parent, parent_ket):
        return sum(phase(_clause(d, bit, (parent,) + k),
                         _clause(d, bit, (parent_ket,) + k))
                   for k in kids) / len(kids)

    def neighbour(centre, centre_ket, bit, bit_ket):
        total = 0.0
        for k in kids:
            term = phase(_clause(d, bit, (centre,) + k),
                         _clause(d, bit_ket, (centre_ket,) + k))
            for u in k:
                term *= child(u, bit, bit_ket)
            total += term
        return total / len(kids)

    factor = {bits: neighbour(*bits)
              for bits in itertools.product((0, 1), repeat=4)}

    def m(z, x):
        return math.cos(beta) if z == x else -1j * math.sin(beta)

    total = 0.0
    for bits in itertools.product((0, 1), repeat=3 * (d + 1)):
        z, x, y = bits[:d + 1], bits[d + 1:2 * d + 2], bits[2 * d + 2:]
        term = (_clause(d, z[0], z[1:])
                * phase(_clause(d, x[0], x[1:]),
                        _clause(d, y[0], y[1:])))
        for u in range(d + 1):
            term *= m(z[u], x[u]) * m(z[u], y[u]).conjugate()
        for w in range(1, d + 1):
            term *= factor[x[0], y[0], x[w], y[w]]
        total += term
    return (total / 2 ** (d + 1)).real


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


def trial_rng(seed: int, trial: int) -> Generator:
    """A new generator for one Monte Carlo trial: Philox keyed (seed, t)."""
    return Generator(Philox(key=[seed & (2**64 - 1), trial]))


def one_round(adj, params, rng):
    """One trial on the (n, d) neighbour array adj: the initial and final
    bits, as boolean arrays, and the satisfied count."""
    p, q = params
    n, d = adj.shape
    qv = np.asarray(q)

    def agreeing(x):
        ell = np.zeros(n, dtype=np.intp)
        for j in range(d):
            ell += x[adj[:, j]] == x
        return ell

    x0 = rng.random(n) < p
    x1 = x0 ^ (rng.random(n) < qv[agreeing(x0)])
    return x0, x1, np.count_nonzero(agreeing(x1) <= d // 2)


def random_regular_loops(n: int, d: int, min_girth: int, seed: int):
    """The pairing the random regular generator accepts for a valid spec,
    as (pairs, rejected): the (n*d/2, 2) array of accepted vertex pairs,
    or None after `graph.MAX_ATTEMPTS`, and the count of pairings rejected
    for a self-loop, a parallel edge and a short cycle, in that order.
    Each attempt shuffles the stub list once, whatever rejects it."""
    rng = Generator(Philox(key=graph.philox_key(seed)))
    slots = np.arange(n * d)  # stub s belongs to vertex s // d
    place = np.empty_like(slots)
    rejected = [0, 0, 0]
    for _ in range(graph.MAX_ATTEMPTS):
        rng.shuffle(slots)
        pairs = slots.reshape(-1, 2) // d
        u, v = pairs[:, 0], pairs[:, 1]
        if (u == v).any():
            rejected[0] += 1
            continue
        codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v), kind="stable")
        if (codes[1:] == codes[:-1]).any():
            rejected[1] += 1
            continue
        place[slots] = np.arange(n * d)
        nbr = (slots[place ^ 1] // d).reshape(n, d)  # row v: v's partners
        if short_cycle_fixed_chunks(nbr, min_girth):
            rejected[2] += 1
            continue
        return pairs, tuple(rejected)
    return None, tuple(rejected)


def short_cycle_fixed_chunks(nbr, min_girth: int) -> bool:
    """Whether the simple graph with (n, d) neighbour array nbr has a cycle
    shorter than min_girth: the walks of at most r = (min_girth-1)//2
    steps from each root, plus one more step for even min_girth, in chunks
    of max(1, BLOCK // walk width) roots, and the first chunk in which a
    vertex is reached twice, once within r steps, ends the search."""
    if min_girth <= 3:
        return False
    n, d = nbr.shape
    r = (min_girth - 1) // 2
    even = min_girth % 2 == 0
    width = 1 + sum(d * (d - 1) ** k for k in range(r + even))
    chunk = max(1, hamiltonian.BLOCK // width)
    for start in range(0, n, chunk):
        roots = np.arange(start, min(start + chunk, n))
        rows = len(roots)
        prev, ends = np.full((rows, 1), -1), roots[:, None]
        tagged = [2 * ends]  # 2v + 1 marks an end after r+1 steps
        for k in range(r + even):
            step = nbr[ends]
            keep = step != prev[..., None]
            prev = np.broadcast_to(ends[..., None], step.shape)[keep].reshape(rows, -1)
            ends = step[keep].reshape(rows, -1)
            tagged.append(2 * ends + (k == r))
        seen = np.sort(np.concatenate(tagged, axis=1), axis=1, kind="stable")
        if np.any((seen[:, 1:] >> 1 == seen[:, :-1] >> 1) & (seen[:, :-1] & 1 == 0)):
            return True
    return False


def butterfly_walsh(values) -> np.ndarray:
    """The Walsh-Hadamard transform as one butterfly per qubit over the
    whole array, lowest qubit first."""
    a = np.array(values, dtype=float)
    h = 1
    while h < len(a):
        lo, hi = a.reshape(-1, 2, h).transpose(1, 0, 2)  # views into a
        lo[:], hi[:] = lo + hi, lo - hi
        h *= 2
    return a


def loop_mixer(beta, amplitudes) -> np.ndarray:
    """exp(-i beta X) on every qubit of a copy of the amplitudes, one
    qubit at a time over the whole array."""
    amplitudes = amplitudes.copy()
    c, s = np.cos(beta), -1j * np.sin(beta)
    for v in range(len(amplitudes).bit_length() - 1):
        pairs = amplitudes.reshape(-1, 2, 2 ** v)
        a = pairs[:, 0, :].copy()
        pairs[:, 0, :] *= c
        pairs[:, 0, :] += s * pairs[:, 1, :]
        pairs[:, 1, :] *= c
        pairs[:, 1, :] += s * a
    return amplitudes


def exp_phase(diagonal, gamma, amplitudes) -> np.ndarray:
    """A copy of the amplitudes times exp(-i gamma H(x)), one exponential
    per entry.  The product is taken in place, as the package takes it:
    numpy's in-place and out-of-place complex multiplies can round an
    entry differently (one unit in the last place, on a 1-entry array)."""
    amplitudes = amplitudes.copy()
    amplitudes *= np.exp(-1j * gamma * diagonal)
    return amplitudes
