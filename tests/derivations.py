"""Derivation certificates for the classical side, kept as test helpers.

These routes are not used by the package: each one cross-checks
`exact_prob` from a different direction.  `four_path_form_d2`,
`q2_star` and `reduced_objective_d2` are the degree-2 stationarity
analysis (the optimum 19/20 at p = 1/2, q2 = 4/5), and
`_conditional_prob` walks every satisfying final assignment of a ball
instead of counting agreeing neighbors.
"""

import itertools
from functools import lru_cache

from localmaxcut.classical import _check_params, _fab


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
