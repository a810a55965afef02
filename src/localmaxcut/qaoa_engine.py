"""Analytic single-round QAOA expectations for diagonal Hamiltonians.

For |gamma,beta> = exp(-i beta sum_v X_v) exp(-i gamma H) |s> and any
vertex subset K, the expectation <Z_K> decomposes over subsets L of K.
Writing M for the nonempty nonzero-weight terms of H, define

    O(L)   = terms M in M with |M & L| odd,
    O_K(L) = families F of O(L) whose symmetric difference equals K,

then <Z_K> is the sum over L of

    nu(L) * sum_{F in O_K(L)} alpha_F,

    nu(L)    = i^|L| sin(2 beta)^|L| cos(2 beta)^(|K|-|L|),
    alpha_F  = prod_{M in F} i sin(-2 gamma W_M)
               * prod_{N in O(L) \\ F} cos(2 gamma W_N).

The complex arithmetic is carried verbatim (including sin(-2 gamma W)
rather than -sin(2 gamma W)); the total must come out real and the
imaginary residue is checked before being discarded.

The family search is exponential in |O(L)| in the worst case, so it is
capped (default 25; locally tree-like instances stay well under).  The
angle-independent combinatorics of each (H, K) pair are compiled once and
cached, making repeated evaluation at many angles cheap.

Closed-form trigonometric polynomials for the degree-2 and degree-3
LocalMaxCut expectations are provided alongside.  <Z_K> depends only on
the terms that meet K (the light-cone argument of Farhi, Goldstone and
Gutmann, arXiv:1411.4028), so on any girth >= 7 graph the generic engine
reproduces each of them term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hamiltonian import DiagonalHamiltonian, vertices_of

FAMILY_CAP = 25
IMAG_TOL = 1e-9


class QaoaAngles(NamedTuple):
    gamma: float
    beta: float


@dataclass(frozen=True)
class LContribution:
    L: int
    nu: complex
    families: tuple[tuple[int, ...], ...]
    alphas: tuple[complex, ...]
    rho: complex


@dataclass(frozen=True)
class ZkBreakdown:
    K: int
    contributions: tuple[LContribution, ...]
    total: float


def odd_intersection_terms(h: DiagonalHamiltonian, L: int) -> list[int]:
    """The set O(L): nonempty terms of h meeting L an odd number of times."""
    return [m for m, _ in h.nonconstant_terms() if (m & L).bit_count() % 2 == 1]


def _family_indices(masks, K: int):
    """All index subsets of `masks` whose XOR is K, in depth-first order.

    Prunes a branch as soon as the accumulated difference disagrees with K
    on bits that no remaining mask can touch.
    """
    size = len(masks)
    suffix = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    out = []
    chosen = []

    def rec(i, acc):
        if (acc ^ K) & ~suffix[i]:
            return
        if i == size:
            out.append(tuple(chosen))
            return
        rec(i + 1, acc)
        chosen.append(i)
        rec(i + 1, acc ^ masks[i])
        chosen.pop()

    rec(0, 0)
    return out


def solution_families(terms, K: int, cap: int = FAMILY_CAP) -> list[tuple[int, ...]]:
    """All families F of `terms` with symmetric difference exactly K."""
    masks = list(terms)
    if len(masks) > cap:
        raise ValueError(
            f"|O(L)| = {len(masks)} exceeds the enumeration cap {cap}; "
            "instance is outside tractable locality")
    return [tuple(masks[i] for i in idx) for idx in _family_indices(masks, K)]


@lru_cache(maxsize=None)
def _compile_zk(h: DiagonalHamiltonian, K: int):
    """Angle-independent plan: per L, the O(L) weights and family index sets."""
    plan = []
    sub = K
    while True:
        o_terms = [(m, w) for m, w in h.nonconstant_terms()
                   if (m & sub).bit_count() % 2 == 1]
        if len(o_terms) > FAMILY_CAP:
            raise ValueError(
                f"|O(L)| = {len(o_terms)} exceeds the enumeration cap "
                f"{FAMILY_CAP} at L = {vertices_of(sub)}")
        families = _family_indices([m for m, _ in o_terms], K)
        plan.append((sub, tuple(o_terms), tuple(families)))
        if sub == 0:
            break
        sub = (sub - 1) & K
    plan.sort(key=lambda rec: (rec[0].bit_count(), rec[0]))
    return tuple(plan)


def expectation_zk(h: DiagonalHamiltonian, K: int, angles) -> tuple[float, ZkBreakdown]:
    """<gamma,beta| Z_K |gamma,beta> plus its per-L breakdown record."""
    if K == 0:
        raise ValueError("K must be nonempty; <Z_empty> = 1 trivially")
    if K >> h.n:
        raise ValueError(f"K = {K:#x} not within 0..{h.n - 1}")
    gamma, beta = angles
    s2b, c2b = math.sin(2 * beta), math.cos(2 * beta)
    k_bits = K.bit_count()
    contributions = []
    total = 0j
    for L, o_terms, families in _compile_zk(h, K):
        l_bits = L.bit_count()
        nu = (1j * s2b) ** l_bits * c2b ** (k_bits - l_bits)
        sines = [1j * math.sin(-2 * gamma * w) for _, w in o_terms]
        cosines = [math.cos(2 * gamma * w) for _, w in o_terms]
        alphas = []
        for idx in families:
            idx_set = set(idx)
            alpha = 1 + 0j
            for i in range(len(o_terms)):
                alpha *= sines[i] if i in idx_set else cosines[i]
            alphas.append(alpha)
        rho = nu * sum(alphas, start=0j)
        total += rho
        contributions.append(LContribution(
            L=L, nu=nu,
            families=tuple(tuple(o_terms[i][0] for i in idx) for idx in families),
            alphas=tuple(alphas), rho=rho))
    if abs(total.imag) > IMAG_TOL:
        raise ArithmeticError(
            f"imaginary residue {total.imag:.3e} in <Z_K>; "
            "the decomposition must sum to a real number")
    return total.real, ZkBreakdown(K=K, contributions=tuple(contributions),
                                   total=total.real)


def expectation_full(h: DiagonalHamiltonian, angles) -> float:
    """F(gamma, beta) = <gamma,beta| H |gamma,beta> via the Z_K decomposition."""
    total = h.constant
    for m, w in h.nonconstant_terms():
        value, _ = expectation_zk(h, m, angles)
        total += w * value
    return total


def breakdown_to_json(bd: ZkBreakdown) -> dict:
    """Serialize a ZkBreakdown; subsets as vertex arrays, complex as [re, im]."""
    def c(z):
        return [z.real, z.imag]

    return {
        "K": vertices_of(bd.K),
        "total": bd.total,
        "contributions": [
            {
                "L": vertices_of(rec.L),
                "nu": c(rec.nu),
                "families": [[vertices_of(m) for m in fam] for fam in rec.families],
                "alphas": [c(a) for a in rec.alphas],
                "rho": c(rec.rho),
            }
            for rec in bd.contributions
        ],
    }


# ----------------------------------------------------------------------
# Closed forms for degree-2 and degree-3 LocalMaxCut on girth >= 7 graphs.
# Each is a verbatim trigonometric polynomial in (gamma, beta), written in
# numpy arithmetic so the angles may be floats or arrays of one shape.

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
