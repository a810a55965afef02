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
rather than -sin(2 gamma W), and each alpha_F multiplied out in term
order); the total must come out real and the imaginary residue is
checked before being discarded.

O_K(L) is the solution set of a linear system over GF(2): one family
whose symmetric difference is K, XOR every combination of a basis of the
families whose symmetric difference is empty.  Gaussian elimination
finds both, and the coset is then listed directly, so the cost is
proportional to the number of families found rather than to the 2^|O|
candidates.

<Z_K> depends only on K's light cone, the terms that meet K (Farhi,
Goldstone and Gutmann, arXiv:1411.4028), and every O(L) with L a subset
of K lies in it.  So every family of every such L lies in one coset:
the families of the cone whose symmetric difference is K.  Each K's cone
is solved once, within the call, and O_K(L) is the part of that coset
within O(L).  The cone is capped at FAMILY_CAP = 25 terms (locally
tree-like instances of degree <= 3 stay under 20), and its coset at
COSET_CAP = 2^18 families (2 MiB of integers), which is refused before
it is listed.  The engine keeps no state between calls.

`expectation_terms(h, Ks, angles)` gives every <Z_K> of a list in one
pass, and the other routes call it.  Evaluation is numpy arithmetic, so
the angles may be floats or arrays of one shape and a whole batch of
angle pairs costs one call.  The pass has three stages:

- gather: each K's cone is solved once; for each subset L of K, in
  (|L|, L) order, O(L) is the XOR of O(L - {v}) and O({v}) for the
  lowest vertex v of L (parity is linear in L), and the pair's
  families are the members of the coset within O(L), as integers over
  the cone;
- product: the pairs with families are grouped by shape (families,
  cone size), and each alpha_F is one product reduction over the terms
  of O(L) in term order, taken PRODUCT_BLOCK elements of (pairs,
  families, terms, angle pairs) at a time, whole pairs or rows of one
  pair's families; the alpha_F of a pair are then summed;
- fold: each pair's sum times nu goes into its K's total with one
  indexed add per rank of L, so every total is summed in (|L|, L) order.

Each alpha_F is its own product and each total its own sum in a fixed
order, so neither the blocks nor the grouping changes a bit of the
result.

`tree_coefficients(d)` gives the value <C_v> of one vertex's clause on
the infinite d-regular tree as a trigonometric polynomial.  By the
light-cone argument the engine gives the same value on any d-regular
graph of girth >= 7.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .classical import EXACT_MAX_DEGREE
from .hamiltonian import DiagonalHamiltonian, vertices_of

FAMILY_CAP = 25
COSET_CAP = 2 ** 18
IMAG_TOL = 1e-9

PRODUCT_BLOCK = 2 ** 14  # elements of (pairs, families, terms, angle pairs)


def _bits(codes, size: int) -> np.ndarray:
    """Families given as integers, the family {i} at bit size-1-i, as a
    boolean (..., families, terms) matrix."""
    return (np.asarray(codes)[..., None] >> np.arange(size - 1, -1, -1)
            & 1).astype(bool)


def _families(masks, K: int) -> np.ndarray:
    """The families of the terms `masks` whose XOR is K, in depth-first
    order (term i left out before it is put in), as integers: the family
    {i} at bit T-1-i.

    Gauss-Jordan elimination over GF(2).  Each term enters as one integer,
    its vertex mask in the high bits and the family {i} in the low T bits,
    so that depth-first order is ascending order; the vertex part of every
    basis vector stays the XOR of its family.  Reducing K by the basis
    vectors with a vertex pivot leaves a particular family, or a nonzero
    vertex part when there is none.  The basis vectors with no vertex part
    span the coset of families with empty XOR; the basis is fully reduced,
    so doubling the list once per such vector in ascending pivot order
    lists the coset in ascending order, and the coset XOR the particular
    family gives the families in that order too.  More than FAMILY_CAP
    terms, or a coset of more than COSET_CAP families, is refused before
    anything is listed.
    """
    size = len(masks)
    if size > FAMILY_CAP:
        raise ValueError(f"{size} terms exceed the enumeration cap "
                         f"{FAMILY_CAP}")
    basis = {}  # pivot, as a power of two -> fully reduced vector
    for i, m in enumerate(masks):
        v = m << size | 1 << (size - 1 - i)
        for pivot, b in basis.items():
            if v & pivot:
                v ^= b
        pivot = 1 << v.bit_length() - 1  # bit T-1-i survives, so v != 0
        for p, b in basis.items():
            if b & pivot:
                basis[p] = b ^ v
        basis[pivot] = v
    target = K << size
    for pivot, b in basis.items():
        if pivot >> size and target & pivot:
            target ^= b
    if target >> size:
        return np.zeros(0, dtype=np.int64)
    empty = [basis[p] for p in sorted(basis) if not p >> size]
    if 2 ** len(empty) > COSET_CAP:
        raise ValueError(f"{2 ** len(empty)} families of {size} terms "
                         f"exceed the coset cap {COSET_CAP}")
    coset = np.zeros(1, dtype=np.int64)
    for b in empty:
        coset = np.concatenate([coset, coset ^ b])
    return coset ^ target


def _angles(h: DiagonalHamiltonian, angles):
    """gamma and beta as flat arrays of one length, and their broadcast
    shape.  A non-finite angle is refused, and so is a gamma at which
    2 gamma W_M overflows for a term of H, or a beta at which 2 beta
    does: the sines and cosines would not be numbers."""
    gamma, beta = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                        for a in angles))
    if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(beta))):
        raise ValueError("gamma and beta must be finite")
    top = max((abs(w) for m, w in h.terms if m), default=0.0)
    g, b = (float(np.max(np.abs(a), initial=0.0)) for a in (gamma, beta))
    if not math.isfinite(2 * g * top):
        raise ValueError(f"gamma = {g:g} overflows 2 gamma W_M for a term of "
                         f"weight {top:g}")
    if not math.isfinite(2 * b):
        raise ValueError(f"beta = {b:g} overflows 2 beta")
    return gamma.ravel(), beta.ravel(), gamma.shape


def _gather(h: DiagonalHamiltonian, Ks) -> list:
    """Every (K, L) pair, K in the order given and L in (|L|, L) order:
    (index of K, rank of L, L, masks and weights of K's cone, O(L) as an
    integer over the cone, families of XOR K as integers over the cone).

    The cone is solved once per K; an L's families are the members of
    that coset within O(L), in the same order."""
    for K in Ks:
        if K == 0:
            raise ValueError("K must be nonempty; <Z_empty> = 1 trivially")
        if K >> h.n:
            raise ValueError(f"K = {K:#x} not within 0..{h.n - 1}")
    pairs = []
    for k, K in enumerate(Ks):
        masks = [m for m, _ in h.terms if m & K]
        try:
            coset = _families(masks, K)
        except ValueError as e:
            raise ValueError(
                f"light cone: {e} at K = {vertices_of(K)}") from None
        weights = np.array([w for m, w in h.terms if m & K])
        size = len(masks)
        # O({v}) for each vertex v of K; parity is linear in L, so
        # O(L) = O(L - {v}) XOR O({v}) for the lowest vertex v of L
        odd = {0: 0}
        for v in vertices_of(K):
            odd[1 << v] = sum(1 << (size - 1 - i)
                              for i, m in enumerate(masks) if m >> v & 1)
        subsets = [K]
        while subsets[-1]:
            subsets.append((subsets[-1] - 1) & K)
        subsets.sort(key=lambda L: (L.bit_count(), L))
        for rank, L in enumerate(subsets):
            low = L & -L
            within = odd[L] = odd[L ^ low] ^ odd[low]
            pairs.append((k, rank, L, masks, weights, within,
                          coset[(coset & ~within) == 0]))
    return pairs


def _alphas(codes: np.ndarray, weights: np.ndarray, within,
            gamma) -> np.ndarray:
    """alpha_F of pairs of one shape: (pairs, families) codes and
    (pairs, terms) weights of a cone, with (pairs,) O(L) as integers over
    it, give (pairs, families, B).

    Each alpha_F is one product over the terms of O(L) in term order; the
    other terms of the cone are skipped, not multiplied by 1 (a factor of
    1 + 0j can change the sign of a zero).  It is taken for rows of
    families that keep (pairs, rows, terms, B) within PRODUCT_BLOCK
    elements."""
    pairs, families = codes.shape
    size = weights.shape[1]
    w = weights[:, :, None]
    sines = (1j * np.sin(-2 * gamma * w))[:, None]
    cosines = np.cos(2 * gamma * w)[:, None]
    where = _bits(within, size)[:, None, :, None]
    alphas = np.empty((pairs, families, len(gamma)), dtype=complex)
    rows = max(1, PRODUCT_BLOCK // max(1, pairs * size * len(gamma)))
    for start in range(0, families, rows):
        block = slice(start, start + rows)
        np.multiply.reduce(np.where(_bits(codes[:, block], size)[..., None],
                                    sines, cosines),
                           axis=2, initial=1 + 0j, where=where,
                           out=alphas[:, block])
    return alphas


def _nus(Ks, beta) -> np.ndarray:
    """nu at [|K|, |L|] for every size of K in Ks, (B,) each."""
    k_max = max((K.bit_count() for K in Ks), default=0)
    s2b, c2b = np.sin(2 * beta), np.cos(2 * beta)
    nus = np.zeros((k_max + 1, k_max + 1, len(beta)), dtype=complex)
    for k_bits in {K.bit_count() for K in Ks}:
        for l_bits in range(k_bits + 1):
            nus[k_bits, l_bits] = (1j * s2b) ** l_bits * c2b ** (k_bits - l_bits)
    return nus


def _real(total: np.ndarray) -> np.ndarray:
    """The real part of a summed <Z_K>, refusing any entry whose imaginary
    residue is above IMAG_TOL or not a number."""
    residue = np.abs(total.imag)
    if not np.all(residue <= IMAG_TOL):
        raise ArithmeticError(
            f"imaginary residue {np.max(residue):.3e} in <Z_K>; "
            "the decomposition must sum to a real number")
    return total.real


def expectation_terms(h: DiagonalHamiltonian, Ks, angles) -> np.ndarray:
    """<gamma,beta| Z_K |gamma,beta> for every K of Ks in one pass.

    gamma and beta may be floats or arrays of one shape; the result has
    shape (len(Ks),) + that shape.  A pair with no family adds nothing,
    so only the pairs with families are multiplied out and folded.
    """
    Ks = list(Ks)
    gamma, beta, shape = _angles(h, angles)
    live = [pair for pair in _gather(h, Ks) if len(pair[6])]
    count = len(gamma)
    sums = np.empty((len(live), count), dtype=complex)
    groups, ranks = {}, {}
    for j, (k, rank, _, _, weights, _, codes) in enumerate(live):
        groups.setdefault((len(codes), len(weights)), []).append(j)
        ks, js = ranks.setdefault(rank, ([], []))
        ks.append(k)
        js.append(j)
    for (families, size), members in groups.items():
        step = max(1, PRODUCT_BLOCK // (families * size * max(1, count)))
        for start in range(0, len(members), step):
            chunk = members[start:start + step]
            sums[chunk] = _alphas(np.array([live[j][6] for j in chunk]),
                                  np.array([live[j][4] for j in chunk]),
                                  [live[j][5] for j in chunk],
                                  gamma).sum(axis=1)
    nus = _nus(Ks, beta)
    rhos = nus[[Ks[k].bit_count() for k, *_ in live],
               [L.bit_count() for _, _, L, *_ in live]] * sums
    totals = np.zeros((len(Ks), count), dtype=complex)
    for rank in sorted(ranks):
        ks, js = ranks[rank]
        totals[ks] += rhos[js]
    return _real(totals).reshape((len(Ks),) + shape)


def expectation_zk(h: DiagonalHamiltonian, K: int, angles):
    """<gamma,beta| Z_K |gamma,beta>.

    gamma and beta may be floats (a float comes back) or arrays of one
    shape (an array of that shape comes back).
    """
    value = expectation_terms(h, [K], angles)[0]
    return float(value) if value.ndim == 0 else value


def explain_zk(h: DiagonalHamiltonian, K: int, angles) -> dict:
    """The per-L record behind expectation_zk at one angle pair, as plain
    data: subsets as vertex lists, complex numbers as [re, im].  An L with
    no family keeps its record, with rho = nu * 0."""
    def c(z):
        return [float(z.real), float(z.imag)]

    gamma, beta, _ = _angles(h, angles)
    if len(gamma) != 1:
        raise ValueError("explain_zk takes one angle pair")
    pairs = _gather(h, [K])
    nus = _nus([K], beta)
    total = np.zeros(1, dtype=complex)
    contributions = []
    for _, _, L, masks, weights, within, codes in pairs:
        alphas = _alphas(codes[None], weights[None], [within], gamma)
        nu = nus[K.bit_count(), L.bit_count()]
        rho = nu * alphas.sum(axis=1)[0]
        total += rho
        contributions.append({
            "L": vertices_of(L),
            "nu": c(nu[0]),
            "families": [[vertices_of(m) for m, r in zip(masks, row) if r]
                         for row in _bits(codes, len(masks))],
            "alphas": [c(a) for a in alphas[0, :, 0]],
            "rho": c(rho[0]),
        })
    return {"K": vertices_of(K), "total": float(_real(total)[0]),
            "contributions": contributions}


def expectation_full(h: DiagonalHamiltonian, angles):
    """F(gamma, beta) = <gamma,beta| H |gamma,beta> via the Z_K decomposition;
    floats or arrays of one shape, as for expectation_zk."""
    terms = h.nonconstant_terms()
    total = h.constant
    for (_, w), value in zip(terms, expectation_terms(
            h, [m for m, _ in terms], angles)):
        total = total + w * value
    return float(total) if np.ndim(total) == 0 else total


# ----------------------------------------------------------------------
# One round on the infinite d-regular tree, as a Fourier series.

def tree_coefficients(d: int) -> np.ndarray:
    """Fourier coefficients C of <C_v> on the d-regular tree.

    With K = d^2 + 1 and L = floor((d+1)/2), <C_v> is the real part of

        sum_{k,l} C[k, l] e^{i (k-K) gamma} e^{4i (l-L) beta}.

    Gamma's frequencies are at most the number of clauses that can differ,
    and flipping every bit leaves H unchanged, so beta's period is pi/2.
    So the light-cone sum, sampled at (2K+1) x (2L+1) points of one period,
    gives C exactly.

    The sum runs over measured bits z, bra bits x and ket bits x' of B(v):
    the mixer is unitary, so x = x' elsewhere, and only clauses within
    distance 2 of v can differ between bra and ket.  z_v = 0 is fixed and
    the sum doubled, since flipping every bit of z, x and x' changes no
    factor.
    """
    if not 1 <= d <= EXACT_MAX_DEGREE:
        raise ValueError(f"tree series covers 1 <= d <= {EXACT_MAX_DEGREE}, "
                         f"got {d}")
    K, L = d * d + 1, (d + 1) // 2
    gammas = 2 * np.pi * np.arange(2 * K + 1) / (2 * K + 1)
    betas = np.pi / 2 * np.arange(2 * L + 1) / (2 * L + 1)
    gamma, beta = np.repeat(gammas, len(betas)), np.tile(betas, len(gammas))
    c = (np.arange(d + 1) <= d // 2).astype(float)  # clause, by agreeing count
    j = np.arange(d)  # children of a vertex that agree with it
    binomial = np.array([math.comb(d - 1, k) for k in j]) / 2.0 ** (d - 1)

    def phase(bra, ket):  # a clause's e^{-i gamma (c(bra) - c(ket))}
        return np.exp(-1j * gamma[:, None, None, None] * (c[bra] - c[ket]))

    # G[:, [x_w = x'_w], f_x, f_y] of a neighbour w that agrees with v in x
    # iff f_x and in x' iff f_y, with C_w's phase; if x_w != x'_w, each
    # child u adds A1 = E_k e^{-i gamma (c(k+1) - c(k))} if x_u = x_w, else
    # conj(A1)
    fx, fy = np.arange(2)[:, None, None], np.arange(2)[:, None]
    a1 = phase(j + 1, j)[:, 0, 0] @ binomial
    children = a1[:, None] ** j * a1.conj()[:, None] ** (d - 1 - j)
    G = np.stack([(phase(fx + j, fy + d - 1 - j) * children[:, None, None])
                  @ binomial, phase(fx + j, fy + j) @ binomial], axis=1)
    m = np.stack([-1j * np.sin(beta), np.cos(beta)], axis=1)  # mixer, by [z = x]
    # the 8 neighbour types, marked by agreeing with v in z, x and x'; their
    # polynomial goes to the (d+1)^3 roots of unity, where its d-th power is
    # read against c(z count) e^{-i gamma (c(x count) - c(x' count))} by one
    # inverse DFT vector per mark
    z, x, y = marks = np.indices((2,) * 3).reshape(3, -1)
    n = d + 1
    at_roots = np.exp(2j * np.pi / n * (np.indices((n,) * 3).reshape(3, -1).T
                                        @ marks))
    inverse = np.exp(-2j * np.pi / n * np.outer(np.arange(n), np.arange(n))) / n
    reads = (c @ inverse, np.exp(-1j * gamma[:, None] * c) @ inverse,
             np.exp(1j * gamma[:, None] * c) @ inverse)
    values = 0.0
    for xv, yv in itertools.product((0, 1), repeat=2):
        types = (m[:, 1 ^ z ^ x ^ xv] * m[:, 1 ^ z ^ y ^ yv].conj()
                 * G[:, 1 ^ xv ^ yv ^ x ^ y, x, y])
        power = (types @ at_roots.T).reshape(-1, n, n, n)
        power **= d  # in place: at d = 10 each array is 48 MB
        values = values + m[:, 1 ^ xv] * m[:, 1 ^ yv].conj() * np.einsum(
            "pabc,a,pb,pc->p", power, *reads)
    values = values.real.reshape(len(gammas), len(betas)) / 2 ** d
    to_k = np.exp(-1j * np.outer(np.arange(-K, K + 1), gammas)) / len(gammas)
    to_l = np.exp(-4j * np.outer(betas, np.arange(-L, L + 1))) / len(betas)
    return to_k @ values @ to_l
