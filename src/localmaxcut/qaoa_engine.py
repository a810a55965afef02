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

Every factor of alpha_F is real, cos(2 gamma W_N), or imaginary,
i sin(-2 gamma W_M) (sin(-2 gamma W) as written, not -sin(2 gamma W)),
and |F| = |L| (mod 2), as every M in F meets L an odd number of times
and F's XOR is K.  So nu(L) alpha_F is real, for any diagonal H: the
engine sums alpha'_F = (-1)^floor(|F|/2) times the real product, in term
order, times nu'(L) = (-1)^ceil(|L|/2) sin(2 beta)^|L| cos(2 beta)^(|K|-|L|),
each with the bits of its complex value's nonzero part, and refuses a
family of the other parity.

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
COSET_CAP = 2^18 families (1 MiB of integers), which is refused before
it is listed; so are the 2^|K| subsets of a K with families, past
COSET_CAP, that is |K| > 18.  The engine keeps no state between calls.

`expectation_terms(h, Ks, angles)` gives every <Z_K> of a list in one
pass, and the other routes call it.  Evaluation is numpy arithmetic, so
the angles may be floats or arrays of one shape and a whole batch of
angle pairs costs one call.  Only the cone listing and solve are a
Python loop, once per K; the rest is a fixed number of array operations
per call, or per size of K:

- gather: the terms are listed by vertex, over the vertices of the Ks
  alone, so K's cone, and each cone term restricted to K's vertices as
  a |K|-bit pattern, cost the cone times |K|: no array holds a vertex
  mask and nothing depends on n.  A K whose coset is empty lists no
  subset.  The subsets L of the other Ks of one size come from one
  pattern table in (|L|, L) order, and O(L) is the cone terms whose
  pattern shares an odd number of bits with L's.  The cosets of those
  Ks are concatenated, and a broadcast over (rank of L, coset entry),
  taken in blocks of ranks, keeps the families within O(L): each
  pair's families come out contiguous and in coset order, and only the
  (K, L) pairs with at least one family are listed, since an L with
  none adds nothing to <Z_K>;
- product: 1.0, cos(2 gamma W_M) and sin(-2 gamma W_M) are computed
  once per term in some cone, as three rows of one real table.  Each
  alpha'_F is one real product over the cone, in term order, which reads
  1.0 for the terms outside O(L), negated when floor(|F|/2) is odd.  The
  families' rows into the table are built with the cone position as the
  leading axis, BLOCK elements of (cone terms, families) at a time,
  whatever the number of angle pairs, and only the take and the product
  run BLOCK elements of (cone terms, families, angle pairs) at a time:
  the product reduces the leading axis, one contiguous multiply over
  (families, angle pairs) per cone term.  The pairs of a block of BLOCK
  pair sums are grouped by family count, and the alpha'_F of each
  group's pairs are summed as one (pairs, families, angle pairs) array,
  in chunks of pairs whose alpha'_F and factor rows each fit BLOCK
  elements, or of one pair;
- fold: each pair's sum times nu' goes into its K's total by one
  unbuffered indexed add per block, the pairs in order, and those of
  each size of K in (rank of L, K) order, so every total is summed in
  (|L|, L) order.

BLOCK is `hamiltonian.BLOCK`, the one element budget.  Each alpha_F is
its own product and each total its own sum in a fixed order, so neither
the blocks nor the grouping changes a bit of the result; only one angle
pair against many can (see `expectation_terms`).

`tree_coefficients(d)` gives the value <C_v> of one vertex's clause on
the infinite d-regular tree as a trigonometric polynomial.  By the
light-cone argument the engine gives the same value on any d-regular
graph of girth >= 7.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import hamiltonian
from .classical import EXACT_MAX_DEGREE
from .hamiltonian import DiagonalHamiltonian, vertices_of

FAMILY_CAP = 25
COSET_CAP = 2 ** 18


def _bits(codes, size: int) -> np.ndarray:
    """Families given as integers, the family {i} at bit size-1-i, as a
    boolean (..., families, terms) matrix."""
    return (np.asarray(codes)[..., None] >> np.arange(size - 1, -1, -1)
            & 1).astype(bool)


def _families(masks, K: int) -> np.ndarray:
    """The families of the terms `masks` whose XOR is K, in depth-first
    order (term i left out before it is put in), as integers: the family
    {i} at bit T-1-i.

    Forward elimination over GF(2).  Each term enters as one integer, its
    vertex mask in the high bits and the family {i} in the low T bits, so
    that depth-first order is ascending order; the vertex part of every
    basis vector stays the XOR of its family.  A term is reduced once:
    while its top bit is the pivot of a basis vector it takes that
    vector's XOR, and the first top bit that is no pivot becomes its own.
    Bit T-1-i is in no earlier vector, so no term vanishes, and there is
    no back-substitution.  A basis vector is keyed by its bit length, its
    pivot's position plus one, so the keys above T are vertex pivots and
    the others family pivots.  Reducing K the same way until its vertex
    part is empty leaves a particular family, or stops on a vertex bit
    with no pivot when there is none.  The basis vectors with a family
    pivot have no vertex part and span the families with empty XOR; the
    coset is listed by doubling a list that starts from the particular
    family once per such vector, then sorted.  More than FAMILY_CAP terms,
    or a coset of more than COSET_CAP families, is refused before anything
    is listed.
    """
    size = len(masks)
    if size > FAMILY_CAP:
        raise ValueError(f"{size} terms exceed the enumeration cap "
                         f"{FAMILY_CAP}")
    basis = {}  # pivot, as a bit length -> the vector whose top bit it is
    for i, m in enumerate(masks):
        v = m << size | 1 << (size - 1 - i)
        while (b := basis.get(top := v.bit_length())) is not None:
            v ^= b
        basis[top] = v
    target = K << size
    while (top := target.bit_length()) > size and (
            b := basis.get(top)) is not None:
        target ^= b
    if target >> size:
        return np.zeros(0, dtype=np.int32)
    empty = [b for top, b in basis.items() if top <= size]
    if 2 ** len(empty) > COSET_CAP:
        raise ValueError(f"{2 ** len(empty)} families of {size} terms "
                         f"exceed the coset cap {COSET_CAP}")
    coset = np.empty(2 ** len(empty), dtype=np.int32)  # FAMILY_CAP bits
    coset[0] = target
    for j, b in enumerate(empty):
        np.bitwise_xor(coset[:1 << j], b, out=coset[1 << j:2 << j])
    coset.sort()
    return coset


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


class _Pairs(NamedTuple):
    """The (K, L) pairs of a list of Ks, as flat arrays over the pairs:
    the Ks of one size together, sizes ascending, and the pairs of one
    size in (rank of L, K) order, so each K's are in (|L|, L) order.

    `terms` is the terms of H that meet some K, in term order, and a cone
    is the terms that meet its K, in term order, as indices into `terms`.
    O(L) and the families are integers over the cone, cone term c at bit
    S-1-c for the width S of `cones`; a shorter cone is padded with terms
    in no O(L)."""
    terms: list          # (U,) (mask, weight)
    cones: np.ndarray    # (Ks, S) indices into terms
    k: np.ndarray        # (pairs,) the pair's K, as its index in Ks
    subset: np.ndarray   # (pairs,) L as a pattern, vertex j of K at bit j
    within: np.ndarray   # (pairs,) O(L)
    count: np.ndarray    # (pairs,) families of the pair
    codes: np.ndarray    # (families,) pair after pair, each in coset order


def _size_pairs(k: int, members, patterns, sizes, cosets):
    """The pairs with families of the Ks `members`, all of k vertices, in
    (rank, K) order: their K, L, O(L), family count and families, as for
    _Pairs.  `patterns` is each cone term restricted to its K's vertices
    and `sizes` each K's cone size, both over the (Ks, S) cones.

    The families are found in (rank, coset entry) order, so their
    (rank, K) keys come out sorted, and each live pair and its family
    count are a run of equal keys."""
    width = patterns.shape[1]
    subsets = np.arange(2 ** k)
    subsets = subsets[np.argsort(np.bitwise_count(subsets), kind="stable")]
    powers = 1 << np.arange(width - 1, -1, -1, dtype=np.int32)
    lengths = [len(c) for c in cosets]
    starts = np.cumsum(lengths) - lengths
    coset = np.concatenate([np.zeros(0, dtype=np.int32), *cosets])
    shift = width - sizes  # from each K's own cone, as the cosets are, to S
    entries = max(1, len(coset))
    step = max(1, hamiltonian.BLOCK // max(entries, patterns.size))
    within, found = [], []
    for start in range(0, len(subsets), step):
        odd = np.bitwise_count(patterns & subsets[start:start + step, None,
                                                  None]) & 1
        block = odd @ powers  # (ranks, Ks)
        within.append(block.ravel())
        outside = np.repeat(~(block >> shift), lengths, axis=1)
        outside &= coset
        found.append(np.flatnonzero(outside == 0) + start * entries)
    ranks, entry = np.divmod(np.concatenate(found), entries)
    ks = np.searchsorted(starts, entry, side="right") - 1
    keys = ranks * len(members) + ks  # ascending, as the entries are found
    edges = np.ones(len(keys) + 1, dtype=bool)  # where a run starts or ends
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    live, count = keys[bounds[:-1]], np.diff(bounds)
    rank, which = np.divmod(live, len(members))
    return (np.asarray(members)[which], subsets[rank],
            np.concatenate(within)[live], count, coset[entry] << shift[ks])


def _gather(h: DiagonalHamiltonian, Ks) -> _Pairs:
    """The O(L) and families of every (K, L) pair that has a family, for
    the Ks in the order given.  A K whose coset is empty lists no subset,
    so it costs its cone and not its 2^|K| subsets; a K whose coset is
    not empty and whose 2^|K| subsets exceed COSET_CAP is refused before
    they are listed.

    The terms are listed by vertex, over the vertices of the Ks alone, so
    K's cone and each cone term's restriction to K's vertices, as a
    |K|-bit pattern, take time in the cone times |K|, and no array or
    step depends on n.  |M & L| is odd when the pattern and L's share an
    odd number of bits.  The cone is solved once per K; an L's families
    are the members of that coset within O(L), in the same order.  The Ks
    of one size share that size's subsets, and their pairs are taken by
    a broadcast over (rank, coset entry), a block of ranks within
    BLOCK elements at a time.  A family of |F| != |L| (mod 2) is refused."""
    union = 0
    for K in Ks:
        if K == 0:
            raise ValueError("K must be nonempty; <Z_empty> = 1 trivially")
        if K >> h.n:
            raise ValueError(f"K = {K:#x} not within 0..{h.n - 1}")
        union |= K
    # the terms that meet a K, and for each vertex of a K the rows of
    # the terms on it
    terms, on = [], {}
    for term in h.nonconstant_terms():
        vertices = vertices_of(term[0] & union)
        for v in vertices:
            on.setdefault(v, []).append(len(terms))
        if vertices:
            terms.append(term)
    masks = [m for m, _ in terms]
    cones, patterns, cosets = [], [], []
    for K in Ks:
        pattern = {}  # cone row -> its pattern, vertex j of K at bit j
        for j, v in enumerate(vertices_of(K)):
            bit = 1 << j
            for r in on.get(v, ()):
                pattern[r] = pattern.get(r, 0) | bit
        cone = sorted(pattern)
        try:
            cosets.append(_families([masks[r] for r in cone], K))
        except ValueError as e:
            raise ValueError(
                f"light cone: {e} at K = {vertices_of(K)}") from None
        if len(cosets[-1]) and 2 ** K.bit_count() > COSET_CAP:
            raise ValueError(f"{2 ** K.bit_count()} subsets L of |K| = "
                             f"{K.bit_count()} vertices exceed the coset cap "
                             f"{COSET_CAP}")
        cones.append(cone)
        patterns.append([pattern[r] for r in cone])
    sizes = np.array([len(c) for c in cones], dtype=np.int32)
    width, total = int(sizes.max(initial=0)), int(sizes.sum())
    filled = np.arange(width) < sizes[:, None]
    cone_rows = np.zeros((len(Ks), width), dtype=np.intp)
    cone_rows[filled] = np.fromiter(itertools.chain.from_iterable(cones),
                                    dtype=np.intp, count=total)
    cone_patterns = np.zeros((len(Ks), width), dtype=np.int64)
    cone_patterns[filled] = np.fromiter(
        itertools.chain.from_iterable(patterns), dtype=np.int64, count=total)
    k_bits = [K.bit_count() for K in Ks]
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64),
              np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.intp),
              np.zeros(0, dtype=np.int32))]
    for k in sorted(set(k_bits)):
        members = [i for i, b in enumerate(k_bits)
                   if b == k and len(cosets[i])]
        if not members:
            continue
        parts.append(_size_pairs(k, members, cone_patterns[members],
                                 sizes[members], [cosets[i] for i in members]))
    pairs = _Pairs(terms, cone_rows, *(np.concatenate(p) for p in zip(*parts)))
    odd = np.repeat(np.bitwise_count(pairs.subset) & 1, pairs.count)
    if np.any(np.bitwise_count(pairs.codes) & 1 != odd):
        raise ArithmeticError("a family's |F| and |L| differ in parity")
    return pairs


def _factors(terms, gamma) -> np.ndarray:
    """(3 U, B): for U (mask, weight) terms, the rows of terms[r] at 3 r,
    3 r + 1 and 3 r + 2: 1.0, cos(2 gamma W_M) and sin(-2 gamma W_M)."""
    w = np.array([w for _, w in terms], dtype=float)[:, None]
    angle = 2 * gamma * w
    return np.stack([np.ones_like(angle), np.cos(angle), np.sin(-angle)],
                    axis=1).reshape(-1, len(gamma))


def _alphas(pairs: _Pairs, pair, codes, factors) -> np.ndarray:
    """alpha'_F of families given by their (F,) codes and the (F,) index of
    their pair, with the (3 U, B) factors of pairs.terms, as (F, B).

    alpha_F is i^|F| times one real product over the cone, in term
    order, of row 3 (cone term) + [term in O(L)] + [term in F]: 1.0
    outside O(L), the cosine in O(L) \\ F and the sine in F, since F lies
    in O(L).  A padding slot of a shorter cone is term 0 in no O(L), so
    it reads 1.0 too, and multiplying by 1.0 changes no bit of a real.
    alpha'_F is that product, negated when floor(|F|/2) is odd.

    The cone position is the leading axis: the rows, which do not depend
    on B, are built as (S, families) for blocks of families that keep it
    within BLOCK elements, and a part of a block that keeps (S, families,
    B) within BLOCK elements is taken as that array and reduced over its
    first axis, so each of the S steps is one contiguous multiply over
    (families, B).  numpy's multiply reduction runs in order on any axis,
    so each alpha'_F is the same left-to-right product in term order."""
    size = pairs.cones.shape[1]
    count = factors.shape[1]
    alphas = np.empty((len(codes), count))
    span = max(1, hamiltonian.BLOCK // max(1, size))
    step = max(1, hamiltonian.BLOCK // max(1, size * count))
    shifts = np.arange(size - 1, -1, -1)[:, None]  # cone term c at bit S-1-c
    for low in range(0, len(codes), span):
        block = slice(low, low + span)
        at = pair[block]
        rows = (3 * pairs.cones.T[:, pairs.k[at]]
                + (pairs.within[at] >> shifts & 1)
                + (codes[block] >> shifts & 1))
        for start in range(0, rows.shape[1], step):
            part = slice(start, start + step)
            np.multiply.reduce(factors.take(rows[:, part], axis=0), axis=0,
                               out=alphas[block][part])
    alphas[np.bitwise_count(codes) & 2 > 0] *= -1.0
    return alphas


def _nus(Ks, beta) -> np.ndarray:
    """nu' at [|K|, |L|] for every size of K in Ks, (B,) each, with sin^l
    as numpy's complex power takes it: s^(l - top) s^top for l's top bit."""
    s2b, c2b = np.sin(2 * beta), np.cos(2 * beta)
    k_max = max((K.bit_count() for K in Ks), default=0)
    sines = [np.ones_like(s2b), s2b]
    for l_bits in range(2, k_max + 1):
        top = 1 << l_bits.bit_length() - 1
        rest = top // 2 if l_bits == top else l_bits - top
        sines.append(sines[rest] * sines[l_bits - rest])
    nus = np.zeros((k_max + 1, k_max + 1, len(beta)))
    for k_bits in {K.bit_count() for K in Ks}:
        for l_bits in range(k_bits + 1):
            nus[k_bits, l_bits] = ((-1.0) ** ((l_bits + 1) // 2)
                                   * sines[l_bits] * c2b ** (k_bits - l_bits))
    return nus


def expectation_terms(h: DiagonalHamiltonian, Ks, angles) -> np.ndarray:
    """<gamma,beta| Z_K |gamma,beta> for every K of Ks in one pass.

    gamma and beta may be floats or arrays of one shape; the result has
    shape (len(Ks),) + that shape.  A pair with no family adds nothing,
    and the gather lists none, so a K whose coset is empty has the value
    0.0.

    The last bits depend on B, the number of angle pairs: numpy sums a
    pair's alpha'_F over (pairs, families, B) pairwise when B = 1 and in
    order when B >= 2, so a pair alone and in a batch may differ by 1e-15.
    """
    Ks = list(Ks)
    gamma, beta, shape = _angles(h, angles)
    pairs = _gather(h, Ks)
    factors = _factors(pairs.terms, gamma)
    count = len(gamma)
    size = pairs.cones.shape[1]
    nus = _nus(Ks, beta)
    k_bits = np.array([K.bit_count() for K in Ks], dtype=np.intp)
    first = np.cumsum(pairs.count) - pairs.count
    totals = np.zeros((len(Ks), count))
    # the pairs, a block of BLOCK sums at a time and in order, so each
    # K's total is summed in (|L|, L) order; a pair's families are
    # contiguous, so the pairs of one family count give a compact array,
    # taken in chunks of pairs whose (families, S) rows and (families, B)
    # alpha_F fit BLOCK elements, or of one pair
    span = max(1, hamiltonian.BLOCK // max(1, count))
    for low in range(0, len(pairs.count), span):
        part = np.arange(low, min(low + span, len(pairs.count)))
        families = pairs.count[part]
        sums = np.empty((len(part), count))
        for group in sorted(set(families.tolist())):
            members = np.flatnonzero(families == group)
            step = max(1, hamiltonian.BLOCK // (group * max(1, size, count)))
            for start in range(0, len(members), step):
                chunk = members[start:start + step]
                rows = (first[part[chunk], None] + np.arange(group)).ravel()
                sums[chunk] = _alphas(
                    pairs, np.repeat(part[chunk], group), pairs.codes[rows],
                    factors).reshape(len(chunk), group, count).sum(axis=1)
        ks = pairs.k[part]
        np.add.at(totals, ks, nus[k_bits[ks],
                                  np.bitwise_count(pairs.subset[part])] * sums)
    return totals.reshape((len(Ks),) + shape)


def explain_zk(h: DiagonalHamiltonian, K: int, angles) -> dict:
    """The record of each contributing L, one with a family, behind
    <gamma,beta| Z_K |gamma,beta> at one angle pair, given as floats or
    one-element arrays, as plain data: subsets as vertex lists, complex
    numbers as [re, im]: nu and alpha_F, from nu' and alpha'_F, are
    imaginary when |L| is odd, and rho is real.  An exact zero is written
    0.0, never -0.0, so the record does not rest on how it was reached."""
    def r(x):
        return float(x) + 0.0  # -0.0 + 0.0 is 0.0; no other value moves

    def c(x, odd):  # x, or i x when odd, as [re, im]
        return [0.0, r(x)] if odd else [r(x), 0.0]

    gamma, beta, _ = _angles(h, angles)
    if len(gamma) != 1:
        raise ValueError("explain_zk takes one angle pair")
    pairs = _gather(h, [K])
    alphas = _alphas(pairs, np.repeat(np.arange(len(pairs.count)),
                                      pairs.count),
                     pairs.codes, _factors(pairs.terms, gamma))
    nus = _nus([K], beta)
    cone = [pairs.terms[t][0] for t in pairs.cones[0].tolist()]
    vertices = vertices_of(K)
    total = np.zeros(1)
    contributions = []
    end = 0
    for subset, count in zip(pairs.subset.tolist(), pairs.count.tolist()):
        families = slice(end, end + count)
        end += count
        L = [v for j, v in enumerate(vertices) if subset >> j & 1]
        odd = len(L) & 1
        nu = nus[len(vertices), len(L)]
        rho = nu * alphas[None, families].sum(axis=1)[0]
        total += rho
        contributions.append({
            "L": L,
            "nu": c(-nu[0] if odd else nu[0], odd),
            "families": [[vertices_of(m) for m, r in zip(cone, row) if r]
                         for row in _bits(pairs.codes[families], len(cone))],
            "alphas": [c(a, odd) for a in alphas[families, 0]],
            "rho": c(rho[0], False),
        })
    return {"K": vertices, "total": r(total[0]),
            "contributions": contributions}


def expectation_full(h: DiagonalHamiltonian, angles):
    """F(gamma, beta) = <gamma,beta| H |gamma,beta> via the Z_K decomposition,
    at floats (a float comes back) or arrays that broadcast to one shape
    (an array of that shape comes back, also when H is only a constant)."""
    total = full_value(h, expectation_terms(
        h, [m for m, _ in h.nonconstant_terms()], angles))
    return float(total) if total.ndim == 0 else total


def full_value(h: DiagonalHamiltonian, values) -> np.ndarray:
    """F = constant + sum_M w_M <Z_M>, summed in term order, from the
    (terms,) + shape `expectation_terms` of h's nonconstant terms."""
    total = np.full(np.shape(values)[1:], h.constant, dtype=float)
    for (_, w), value in zip(h.nonconstant_terms(), values, strict=True):
        total += w * value
    return total


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
