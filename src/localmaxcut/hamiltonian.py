"""Diagonal cost Hamiltonians as weighted Pauli-Z subset terms.

A diagonal Hamiltonian on n qubits is a map from vertex subsets S to real
weights W_S, representing H = sum_S W_S Z_S.  Subsets are bitmasks: bit v
corresponds to vertex/qubit v, and masks are Python ints of any width.  On
a basis state x (also a bitmask, bit v = assignment of vertex v, with bit
1 standing for the +1 side of a cut) the term Z_S evaluates to the parity
character chi_S(x) = (-1)^{|S & x|}.

`walsh_transform` is the one place where terms and basis values meet.
Boolean clauses enter through their Walsh-Hadamard expansion
C(x) = sum_S C_hat(S) chi_S(x), and the same transform, run the other
way, turns a term map into its 2^n diagonal.  It is one butterfly per
qubit over the pairs that `pair_walk` hands out, in blocks of PAIR_BLOCK
elements (the statevector's mixer and batches take the same walk and
block); each butterfly is elementwise, so the walk changes no bit.

Clause weights accumulate per subset when clauses overlap.  Terms whose
accumulated weight is exactly zero are dropped, so the stored term list
realizes the nonzero support M directly.  The empty-set term (identity
coefficient) is kept separately from M.

Clause truth tables are indexed little-endian: entry t is the clause value
on the assignment where support[j] takes bit j of t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CLAUSE_VARS = 16
PAIR_BLOCK = 2 ** 14  # elements of one transposed block or chunk of a pair walk


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    """The vertices of `mask` in ascending order, in time linear in their
    number rather than in the highest vertex."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return vertices


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Immutable term map; `terms` is sorted (mask, weight) pairs, weights != 0."""
    n: int
    terms: tuple[tuple[int, float], ...]

    @property
    def constant(self) -> float:
        """Weight of the empty subset (the identity coefficient)."""
        return self.terms[0][1] if self.terms and self.terms[0][0] == 0 else 0.0

    def nonconstant_terms(self) -> tuple[tuple[int, float], ...]:
        """The collection M of nonempty, nonzero-weight terms."""
        return tuple((m, w) for m, w in self.terms if m != 0)


@dataclass(frozen=True)
class Clause:
    support: tuple[int, ...]
    truth_table: tuple[float, ...]

    def __post_init__(self):
        k = len(self.support)
        if k > MAX_CLAUSE_VARS:
            raise ValueError(f"clause on {k} variables exceeds cap {MAX_CLAUSE_VARS}")
        if len(set(self.support)) != k:
            raise ValueError("clause support has repeated vertices")
        if len(self.truth_table) != 2 ** k:
            raise ValueError(
                f"truth table has {len(self.truth_table)} entries, expected {2 ** k}")


def make_hamiltonian(n: int, weights: dict) -> DiagonalHamiltonian:
    """Assemble a DiagonalHamiltonian from a mask -> weight map, dropping zeros."""
    for m in weights:
        if m >> n:
            raise ValueError(f"subset {m:#x} not within 0..{n - 1}")
    terms = tuple(sorted((m, float(w)) for m, w in weights.items() if w != 0.0))
    return DiagonalHamiltonian(n=n, terms=terms)


def block_entries(a: np.ndarray) -> int:
    """Entries of `a`, each one row of its trailing values, that a block of
    PAIR_BLOCK elements holds: a power of two, and at least one."""
    width = a.size // len(a)
    return max(1, PAIR_BLOCK >> (width - 1).bit_length())


def _halves(x: np.ndarray, stride: int, scratch: np.ndarray):
    """The pairs of the contiguous x whose entries differ by stride along
    its first axis, as (lo, hi) contiguous arrays; a copy in scratch is
    written back to x once the caller has updated it."""
    pairs = x.reshape(-1, 2, stride, *x.shape[1:])
    if len(pairs) == 1:
        yield pairs[0, 0], pairs[0, 1]
        return
    halves = scratch[:len(x)].reshape(2, -1, stride, *x.shape[1:])
    np.copyto(halves, pairs.swapaxes(0, 1))
    yield halves[0], halves[1]
    np.copyto(pairs.swapaxes(0, 1), halves)


def pair_walk(a: np.ndarray):
    """For v = 0..n-1, the pairs of entries of the 2^n entries `a` whose
    indices differ in bit v alone, as (lo, hi) contiguous arrays of equal
    shape (bit v clear in lo, set in hi), for a caller that updates them
    in place before asking for the next; the walk writes them back.

    An entry is one value of a 1-D `a`, or one row of the trailing values
    of a (2^n, S) `a`, whose S columns the walk carries side by side.  A
    block holds `block_entries(a)` entries, PAIR_BLOCK elements.  The
    lower n // 2 qubits are taken on a transposed copy of a block of rows
    of the (2^(n - n//2), 2^(n//2)) entries, which is written back before
    the next block is copied, so their pairs are a block row or more
    apart; the upper ones on `a` itself, a block at a time.  Unless a
    qubit's pairs are already two contiguous halves, they are copied into
    one scratch array and back: on a strided (rows, run) view of 2^13
    entries in four or more rows, numpy's in-place multiply and add took
    three and five times as long as on a contiguous array.  Every entry
    meets the qubits in ascending order, and at most two blocks are held
    beside `a`."""
    n = len(a).bit_length() - 1
    if len(a) != 2 ** n:
        raise ValueError(f"{len(a)} entries is not a power of two")
    tail = a.shape[1:]
    chunk = block_entries(a)
    low = n // 2
    scratch = np.empty((min(len(a), max(chunk, 2 ** low)), *tail),
                       dtype=a.dtype)
    rows = a.reshape(-1, 2 ** low, *tail)
    step = max(1, chunk >> low)
    if low:
        block = np.empty((2 ** low, min(step, len(rows)), *tail),
                         dtype=a.dtype)
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            np.copyto(block, part.swapaxes(0, 1))
            for v in range(low):
                yield from _halves(block.reshape(-1, *tail),
                                   block.shape[1] << v, scratch)
            np.copyto(part, block.swapaxes(0, 1))
    half = max(1, chunk // 2)
    for v in range(low, n):
        if 2 ** v < chunk:
            for start in range(0, len(a), chunk):
                yield from _halves(a[start:start + chunk], 2 ** v, scratch)
        else:  # each run of a pair group is split into runs of half
            for group in range(0, len(a), 2 ** (v + 1)):
                for at in range(group, group + 2 ** v, half):
                    yield a[at:at + half], a[at + 2 ** v:at + 2 ** v + half]


def walsh_transform(values) -> np.ndarray:
    """Normalized Walsh-Hadamard transform of 2^k values:
    out[s] = 2^-k sum_t f[t] (-1)^{|s&t|}.  Applied twice it gives
    2^-k f, so 2^k times the transform inverts it.  One butterfly
    (lo, hi) <- (lo + hi, lo - hi) per qubit, over `pair_walk`; a
    (2^k, S) array is S columns transformed side by side."""
    a = np.array(values, dtype=float)
    for lo, hi in pair_walk(a):
        lo[:], hi[:] = lo + hi, lo - hi
    a /= len(a)
    return a


def fourier_encode_clause(c: Clause) -> DiagonalHamiltonian:
    """Encode one clause as a diagonal Hamiltonian on its support vertices."""
    coeffs = walsh_transform(c.truth_table)
    weights = {}
    for s, w in enumerate(coeffs):
        if w != 0.0:
            weights[mask_of(c.support[j] for j in vertices_of(s))] = w
    return make_hamiltonian(1 + max(c.support), weights)


def local_satisfaction_clause(d: int) -> Clause:
    """Indicator that a degree-d vertex is locally satisfied.

    Variables are (x_v, x_1, ..., x_d) on support 0..d; the clause is 1
    exactly when at least ceil(d/2) neighbors disagree with x_v, i.e. at
    most floor(d/2) agree.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    table = []
    for t in range(2 ** (d + 1)):
        center = t & 1
        agreeing = sum(1 for j in range(1, d + 1) if t >> j & 1 == center)
        table.append(1.0 if agreeing <= d // 2 else 0.0)
    return Clause(support=tuple(range(d + 1)), truth_table=tuple(table))


def build_localmaxcut_hamiltonian(g) -> DiagonalHamiltonian:
    """Sum of per-vertex satisfaction clauses over a d-regular graph.

    Weights accumulate per subset, so coinciding terms (short cycles) merge
    and exact cancellations drop out of the term map.
    """
    from .graph import neighborhood

    d = g.degree
    if d is None:
        raise ValueError("graph is not regular")
    base = fourier_encode_clause(local_satisfaction_clause(d))
    weights = {}
    for v in range(g.n):
        ball = neighborhood(g, v)
        for pmask, w in base.terms:
            m = mask_of(ball[j] for j in vertices_of(pmask))
            weights[m] = weights.get(m, 0.0) + w
    return make_hamiltonian(g.n, weights)


def evaluate_classical(h: DiagonalHamiltonian, x: int) -> float:
    """Diagonal value sum_S W_S chi_S(x) at the bitmask x.

    On a LocalMaxCut Hamiltonian this equals the number of locally
    satisfied vertices under the cut x.
    """
    if x >> h.n:
        raise ValueError(f"assignment {x:#x} not within 0..{h.n - 1}")
    total = 0.0
    for m, w in h.terms:
        total += w if (m & x).bit_count() % 2 == 0 else -w
    return total


def evaluate_all(h: DiagonalHamiltonian) -> np.ndarray:
    """The diagonal: evaluate_classical over all 2^n basis states, in basis
    order, as 2^n times the transform of the weights placed at their masks."""
    weights = np.zeros(2 ** h.n)
    for m, w in h.terms:
        weights[m] = w
    return 2.0 ** h.n * walsh_transform(weights)


def hamiltonian_to_json(h: DiagonalHamiltonian) -> dict:
    """JSON-friendly dump: subsets as sorted vertex arrays with weights."""
    items = [{"subset": vertices_of(m), "weight": w} for m, w in h.terms]
    items.sort(key=lambda it: (len(it["subset"]), it["subset"]))
    return {"n": h.n, "terms": items}
