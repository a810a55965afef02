"""Diagonal cost Hamiltonians as weighted Pauli-Z subset terms.

A diagonal Hamiltonian on n qubits is a map from vertex subsets S to real
weights W_S, representing H = sum_S W_S Z_S.  Subsets are bitmasks: bit v
corresponds to vertex/qubit v, and masks are Python ints of any width.  On
a basis state x (also a bitmask, bit v = assignment of vertex v, with bit
1 standing for the +1 side of a cut) the term Z_S evaluates to the parity
character chi_S(x) = (-1)^{|S & x|}.

`walsh_transform` is the one place where terms and basis values meet.
It gives the plain sums sum_t f[t] chi_s(t), unscaled: a term map's
transform is its 2^n diagonal, and a clause's truth table's transform,
over its 2^k entries, gives its Walsh-Hadamard expansion
C(x) = sum_S C_hat(S) chi_S(x).  It is one elementwise butterfly per
qubit, lo + hi and (-hi) + lo = lo - hi, on the pairs that `pair_walk`
views in place a block of BLOCK elements at a time, so no bit changes.
BLOCK is the package's one element budget; every layer that blocks reads
it here at call time.

Clause weights accumulate per subset when clauses overlap.  Terms whose
accumulated weight is exactly zero are dropped, so the stored term list
realizes the nonzero support M directly.  The empty-set term (identity
coefficient) is kept separately from M.

Clause truth tables are indexed little-endian: entry t is the clause value
on the assignment where support[j] takes bit j of t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MAX_CLAUSE_VARS = 16
BLOCK = 2 ** 14  # elements a blocked temporary holds, in every layer


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
    BLOCK elements holds: a power of two, and at least one."""
    width = a.size // len(a)
    return max(1, BLOCK >> (width - 1).bit_length())


def _pairs(x: np.ndarray, stride: int, buffer: np.ndarray):
    """The pairs of the contiguous x whose entries differ by stride along
    its first axis, as (groups, 2, run, ...) views of at most len(buffer)
    entries, whole groups while one fits, else runs of half that, each
    with a view of its shape cut from the front of buffer."""
    pairs = x.reshape(-1, 2, stride, *x.shape[1:])
    groups = max(1, len(buffer) // (2 * stride))
    run = min(stride, len(buffer) // 2)
    for g in range(0, len(pairs), groups):
        for at in range(0, stride, run):
            view = pairs[g:g + groups, :, at:at + run]
            yield view, buffer[:2 * len(view) * run].reshape(view.shape)


def pair_walk(a: np.ndarray):
    """For v = 0..n-1, the pairs of entries of the 2^n entries `a` whose
    indices differ in bit v alone, as (pairs, scratch), for a caller that
    updates pairs in place before asking for the next: pairs a
    (groups, 2, run, ...) view, [:, 0] the entries with bit v clear and
    [:, 1] their partners, and scratch a C-contiguous array of its shape
    cut from one buffer, allocated once per walk, for the caller to fill.

    An entry is one value of a 1-D `a`, or one row of the trailing values
    of a (2^n, S) `a`, whose S columns the walk carries side by side.  A
    block holds `block_entries(a)` entries, BLOCK elements; a view
    and the buffer hold at most max(2, block_entries(a)) entries.  The
    lower n // 2 qubits are viewed in a transposed copy of a block of
    rows of the (2^(n - n//2), 2^(n//2)) entries, written back before the
    next block is copied (nothing else is copied), so their pairs are a
    block row or more apart; the upper ones in `a` itself.  A view is then
    one contiguous stretch or two contiguous runs, and only a caller's
    read of pairs[:, ::-1] is strided: on a strided (rows, run) view of
    2^13 entries in four or more rows, numpy's in-place multiply and add
    took three and five times as long as on a contiguous array.  Every
    entry meets the qubits in ascending order, and at most two blocks
    are held beside `a`."""
    n = len(a).bit_length() - 1
    if len(a) != 2 ** n:
        raise ValueError(f"{len(a)} entries is not a power of two")
    tail = a.shape[1:]
    chunk = block_entries(a)
    buffer = np.empty((min(len(a), max(2, chunk)), *tail), dtype=a.dtype)
    low = n // 2
    rows = a.reshape(-1, 2 ** low, *tail)
    step = max(1, chunk >> low)
    if low:
        block = np.empty((2 ** low, min(step, len(rows)), *tail),
                         dtype=a.dtype)
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            np.copyto(block, part.swapaxes(0, 1))
            for v in range(low):
                yield from _pairs(block.reshape(-1, *tail),
                                  block.shape[1] << v, buffer)
            np.copyto(part, block.swapaxes(0, 1))
    for v in range(low, n):
        yield from _pairs(a, 2 ** v, buffer)


def walsh_transform(values) -> np.ndarray:
    """Walsh-Hadamard transform of 2^k values, unscaled:
    out[s] = sum_t f[t] (-1)^{|s&t|}.  Applied twice it gives 2^k f.
    One butterfly (lo, hi) <- (lo + hi, (-hi) + lo) per qubit, over
    `pair_walk`, on a C-ordered copy; a (2^k, S) array is S columns
    transformed side by side."""
    return _butterflies(np.array(values, dtype=float, order="C"))


def _butterflies(a: np.ndarray) -> np.ndarray:
    """`walsh_transform` in place on the C-contiguous float array a."""
    for pairs, scratch in pair_walk(a):
        np.copyto(scratch, pairs[:, ::-1])
        np.negative(pairs[:, 1], out=pairs[:, 1])
        pairs += scratch
    return a


def fourier_encode_clause(c: Clause) -> DiagonalHamiltonian:
    """Encode one clause as a diagonal Hamiltonian on its support vertices."""
    coeffs = walsh_transform(c.truth_table) / len(c.truth_table)
    weights = {}
    for s, w in enumerate(coeffs):
        if w != 0.0:
            weights[mask_of(c.support[j] for j in vertices_of(s))] = w
    return make_hamiltonian(1 + max(c.support), weights)


def local_satisfaction_clause(d: int) -> Clause:
    """Indicator that a degree-d vertex is locally satisfied.

    Variables are (x_v, x_1, ..., x_d) on support 0..d; the clause is 1
    exactly when at least ceil(d/2) neighbors disagree with x_v, i.e. at
    most floor(d/2) agree.  Its d + 1 variables are checked against
    MAX_CLAUSE_VARS before the 2^(d+1) entries are listed.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if d + 1 > MAX_CLAUSE_VARS:
        raise ValueError(f"clause on {d + 1} variables exceeds cap "
                         f"{MAX_CLAUSE_VARS}")
    table = []
    for t in range(2 ** (d + 1)):
        center = t & 1
        agreeing = sum(1 for j in range(1, d + 1) if t >> j & 1 == center)
        table.append(1.0 if agreeing <= d // 2 else 0.0)
    return Clause(support=tuple(range(d + 1)), truth_table=tuple(table))


def build_localmaxcut_hamiltonian(g) -> DiagonalHamiltonian:
    """Sum of per-vertex satisfaction clauses over a d-regular graph.

    Vertex v's clause lies on its ball B(v) = (v, v's neighbours), the
    centre at position 0 and the sorted neighbour row after it.  Weights
    accumulate per subset, so coinciding terms (short cycles) merge and
    exact cancellations drop out of the term map.
    """
    d = g.degree
    if d is None:
        raise ValueError("graph is not regular")
    terms = _clause_terms(d)
    weights = {}
    for v, row in enumerate(g.neighbours.tolist()):
        bits = [1 << v, *(1 << u for u in row)]
        for positions, w in terms:
            m = 0
            for j in positions:
                m |= bits[j]
            weights[m] = weights.get(m, 0.0) + w
    return make_hamiltonian(g.n, weights)


@functools.cache
def _clause_terms(d: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    """The degree-d satisfaction clause's terms, encoded once per degree,
    as (ball positions, weight) in term order."""
    base = fourier_encode_clause(local_satisfaction_clause(d))
    return tuple((tuple(vertices_of(m)), w) for m, w in base.terms)


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
    order, as the transform of the weights placed at their masks."""
    weights = np.zeros(2 ** h.n)
    for m, w in h.terms:
        weights[m] = w
    return _butterflies(weights)


def hamiltonian_to_json(h: DiagonalHamiltonian) -> dict:
    """JSON-friendly dump: subsets as sorted vertex arrays with weights."""
    items = [{"subset": vertices_of(m), "weight": w} for m, w in h.terms]
    items.sort(key=lambda it: (len(it["subset"]), it["subset"]))
    return {"n": h.n, "terms": items}
