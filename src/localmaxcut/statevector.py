"""Dense statevector simulation of the single-round QAOA state.

Serves as the exact oracle for the analytic expectation engine.  Basis
state x (an index into the amplitude array) assigns vertex v the bit
(x >> v) & 1, matching the bitmask convention of the hamiltonian module.

A state is its amplitude array: 2^n complex amplitudes, or a batch of S
states side by side, a (2^n, S) array with one sample per column, and n
is read from its length.  The gates update the array in place and return
it for chaining; on a batch they take an angle per sample.  Every entry
of a column meets the same operations as in a lone state, so a batch
has the bits of its columns run one at a time.  `qaoa_values_sv` is the
one route through the gates, for `qaoa_expectation_sv` and `cli.verify`
alike: it takes H as a `PhaseTable`, built once per H, and runs angle
pairs in batches of up to `hamiltonian.BLOCK` elements (the one element
budget), so each gate's numpy calls serve every sample of a small state.

Each gate costs its arithmetic and keeps the elementwise operations, in
their order, of the plain loop over the whole array, so every amplitude
has the same bits as there:

- the mixer is one 2x2 rotation per qubit on the pairs of amplitudes
  that differ in its bit, in place in `hamiltonian.pair_walk`'s views
  (the Walsh transform's walk, at most two blocks beside a state);
- the phase gate takes exp(-i gamma v) once per distinct diagonal value
  v and sample (a LocalMaxCut diagonal has at most n + 1 values) and
  gathers it a block at a time, through the codes of a `PhaseTable`.
  The values are told apart by their bits, so +0.0 and -0.0 are two.
  The table sorts each block, not the whole diagonal, so the sort stays
  in cache: one argsort of 2^22 entries took 230 ms, against 2.1 ms for
  2^18, and np.unique imports numpy.ma (38 ms) on its first call.  On
  HEAWOOD the table takes about 0.45 ms once, and then a phase takes
  0.055 ms, where sorting the block for every call took 0.3-0.5 ms
  (2-CPU Xeon, numpy 2.4).

A LocalMaxCut diagonal depends only on which edges are cut, so
H(x) = H(~x) for the complement ~x = 2^n - 1 - x, and its codes read the
same backwards.  The uniform start and the mixer commute with flipping
every qubit, so amp(x) = amp(~x) at every step, bit for bit, and the
route simulates only the first half of such a state, x < 2^(n-1): the
lower n - 1 qubits as on the whole state, and the top qubit by pairing x
with 2^(n-1) - 1 - x, the complement of its partner x + 2^(n-1).  F is
twice the half's |amp|^2 rows against the diagonal's first half, and the
Walsh transform runs on the half's rows alone: the full-length one is
twice it at K & (2^(n-1) - 1) for even |K| and +0.0 for odd |K|, bit for
bit.  Any other diagonal, or n <= 1, runs the whole state.  On
the twelve fixture graphs of the verify benchmark, 50 pairs each, the
route took 67 ms against 99 ms on whole states (2-CPU Xeon, numpy 2.4).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import hamiltonian
from .hamiltonian import (DiagonalHamiltonian, _butterflies, block_entries,
                          evaluate_all, pair_walk)

MAX_QUBITS = 26  # 2^26 complex doubles = 1 GiB


class PhaseTable(NamedTuple):
    """A diagonal's distinct values, told apart by their bits, each
    entry's code into them, in the smallest unsigned dtype that holds it,
    and the diagonal itself."""
    levels: np.ndarray
    codes: np.ndarray
    diagonal: np.ndarray


def phase_table(diagonal: np.ndarray) -> PhaseTable:
    """The codes table of a diagonal, for `apply_phase`.

    Each BLOCK-entry block is sorted by bits and its distinct values
    kept, and one more sort merges the blocks' values; each block's codes
    are then a search among them."""
    diagonal = np.asarray(diagonal, dtype=float)
    keys, block = diagonal.view(np.int64), hamiltonian.BLOCK  # by bits
    found = [_distinct(np.sort(keys[start:start + block]))
             for start in range(0, len(keys), block)]
    levels = _distinct(np.sort(np.concatenate(found)))
    codes = np.empty(len(keys), dtype=np.min_scalar_type(len(levels) - 1))
    for start in range(0, len(keys), block):
        codes[start:start + block] = np.searchsorted(
            levels, keys[start:start + block])
    return PhaseTable(levels.view(float), codes, diagonal)


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    first = np.empty(len(ordered), dtype=bool)  # the first of its value
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def apply_phase(table: PhaseTable, gamma, state: np.ndarray) -> np.ndarray:
    """Apply exp(-i gamma H): scale amplitude x by exp(-i gamma H(x)).
    gamma is one angle, or one per sample of a batch."""
    codes = table.codes
    if len(codes) != len(state):
        raise ValueError(f"{len(codes)} diagonal values, state of "
                         f"{len(state)} amplitudes")
    factors = np.exp(np.multiply.outer(table.levels, -1j * gamma))
    chunk = block_entries(state)
    for start in range(0, len(codes), chunk):
        state[start:start + chunk] *= factors.take(
            codes[start:start + chunk], axis=0)
    return state


def apply_mixer(beta, state: np.ndarray) -> np.ndarray:
    """Apply exp(-i beta X) to every qubit (the X_v commute).  beta is one
    angle, or one per sample of a batch."""
    c, s = np.cos(beta), -1j * np.sin(beta)
    for pairs, scratch in pair_walk(state):
        # into the walk's scratch: a product numpy allocates was slower
        np.multiply(s, pairs[:, ::-1], out=scratch)
        pairs *= c
        pairs += scratch
    return state


def _mix_top(beta, half: np.ndarray) -> np.ndarray:
    """Apply exp(-i beta X) to the top qubit of a state whose second half
    is its first half reversed, given that first half: entry x of the
    lower quarter pairs with entry len(half) - 1 - x, which holds the
    amplitude of its partner x + len(half).  The operations are
    `apply_mixer`'s, in its order, a block of BLOCK elements at a
    time (half from each end)."""
    c, s = np.cos(beta), -1j * np.sin(beta)
    quarter, step = len(half) // 2, max(1, block_entries(half) // 2)
    buffer = np.empty((2, min(step, quarter), *half.shape[1:]),
                      dtype=half.dtype)
    for start in range(0, quarter, step):
        stop = min(start + step, quarter)
        lo = half[start:stop]
        hi = half[len(half) - stop:len(half) - start][::-1]
        scratch = buffer[:, :stop - start]
        np.multiply(s, hi, out=scratch[0])
        np.multiply(s, lo, out=scratch[1])
        lo *= c
        lo += scratch[0]
        hi *= c
        hi += scratch[1]
    return half


def qaoa_values_sv(table: PhaseTable, Ks, gammas, betas):
    """(F, Z) by direct simulation of U_M U_C |s> at each pair of the 1-D
    angle arrays, for the H whose diagonal `table` holds: F the values
    <H>, and Z, one row per K of `Ks`, the values <Z_K>.

    The pairs run in batches of S = min(pairs left, BLOCK >> n), at
    least one, as one (2^n, S) state from the uniform amplitude 2^{-n/2}.
    Its |amp|^2 is taken once, a contiguous row per sample, and the state
    is dropped before the rows are squared in place.  F is the einsum of
    each row with the diagonal, summed in an order that no BLAS thread
    count moves; a BLAS dot splits across threads, which moves its last
    bits, and 2,000 dots of 16k entries took 1.04 s on two threads
    against 9.3 ms on one (2-CPU Xeon, OpenBLAS 0.3.31).  F does not rest
    on Z, which is the Walsh butterflies run in place on the rows as
    columns (a copy only when S > 1), taken only when `Ks` is not empty.

    When the codes read the same backwards and n >= 2, amp(x) equals
    amp(2^n - 1 - x) and only the first half of each state, x < 2^(n-1),
    is simulated: the phase reads the first half of the codes, the mixer
    runs qubits 0..n-2 on it, and `_mix_top` pairs x with 2^(n-1) - 1 - x
    on the top qubit.  The diagonal reads the same backwards too, so F is
    twice the einsum over the half's rows and the diagonal's first half,
    and the transform runs on the half's rows, n - 1 qubits.  Each
    butterfly gives the reversed half the half's values times (-1)^|K|
    exactly (lo and hi swap, and (-a) + b = -((-b) + a)), and none gives
    -0.0, so the top qubit's butterfly would add a value to itself or to
    its negation: Z is twice the half's value at K & (2^(n-1) - 1) for
    even |K| and +0.0 for odd |K|, the bits of the full-length transform.
    At 20 qubits one pair holds 12 MiB above its table: the half state and
    half the rows."""
    n = len(table.codes).bit_length() - 1
    mirrored = n >= 2 and np.array_equal(table.codes, table.codes[::-1])
    keys = np.array(Ks, dtype=np.int64)
    if mirrored:
        half = 2 ** (n - 1)
        table = table._replace(codes=table.codes[:half],
                               diagonal=table.diagonal[:half])
        even = (np.bitwise_count(keys) % 2 == 0)[:, None]
        keys &= half - 1
    F, Z = np.empty(len(gammas)), np.empty((len(keys), len(gammas)))
    width = max(1, min(len(gammas), hamiltonian.BLOCK >> n))
    for at in range(0, len(gammas), width):
        batch = slice(at, at + width)
        state = np.full((len(table.codes), len(gammas[batch])),
                        2.0 ** (-n / 2), dtype=complex)
        apply_mixer(betas[batch], apply_phase(table, gammas[batch], state))
        if mirrored:
            _mix_top(betas[batch], state)
        probs = np.abs(state.T, order="C")  # a row per sample
        del state
        probs **= 2
        F[batch] = [np.einsum("i,i->", row, table.diagonal) for row in probs]
        if mirrored:
            F[batch] *= 2
        if len(keys):
            walsh = _butterflies(np.ascontiguousarray(probs.T))[keys]
            Z[:, batch] = np.where(even, 2 * walsh, 0.0) if mirrored else walsh
        del probs  # before the next batch's state
    return F, Z


def qaoa_expectation_sv(h: DiagonalHamiltonian, angles) -> float:
    """F(gamma, beta) evaluated by direct simulation of U_M U_C |s>."""
    if h.n > MAX_QUBITS:  # before the 2^n diagonal
        raise ValueError(f"n={h.n} exceeds the {MAX_QUBITS}-qubit "
                         "statevector cap")
    table = phase_table(evaluate_all(h))
    return float(qaoa_values_sv(table, (), *np.reshape(angles, (2, 1)))[0][0])
