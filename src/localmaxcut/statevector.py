"""Dense statevector simulation of the single-round QAOA state.

Serves as the exact oracle for the analytic expectation engine.  Basis
state x (an index into the amplitude array) assigns vertex v the bit
(x >> v) & 1, matching the bitmask convention of the hamiltonian module.
The phase gate takes H as a `PhaseTable` and the expectation as its
diagonal, the 2^n values `hamiltonian.evaluate_all` gives, so a caller
that applies the same H at many angles builds both once.  The gate
functions mutate a State in place and return it for chaining.

A State holds one state, 2^n amplitudes, or a batch of S states side by
side, a (2^n, S) array with one sample per column; the gates then take
an angle per sample, and the expectation gives one value per sample.
Every entry of a column meets the same operations as in a lone state, so
a batch has the bits of its columns run one at a time.  `cli.verify`
batches its samples up to one block of PAIR_BLOCK elements, so the
numpy calls of a gate serve every sample of a small state at once.

Each gate costs its arithmetic and keeps the elementwise operations, in
their order, of the plain loop over the whole array, so every amplitude
has the same bits as there:

- the mixer is one 2x2 rotation per qubit over the pairs of amplitudes
  that differ in its bit, as `hamiltonian.pair_walk` hands them out (the
  Walsh transform's walk): the lower n // 2 qubits on transposed blocks
  of PAIR_BLOCK elements, each qubit's pairs as two contiguous arrays, so
  no pass runs over pairs a few entries apart and at most two blocks are
  held beside the state;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonian import (PAIR_BLOCK, DiagonalHamiltonian, block_entries,
                          evaluate_all, pair_walk)

MAX_QUBITS = 26  # 2^26 complex doubles = 1 GiB


@dataclass
class State:
    n: int
    amplitudes: np.ndarray  # (2^n,), or (2^n, S) for S samples side by side


class PhaseTable(NamedTuple):
    """A diagonal's distinct values, told apart by their bits, and each
    entry's code into them, in the smallest unsigned dtype that holds it."""
    levels: np.ndarray
    codes: np.ndarray


def uniform_state(n: int, samples: int | None = None) -> State:
    """The uniform superposition |s> with every amplitude 2^{-n/2}; with
    `samples`, that many copies side by side."""
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the {MAX_QUBITS}-qubit statevector cap")
    shape = (2 ** n,) if samples is None else (2 ** n, samples)
    amp = np.full(shape, 2.0 ** (-n / 2), dtype=complex)
    return State(n=n, amplitudes=amp)


def phase_table(diagonal: np.ndarray) -> PhaseTable:
    """The codes table of a diagonal, for `apply_phase`.

    Each PAIR_BLOCK-entry block is sorted by bits and its distinct values
    kept, and one more sort merges the blocks' values; each block's codes
    are then a search among them."""
    keys = np.asarray(diagonal, dtype=float).view(np.int64)  # by bits
    found = []
    for start in range(0, len(keys), PAIR_BLOCK):
        found.append(_distinct(np.sort(keys[start:start + PAIR_BLOCK])))
    levels = _distinct(np.sort(np.concatenate(found)))
    codes = np.empty(len(keys), dtype=np.min_scalar_type(len(levels) - 1))
    for start in range(0, len(keys), PAIR_BLOCK):
        codes[start:start + PAIR_BLOCK] = np.searchsorted(
            levels, keys[start:start + PAIR_BLOCK])
    return PhaseTable(levels=levels.view(float), codes=codes)


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    first = np.empty(len(ordered), dtype=bool)  # the first of its value
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def apply_phase(table: PhaseTable, gamma, state: State) -> State:
    """Apply exp(-i gamma H): scale amplitude x by exp(-i gamma H(x)).
    gamma is one angle, or one per sample of a batch."""
    codes = table.codes
    if len(codes) != 2 ** state.n:
        raise ValueError(f"{len(codes)} diagonal values, state on "
                         f"{state.n} qubits")
    factors = np.exp(np.multiply.outer(table.levels, -1j * gamma))
    chunk = block_entries(state.amplitudes)
    for start in range(0, len(codes), chunk):
        state.amplitudes[start:start + chunk] *= factors.take(
            codes[start:start + chunk], axis=0)
    return state


def apply_mixer(beta, state: State) -> State:
    """Apply exp(-i beta X) to every qubit (the X_v commute).  beta is one
    angle, or one per sample of a batch."""
    c, s = np.cos(beta), -1j * np.sin(beta)
    for lo, hi in pair_walk(state.amplitudes):
        a = lo.copy()
        lo *= c
        lo += s * hi
        hi *= c
        hi += s * a
    return state


def expectation_sv(diagonal: np.ndarray, state: State):
    """<state| H |state> = sum_x |amp_x|^2 H(x): a float, or an array of
    one per sample of a batch.

    Each sample's probabilities are summed as one contiguous row by one
    dot product: a dot over a strided column changes the last bits."""
    if len(diagonal) != 2 ** state.n:
        raise ValueError(f"{len(diagonal)} diagonal values, state on "
                         f"{state.n} qubits")
    probs = np.abs(state.amplitudes.T, order="C") ** 2  # a row per sample
    values = np.array([row @ diagonal
                       for row in probs.reshape(-1, len(diagonal))])
    return values.reshape(probs.shape[:-1])[()]  # a lone state's is a scalar


def qaoa_expectation_sv(h: DiagonalHamiltonian, angles) -> float:
    """F(gamma, beta) evaluated by direct simulation of U_M U_C |s>."""
    gamma, beta = angles
    state = uniform_state(h.n)  # refuses n > MAX_QUBITS before the diagonal
    diagonal = evaluate_all(h)
    apply_mixer(beta, apply_phase(phase_table(diagonal), gamma, state))
    return float(expectation_sv(diagonal, state))
