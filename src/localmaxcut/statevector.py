"""Dense statevector simulation of the single-round QAOA state.

Serves as the exact oracle for the analytic expectation engine.  Basis
state x (an index into the amplitude array) assigns vertex v the bit
(x >> v) & 1, matching the bitmask convention of the hamiltonian module.
The phase gate and the expectation take H as its diagonal, the 2^n
values `hamiltonian.evaluate_all` gives, so a caller that applies the
same H at many angles builds it once.  The gate functions mutate a
State in place and return it for chaining.

Each gate costs its arithmetic and keeps the elementwise operations, in
their order, of the plain loop over the whole array, so every amplitude
has the same bits as there:

- the mixer is one 2x2 rotation per qubit over the pairs of amplitudes
  that differ in its bit, as `hamiltonian.pair_walk` hands them out (the
  Walsh transform's walk): the lower n // 2 qubits on transposed blocks
  of PAIR_BLOCK entries, each qubit's pairs as two contiguous arrays, so
  no pass runs over pairs a few entries apart and at most two blocks are
  held beside the state;
- the phase gate takes exp(-i gamma v) once per distinct diagonal value
  v of each PAIR_BLOCK-entry block (a LocalMaxCut diagonal has at most
  n + 1) and gathers it.  The values are told apart by their bits, so
  +0.0 and -0.0 are two, and sorted with numpy's default argsort: on
  HEAWOOD's 2^14 values a stable sort took 0.65 ms where it takes
  0.17 ms, and np.unique imports numpy.ma (38 ms) on its first call.
  The blocks keep the sort in cache: one argsort of 2^22 entries took
  230 ms, against 2.1 ms for 2^18.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import (PAIR_BLOCK, DiagonalHamiltonian, evaluate_all,
                          pair_walk)

MAX_QUBITS = 26  # 2^26 complex doubles = 1 GiB


@dataclass
class State:
    n: int
    amplitudes: np.ndarray


def uniform_state(n: int) -> State:
    """The uniform superposition |s> with every amplitude 2^{-n/2}."""
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the {MAX_QUBITS}-qubit statevector cap")
    amp = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    return State(n=n, amplitudes=amp)


def apply_phase(diagonal: np.ndarray, gamma: float, state: State) -> State:
    """Apply exp(-i gamma H): scale amplitude x by exp(-i gamma H(x))."""
    if len(diagonal) != 2 ** state.n:
        raise ValueError(f"{len(diagonal)} diagonal values, state on "
                         f"{state.n} qubits")
    keys = np.asarray(diagonal, dtype=float).view(np.int64)  # by bits
    for start in range(0, len(keys), PAIR_BLOCK):
        part = keys[start:start + PAIR_BLOCK]
        order = np.argsort(part)
        ordered = part[order]
        first = np.empty(len(part), dtype=bool)  # the first of its value
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        codes = np.empty(len(part), dtype=np.intp)
        codes[order] = np.cumsum(first) - 1
        table = np.exp(-1j * gamma * ordered[first].view(float))
        state.amplitudes[start:start + PAIR_BLOCK] *= table[codes]
    return state


def apply_mixer(beta: float, state: State) -> State:
    """Apply exp(-i beta X) to every qubit (the X_v commute)."""
    c, s = np.cos(beta), -1j * np.sin(beta)
    for lo, hi in pair_walk(state.amplitudes):
        a = lo.copy()
        lo *= c
        lo += s * hi
        hi *= c
        hi += s * a
    return state


def expectation_sv(diagonal: np.ndarray, state: State) -> float:
    """<state| H |state> = sum_x |amp_x|^2 H(x)."""
    if len(diagonal) != 2 ** state.n:
        raise ValueError(f"{len(diagonal)} diagonal values, state on "
                         f"{state.n} qubits")
    probs = np.abs(state.amplitudes) ** 2
    return float(probs @ diagonal)


def qaoa_expectation_sv(h: DiagonalHamiltonian, angles) -> float:
    """F(gamma, beta) evaluated by direct simulation of U_M U_C |s>."""
    gamma, beta = angles
    state = uniform_state(h.n)  # refuses n > MAX_QUBITS before the diagonal
    diagonal = evaluate_all(h)
    apply_mixer(beta, apply_phase(diagonal, gamma, state))
    return expectation_sv(diagonal, state)
