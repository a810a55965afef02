"""Dense statevector simulation of the single-round QAOA state.

Serves as the exact oracle for the analytic expectation engine.  Basis
state x (an index into the amplitude array) assigns vertex v the bit
(x >> v) & 1, matching the bitmask convention of the hamiltonian module.
The phase gate and the expectation take H as its diagonal, the 2^n
values `hamiltonian.evaluate_all` gives, so a caller that applies the
same H at many angles builds it once.  The gate functions mutate a
State in place and return it for chaining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import DiagonalHamiltonian, evaluate_all

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
    state.amplitudes *= np.exp(-1j * gamma * diagonal)
    return state


def apply_mixer(beta: float, state: State) -> State:
    """Apply exp(-i beta X) to every qubit (the X_v commute)."""
    c, s = np.cos(beta), -1j * np.sin(beta)
    for v in range(state.n):
        pairs = state.amplitudes.reshape(-1, 2, 2 ** v)
        a = pairs[:, 0, :].copy()
        pairs[:, 0, :] *= c
        pairs[:, 0, :] += s * pairs[:, 1, :]
        pairs[:, 1, :] *= c
        pairs[:, 1, :] += s * a
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
