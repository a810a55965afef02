"""Gate-level checks of the dense simulator against hand and dense-matrix oracles."""

import math

import numpy as np
import pytest

from localmaxcut import (MAX_QUBITS, apply_mixer, apply_phase, evaluate_all,
                         evaluate_classical, expectation_sv, make_hamiltonian,
                         mask_of, qaoa_expectation_sv, uniform_state)
from localmaxcut.statevector import State


def test_uniform_state():
    st = uniform_state(3)
    assert st.n == 3
    assert np.allclose(st.amplitudes, 2.0 ** -1.5)
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0)


def test_qubit_cap():
    with pytest.raises(ValueError):
        uniform_state(MAX_QUBITS + 1)


def test_apply_phase_single_zz_term():
    # H = Z_0 Z_1: value +1 on 00/11, -1 on 01/10; at gamma = pi/2 the
    # uniform amplitudes pick up -i and +i respectively
    h = make_hamiltonian(2, {mask_of((0, 1)): 1.0})
    st = apply_phase(evaluate_all(h), math.pi / 2, uniform_state(2))
    assert np.allclose(st.amplitudes, [-0.5j, 0.5j, 0.5j, -0.5j])


def test_apply_phase_is_diagonal_phase():
    # |amplitude| is untouched and the phase is exactly -gamma * H(x)
    h = make_hamiltonian(3, {0: 0.5, 0b011: -0.25, 0b110: 1.5})
    values = evaluate_all(h)
    st = apply_phase(values, 0.7, uniform_state(3))
    expected = 2.0 ** -1.5 * np.exp(-1j * 0.7 * values)
    assert np.allclose(st.amplitudes, expected)


def test_apply_mixer_single_qubit():
    st = State(1, np.array([1.0, 0.0], dtype=complex))
    apply_mixer(0.3, st)
    assert np.allclose(st.amplitudes, [math.cos(0.3), -1j * math.sin(0.3)])


def test_mixer_composes_additively():
    # exp(-i a X) exp(-i b X) = exp(-i (a+b) X) qubit by qubit
    rng = np.random.default_rng(0)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    once = State(3, amps.copy())
    apply_mixer(0.9, once)
    twice = State(3, amps.copy())
    apply_mixer(0.4, twice)
    apply_mixer(0.5, twice)
    assert np.allclose(once.amplitudes, twice.amplitudes)


def test_mixer_matches_dense_kronecker():
    beta = 1.234
    x = np.array([[0, 1], [1, 0]])
    gate = math.cos(beta) * np.eye(2) - 1j * math.sin(beta) * x
    # tensor order: qubit 0 is the least significant index
    dense = np.kron(np.kron(gate, gate), gate)
    rng = np.random.default_rng(1)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    st = State(3, amps.copy())
    apply_mixer(beta, st)
    assert np.allclose(st.amplitudes, dense @ amps)


def test_gates_preserve_norm():
    h = make_hamiltonian(4, {0b0101: 0.3, 0b1110: -1.1})
    st = apply_mixer(2.2, apply_phase(evaluate_all(h), 1.7, uniform_state(4)))
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0)


def test_expectation_on_basis_state():
    h = make_hamiltonian(3, {0: 1.0, 0b011: -0.5, 0b101: 0.25})
    diagonal = evaluate_all(h)
    for x in range(8):
        amps = np.zeros(8, dtype=complex)
        amps[x] = 1.0
        assert expectation_sv(diagonal, State(3, amps)) == pytest.approx(
            evaluate_classical(h, x), abs=1e-12)


def test_uniform_expectation_is_constant_term():
    # <s|chi_S|s> = 0 for S nonempty, so only the identity weight survives
    h = make_hamiltonian(4, {0: 2.5, 0b0011: -0.5, 0b1100: 0.75})
    assert expectation_sv(evaluate_all(h), uniform_state(4)) == pytest.approx(
        2.5, abs=1e-12)
    # and the mixer alone cannot change that
    assert qaoa_expectation_sv(h, (1.3, 0.0)) == pytest.approx(2.5, abs=1e-12)
    assert qaoa_expectation_sv(h, (0.0, 0.8)) == pytest.approx(2.5, abs=1e-12)


def test_dimension_mismatch_raises():
    h = make_hamiltonian(3, {0b011: 1.0})
    with pytest.raises(ValueError):
        apply_phase(evaluate_all(h), 0.1, uniform_state(2))
    with pytest.raises(ValueError):
        expectation_sv(evaluate_all(h), uniform_state(2))
