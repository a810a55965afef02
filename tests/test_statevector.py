"""Gate-level checks of the dense simulator against hand and dense-matrix oracles."""

import math

import numpy as np
import pytest

from derivations import butterfly_walsh, exp_phase, loop_mixer
from localmaxcut import (MAX_QUBITS, apply_mixer, apply_phase,
                         build_localmaxcut_hamiltonian, evaluate_all,
                         make_cycle, make_hamiltonian, make_named, mask_of,
                         phase_table, qaoa_expectation_sv)
from localmaxcut import hamiltonian, statevector
from localmaxcut.hamiltonian import (BLOCK, block_entries, pair_walk,
                                    walsh_transform)
from localmaxcut.qaoa_engine import expectation_terms
from localmaxcut.statevector import qaoa_values_sv
from test_qaoa_engine import traced_peak


def uniform(n, *samples):
    """|s> on n qubits, every amplitude 2^{-n/2}; `samples` side by side."""
    return np.full((2 ** n, *samples), 2.0 ** (-n / 2), dtype=complex)


def test_uniform_state():
    # at gamma = beta = 0 the route measures |s> itself: the empty K reads
    # its norm, every other Z_K reads 0, and F the diagonal's mean
    diagonal = np.arange(8.0)
    F, Z = qaoa_values_sv(phase_table(diagonal), range(8), np.zeros(3),
                          np.zeros(3))
    assert np.allclose(F, 3.5)
    assert np.allclose(Z[0], 1.0) and np.allclose(Z[1:], 0.0)


def test_apply_phase_single_zz_term():
    # H = Z_0 Z_1: value +1 on 00/11, -1 on 01/10; at gamma = pi/2 the
    # uniform amplitudes pick up -i and +i respectively
    h = make_hamiltonian(2, {mask_of((0, 1)): 1.0})
    st = apply_phase(phase_table(evaluate_all(h)), math.pi / 2, uniform(2))
    assert np.allclose(st, [-0.5j, 0.5j, 0.5j, -0.5j])


def test_apply_phase_is_diagonal_phase():
    # |amplitude| is untouched and the phase is exactly -gamma * H(x)
    h = make_hamiltonian(3, {0: 0.5, 0b011: -0.25, 0b110: 1.5})
    values = evaluate_all(h)
    st = apply_phase(phase_table(values), 0.7, uniform(3))
    expected = 2.0 ** -1.5 * np.exp(-1j * 0.7 * values)
    assert np.allclose(st, expected)


def test_apply_mixer_single_qubit():
    st = np.array([1.0, 0.0], dtype=complex)
    apply_mixer(0.3, st)
    assert np.allclose(st, [math.cos(0.3), -1j * math.sin(0.3)])


def test_mixer_composes_additively():
    # exp(-i a X) exp(-i b X) = exp(-i (a+b) X) qubit by qubit
    rng = np.random.default_rng(0)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    once = amps.copy()
    apply_mixer(0.9, once)
    twice = amps.copy()
    apply_mixer(0.4, twice)
    apply_mixer(0.5, twice)
    assert np.allclose(once, twice)


def test_mixer_matches_dense_kronecker():
    beta = 1.234
    x = np.array([[0, 1], [1, 0]])
    gate = math.cos(beta) * np.eye(2) - 1j * math.sin(beta) * x
    # tensor order: qubit 0 is the least significant index
    dense = np.kron(np.kron(gate, gate), gate)
    rng = np.random.default_rng(1)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    st = amps.copy()
    apply_mixer(beta, st)
    assert np.allclose(st, dense @ amps)


def test_gates_preserve_norm():
    h = make_hamiltonian(4, {0b0101: 0.3, 0b1110: -1.1})
    st = apply_mixer(2.2, apply_phase(phase_table(evaluate_all(h)), 1.7,
                                      uniform(4)))
    assert np.linalg.norm(st) == pytest.approx(1.0)


def test_uniform_expectation_is_constant_term():
    # <s|chi_S|s> = 0 for S nonempty, so only the identity weight survives
    h = make_hamiltonian(4, {0: 2.5, 0b0011: -0.5, 0b1100: 0.75})
    assert qaoa_expectation_sv(h, (0.0, 0.0)) == pytest.approx(2.5, abs=1e-12)
    # and the mixer alone cannot change that
    assert qaoa_expectation_sv(h, (1.3, 0.0)) == pytest.approx(2.5, abs=1e-12)
    assert qaoa_expectation_sv(h, (0.0, 0.8)) == pytest.approx(2.5, abs=1e-12)


def test_qaoa_expectation_sv_refuses_the_cap_before_the_diagonal(
        monkeypatch):
    # the 2^n diagonal is the largest allocation, so the cap comes first
    calls = []
    monkeypatch.setattr(statevector, "evaluate_all", calls.append)
    h = make_hamiltonian(MAX_QUBITS + 1, {1 << MAX_QUBITS: 1.0})
    with pytest.raises(ValueError, match="qubit statevector cap"):
        qaoa_expectation_sv(h, (0.3, 0.2))
    assert calls == []


def test_dimension_mismatch_raises():
    # the qubit count is the array's: both lengths are named
    h = make_hamiltonian(3, {0b011: 1.0})
    message = "8 diagonal values, state of 4 amplitudes"
    with pytest.raises(ValueError, match=message):
        apply_phase(phase_table(evaluate_all(h)), 0.1, uniform(2))
    with pytest.raises(ValueError, match=message):
        apply_phase(phase_table(evaluate_all(h)), np.full(3, 0.1),
                    uniform(2, 3))


def test_walks_refuse_a_length_not_a_power_of_two():
    message = "6 entries is not a power of two"
    for values in (np.ones(6, dtype=complex), np.ones((6, 2), dtype=complex)):
        with pytest.raises(ValueError, match=message):
            apply_mixer(0.3, values)
        with pytest.raises(ValueError, match=message):
            walsh_transform(values.real)


# the default block, where 2^15 and 2^16 entries take more than one, and
# blocks small enough that every size past a few qubits takes many
BLOCKS = [(BLOCK, 17), (16, 11), (2, 9)]


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b[0]}")
def sizes(request, monkeypatch):
    """The qubit counts 0..n-1 to check, with BLOCK set for the walk,
    the phase gate, its table's blocks and the batches of a route, and
    for the engine's blocks where a test compares with the engine."""
    block, n = request.param
    monkeypatch.setattr(hamiltonian, "BLOCK", block)
    return range(n)


def test_pair_walk_views_every_pair_once_in_qubit_order(sizes):
    # walked without updates, each view holds the indices of its entries,
    # a row of three equal values on the batch
    for n in sizes:
        index = np.arange(2 ** n)
        for a in (index.astype(float), np.repeat(index[:, None], 3, axis=1)
                  .astype(float)):
            met = np.zeros(2 ** n, dtype=int)  # the qubits each index met
            lows = [[] for _ in range(n)]
            for pairs, scratch in pair_walk(a):
                assert scratch.shape == pairs.shape
                assert scratch.flags.c_contiguous
                entries = pairs.reshape(*pairs.shape[:3], -1)
                assert math.prod(pairs.shape[:3]) <= max(2, block_entries(a))
                assert (entries == entries[..., :1]).all()
                lo, hi = entries[:, 0, :, 0], entries[:, 1, :, 0]
                v = int(hi[0, 0] - lo[0, 0]).bit_length() - 1
                assert (hi - lo == 2 ** v).all()
                lo, hi = lo.astype(int).ravel(), hi.astype(int).ravel()
                assert (met[lo] == v).all() and (met[hi] == v).all()
                met[lo] += 1
                met[hi] += 1
                lows[v].append(lo)
            assert (met == n).all()
            for v in range(n):
                assert np.array_equal(np.sort(np.concatenate(lows[v])),
                                      index[index >> v & 1 == 0])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_walsh_transform_is_the_butterfly_loop(sizes):
    # every entry meets the butterflies in qubit order, each elementwise,
    # so the blocked walk gives the bits of the loop over the whole array
    rng = np.random.default_rng(3)
    for n in sizes:
        for values in (rng.normal(size=2 ** n),
                       rng.integers(-3, 4, size=2 ** n).astype(float)):
            assert np.array_equal(bits(walsh_transform(values)),
                                  bits(butterfly_walsh(values)))


def test_walsh_transform_is_the_unscaled_sum(sizes):
    # a unit impulse sums to a one at every s, and on integers, where every
    # sum is exact, the transform applied twice is exactly 2^k the input,
    # also on columns read from a transposed array
    rng = np.random.default_rng(11)
    for n in sizes:
        impulse = np.zeros(2 ** n)
        impulse[0] = 1.0
        assert np.array_equal(walsh_transform(impulse), np.ones(2 ** n))
        values = rng.integers(-3, 4, size=(3, 2 ** n)).astype(float).T
        assert np.array_equal(walsh_transform(walsh_transform(values)),
                              2 ** n * values)


def test_apply_mixer_is_the_qubit_loop(sizes):
    rng = np.random.default_rng(4)
    for n in sizes:
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        for beta in (0.0, 0.37, -2.9, math.pi / 2):
            st = apply_mixer(beta, amps.copy())
            assert np.array_equal(bits(st), bits(loop_mixer(beta, amps)))


def test_apply_phase_is_one_exponential_per_entry(sizes):
    # one exponential per distinct value, told apart by its bits, so a
    # diagonal holding both +0.0 and -0.0 keeps the sign of every zero
    rng = np.random.default_rng(5)
    for n in sizes:
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        for diagonal in (rng.normal(size=2 ** n),
                         rng.integers(0, n + 1, size=2 ** n).astype(float),
                         rng.choice([0.0, -0.0, 1.0, -2.5], size=2 ** n)):
            for gamma in (0.0, 0.7, -3.1, 1e3):
                st = apply_phase(phase_table(diagonal), gamma, amps.copy())
                assert np.array_equal(bits(st),
                                      bits(exp_phase(diagonal, gamma, amps)))


def test_apply_phase_on_a_localmaxcut_diagonal():
    h = build_localmaxcut_hamiltonian(make_named("HEAWOOD"))
    diagonal = evaluate_all(h)
    assert len(set(diagonal.tolist())) <= h.n + 1
    amps = uniform(h.n)
    st = apply_phase(phase_table(diagonal), 2.2, uniform(h.n))
    assert np.array_equal(bits(st),
                          bits(exp_phase(diagonal, 2.2, amps)))


def test_phase_table_tells_values_apart_by_bits():
    # +0.0 and -0.0 are two levels, and the codes take the smallest
    # unsigned dtype that indexes the levels
    diagonal = np.array([0.0, -0.0, 1.0, 0.0, -2.5, -0.0, 1.0, 1.0])
    table = phase_table(diagonal)
    assert table.codes.dtype == np.uint8
    assert len(table.levels) == 4
    assert np.array_equal(bits(table.levels[table.codes]), bits(diagonal))
    wide = phase_table(np.arange(2 ** 9) * 0.5)
    assert wide.codes.dtype == np.uint16
    assert np.array_equal(wide.levels[wide.codes], np.arange(2 ** 9) * 0.5)


SAMPLES = (1, 2, 3, 50)
BATCH_ELEMENTS = 2 ** 18  # the largest batch checked, S * 2^n


def batches(sizes, rng):
    """(n, S, a (2^n, S) complex batch) for every n of `sizes` and S of
    SAMPLES whose batch has at most BATCH_ELEMENTS elements."""
    for n in sizes:
        for samples in SAMPLES:
            if samples << n <= BATCH_ELEMENTS:
                yield n, samples, (rng.normal(size=(2 ** n, samples))
                                   + 1j * rng.normal(size=(2 ** n, samples)))


def test_batched_walsh_transform_is_the_loop_per_column(sizes):
    # a row of S values is one entry of the walk, so each column meets
    # the butterflies as a lone array would
    rng = np.random.default_rng(6)
    for n, samples, values in batches(sizes, rng):
        out = walsh_transform(values.real)
        for j in range(samples):
            assert np.array_equal(bits(out[:, j]),
                                  bits(butterfly_walsh(values.real[:, j])))


def test_batched_apply_mixer_is_the_loop_per_column(sizes):
    rng = np.random.default_rng(7)
    for n, samples, amps in batches(sizes, rng):
        betas = rng.uniform(-math.pi, math.pi, size=samples)
        st = apply_mixer(betas, amps.copy())
        for j in range(samples):
            assert np.array_equal(bits(st[:, j]),
                                  bits(loop_mixer(betas[j], amps[:, j])))


def test_batched_apply_phase_is_one_exponential_per_entry(sizes):
    # one exponential per level and sample, gathered through the codes;
    # the +-0.0 diagonal keeps the sign of every zero in every column.
    # A batch on 0 qubits is left out: numpy's in-place complex multiply
    # rounds a lone entry differently from a row of entries (see
    # exp_phase), and a graph always has a vertex
    rng = np.random.default_rng(8)
    for n, samples, amps in batches(sizes, rng):
        if n == 0 and samples > 1:
            continue
        gammas = rng.uniform(-4.0, 4.0, size=samples)
        for diagonal in (rng.integers(0, n + 1, size=2 ** n).astype(float),
                         rng.choice([0.0, -0.0, 1.0, -2.5], size=2 ** n)):
            st = apply_phase(phase_table(diagonal), gammas, amps.copy())
            for j in range(samples):
                assert np.array_equal(
                    bits(st[:, j]),
                    bits(exp_phase(diagonal, gammas[j], amps[:, j])))


def test_gates_hold_at_most_a_block_beside_the_state():
    # at 18 qubits (4 MiB of amplitudes) the gates hold a block or two
    # beside the state: a whole-state transposed copy would take the
    # mixer to about twice the state, and the loop over the whole array
    # took it to 1.06 times, the transform to 2.06 times its output and
    # the phase to 2.0 times; the top-qubit rotation of a mirrored state
    # holds one block, where unblocked its scratch is as large as the
    # array it rotates.  A batch of 4 samples on 16 qubits holds as
    # many elements, and BLOCK counts elements, so it holds as little
    n = 18
    diagonal = np.arange(2 ** n) % (n + 1) * 1.0
    for qubits, angle in ((n, 0.3), (n - 2, np.full(4, 0.3))):
        amps = uniform(qubits, *np.shape(angle))
        probs = np.abs(amps) ** 2
        table = phase_table(diagonal[:2 ** qubits])
        mixer, _ = traced_peak(lambda: apply_mixer(angle, amps))
        top, _ = traced_peak(lambda: statevector._mix_top(angle, amps))
        phase, _ = traced_peak(lambda: apply_phase(table, angle, amps))
        transform, _ = traced_peak(lambda: walsh_transform(probs))
        assert mixer < 0.5 * amps.nbytes
        assert top < 0.5 * amps.nbytes
        assert phase < 0.5 * amps.nbytes
        assert transform < 1.5 * probs.nbytes


def test_route_readout_holds_the_rows_and_half_as_much_again():
    # at 18 qubits the rows of |amp|^2 take 2 MiB.  The route drops the
    # state once |amp|^2 is taken and transforms the rows in place: a
    # mirrored state peaks at 1.5 times the rows (the half state and
    # half the rows, then the rows and their first half), the whole
    # state at 3 times.  Squaring into a second array, keeping the
    # state and transforming a copy took them to 3.2 and 4.2 times
    n = 18
    levels = np.arange(2 ** n) % (n + 1) * 1.0
    angles = np.full(1, 0.3), np.full(1, 0.2)
    for diagonal, most in ((np.minimum(levels, levels[::-1]), 1.6),
                           (levels, 3.1)):
        table = phase_table(diagonal)
        peak, _ = traced_peak(
            lambda: qaoa_values_sv(table, [1, 3, 2 ** n - 1], *angles))
        assert peak < most * diagonal.nbytes


def test_route_batches_give_the_bits_of_one_pair_at_a_time(sizes):
    # one call runs min(pairs, BLOCK >> n) pairs side by side (16 on
    # PETERSEN at the default block); each pair keeps the bits it has
    # alone, and the per-term values match the engine.  A graph past the
    # block's sizes is left out: at the 2-element block a PETERSEN pair
    # takes 50 ms, and a HEAWOOD pair at 16 elements 140 ms
    rng = np.random.default_rng(10)
    for name in ("PETERSEN", "HEAWOOD"):
        h = build_localmaxcut_hamiltonian(make_named(name))
        if h.n not in sizes:
            continue
        Ks = [K for K, _ in h.nonconstant_terms()]
        table = phase_table(evaluate_all(h))
        gammas, betas = rng.uniform((0.0, 0.0), (2 * math.pi, math.pi),
                                    size=(50, 2)).T
        F, Z = qaoa_values_sv(table, Ks, gammas, betas)
        assert Z.shape == (len(Ks), 50)
        for j in range(50):
            F1, Z1 = qaoa_values_sv(table, Ks, gammas[j:j + 1],
                                    betas[j:j + 1])
            assert bits(F[j]) == bits(F1[0])
            assert np.array_equal(bits(Z[:, j]), bits(Z1[:, 0]))
        engine = expectation_terms(h, Ks, (gammas, betas))
        assert np.max(np.abs(Z - engine)) <= 1e-9


def test_route_without_terms_takes_no_transform(monkeypatch):
    calls = []
    transform = statevector._butterflies

    def counted(values):
        calls.append(values.shape)
        return transform(values)

    monkeypatch.setattr(statevector, "_butterflies", counted)
    h = build_localmaxcut_hamiltonian(make_named("PETERSEN"))
    table = phase_table(evaluate_all(h))
    angles = np.linspace(0.1, 2.0, 20), np.linspace(0.3, 1.5, 20)
    F, Z = qaoa_values_sv(table, (), *angles)
    assert calls == [] and F.shape == (20,) and Z.shape == (0, 20)
    qaoa_values_sv(table, [0b11], *angles)  # one transform per batch
    # PETERSEN's diagonal reads the same backwards: half-length rows
    assert calls == [(2 ** 9, 16), (2 ** 9, 4)]


def test_route_simulates_half_a_mirrored_state(monkeypatch):
    # a LocalMaxCut diagonal reads the same backwards, so the mixer sees
    # the first half of the state; an odd-size term breaks the symmetry
    # and the whole state is simulated
    lengths = []
    mixer = statevector.apply_mixer

    def recorded(beta, state):
        lengths.append(len(state))
        return mixer(beta, state)

    monkeypatch.setattr(statevector, "apply_mixer", recorded)
    h = build_localmaxcut_hamiltonian(make_named("PETERSEN"))
    qaoa_values_sv(phase_table(evaluate_all(h)), (), np.full(1, 0.3),
                   np.full(1, 0.2))
    assert lengths == [2 ** 9]
    lengths.clear()
    qaoa_expectation_sv(make_hamiltonian(3, {0b001: 0.5, 0b011: 1.0}),
                        (0.3, 0.2))
    assert lengths == [2 ** 3]


def full_state_values(table, Ks, gammas, betas):
    """(F, Z) of one batch by the gates on the whole state, read as the
    route reads them: F is twice the einsum over the first half of the
    rows and the diagonal when the codes read the same backwards."""
    n = len(table.codes).bit_length() - 1
    state = apply_mixer(betas, apply_phase(table, gammas,
                                           uniform(n, len(gammas))))
    probs = np.abs(state.T, order="C") ** 2
    mirrored = n >= 2 and np.array_equal(table.codes, table.codes[::-1])
    end = 2 ** (n - 1) if mirrored else 2 ** n
    F = np.array([np.einsum("i,i->", row[:end], table.diagonal[:end])
                  for row in probs]) * (2 if mirrored else 1)
    return F, walsh_transform(probs.T)[list(Ks)]


def test_half_state_route_is_the_full_state_gates():
    # on a diagonal that reads the same backwards the route simulates
    # half the state; F and Z keep the bits of the gates on the whole
    # state, at one pair and at a batch, and a diagonal that does not
    # read the same backwards takes the whole state as it is
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        levels = rng.integers(0, n + 1, size=2 ** n).astype(float)
        even = make_hamiltonian(n, {
            int(m): float(rng.normal()) for m in rng.integers(0, 2 ** n, 8)
            if int(m).bit_count() % 2 == 0})
        diagonals = [np.maximum(levels, levels[::-1]), levels,
                     evaluate_all(even)]
        if n >= 3:
            cycle = build_localmaxcut_hamiltonian(make_cycle(n))
            diagonals.append(evaluate_all(cycle))
        Ks = [0, 1, 2 ** n - 1, int(rng.integers(0, 2 ** n))]
        for diagonal in diagonals:
            table = phase_table(diagonal)
            for pairs in (1, min(3, BLOCK >> n)):
                gammas, betas = rng.uniform((-4.0, -4.0), (4.0, 4.0),
                                            size=(pairs, 2)).T
                F, Z = qaoa_values_sv(table, Ks, gammas, betas)
                F1, Z1 = full_state_values(table, Ks, gammas, betas)
                assert np.array_equal(bits(F), bits(F1))
                assert np.array_equal(bits(Z), bits(Z1))


def test_half_state_readout_is_the_full_length_transform():
    # a mirrored state's Walsh transform is twice the half rows' transform
    # at K & (2^(n-1) - 1) for even |K| and +0.0 for odd |K|, bit for bit,
    # since the top qubit's butterfly pairs each value with itself or its
    # negation.  Every K at 4 and 10 qubits, and some at 13 and 14, with
    # one pair and three
    rng = np.random.default_rng(14)
    for g in (make_named("K4"), make_named("PETERSEN"), make_cycle(13),
              make_named("HEAWOOD")):
        n = g.n
        table = phase_table(evaluate_all(build_localmaxcut_hamiltonian(g)))
        Ks = (range(2 ** n) if n <= 10 else
              [0, 1, 3, 2 ** n - 1, 2 ** n - 2, *rng.integers(0, 2 ** n, 60)])
        for pairs in (1, 3):
            gammas, betas = rng.uniform((-4.0, -4.0), (4.0, 4.0),
                                        size=(pairs, 2)).T
            F, Z = qaoa_values_sv(table, Ks, gammas, betas)
            F1, Z1 = full_state_values(table, Ks, gammas, betas)
            assert np.array_equal(bits(F), bits(F1))
            assert np.array_equal(bits(Z), bits(Z1))
            odd = [i for i, K in enumerate(Ks) if int(K).bit_count() % 2]
            assert np.array_equal(bits(Z[odd]),
                                  bits(np.zeros((len(odd), pairs))))
