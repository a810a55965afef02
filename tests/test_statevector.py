"""Gate-level checks of the dense simulator against hand and dense-matrix oracles."""

import math

import numpy as np
import pytest

from derivations import butterfly_walsh, exp_phase, loop_mixer
from localmaxcut import (MAX_QUBITS, apply_mixer, apply_phase,
                         build_localmaxcut_hamiltonian, load_edge_list,
                         make_cycle, make_named, make_random_regular)
from localmaxcut import hamiltonian, statevector
from localmaxcut.hamiltonian import (BLOCK, block_entries, pair_walk,
                                    walsh_transform)
from localmaxcut.qaoa_engine import expectation_terms
from localmaxcut.statevector import qaoa_values_sv, satisfied_counts
from test_qaoa_engine import traced_peak


def uniform(n, *samples):
    """|s> on n qubits, every amplitude 2^{-n/2}; `samples` side by side."""
    return np.full((2 ** n, *samples), 2.0 ** (-n / 2), dtype=complex)


def test_uniform_state():
    # at gamma = beta = 0 the route measures |s> itself: the empty K reads
    # its norm, every other Z_K reads 0, and F the codes' mean
    codes = np.array([0, 1, 2, 3, 3, 2, 1, 0], dtype=np.uint8)
    F, Z = qaoa_values_sv(codes, range(8), np.zeros(3), np.zeros(3))
    assert np.allclose(F, 1.5)
    assert np.allclose(Z[0], 1.0) and np.allclose(Z[1:], 0.0)


def test_apply_phase_single_zz_term():
    # (1 - Z_0 Z_1) / 2, the cut indicator of one edge: at gamma = pi/2
    # the uniform amplitudes of 01/10 pick up -i, those of 00/11 nothing
    codes = np.array([0, 1, 1, 0], dtype=np.uint8)
    st = apply_phase(codes, math.pi / 2, uniform(2))
    assert np.allclose(st, [0.5, -0.5j, -0.5j, 0.5])


def test_apply_phase_is_diagonal_phase():
    # |amplitude| is untouched and the phase is exactly -gamma * codes[x]
    codes = np.array([3, 0, 1, 1, 0, 2, 5, 3], dtype=np.uint8)
    st = apply_phase(codes, 0.7, uniform(3))
    expected = 2.0 ** -1.5 * np.exp(-1j * 0.7 * codes)
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
    codes = np.array([0, 4, 1, 2, 2, 1, 4, 0] * 2, dtype=np.uint8)
    st = apply_mixer(2.2, apply_phase(codes, 1.7, uniform(4)))
    assert np.linalg.norm(st) == pytest.approx(1.0)


def test_uniform_expectation_is_constant_term():
    # <s|chi_S|s> = 0 for S nonempty, so only H's identity weight, the
    # codes' mean, survives; and neither gate alone can change that
    g = make_named("PETERSEN")
    constant = build_localmaxcut_hamiltonian(g).constant
    F, _ = qaoa_values_sv(satisfied_counts(g), (), np.array([0.0, 1.3, 0.0]),
                          np.array([0.0, 0.0, 0.8]))
    assert F == pytest.approx([constant] * 3, abs=1e-12)


def test_satisfied_counts_refuse_before_allocating(monkeypatch):
    # the 2^n codes are the largest allocation, so the cap comes first,
    # and a graph with no common degree has no rule to count by
    calls = []

    class Recorded:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(np, name)

    monkeypatch.setattr(statevector, "np", Recorded())
    with pytest.raises(ValueError, match="qubit statevector cap"):
        satisfied_counts(make_cycle(MAX_QUBITS + 1))
    with pytest.raises(ValueError, match="not regular"):
        satisfied_counts(load_edge_list("0 1\n1 2\n"))
    assert calls == []


def test_dimension_mismatch_raises():
    # the qubit count is the array's: both lengths are named; and the
    # route, which pairs each state with its complement, needs 2 qubits
    codes = np.zeros(8, dtype=np.uint8)
    message = "8 diagonal values, state of 4 amplitudes"
    with pytest.raises(ValueError, match=message):
        apply_phase(codes, 0.1, uniform(2))
    with pytest.raises(ValueError, match=message):
        apply_phase(codes, np.full(3, 0.1), uniform(2, 3))
    with pytest.raises(ValueError, match="2 codes: the route needs 2 qubits"):
        qaoa_values_sv(codes[:2], (), np.full(1, 0.1), np.full(1, 0.2))


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
    the phase gate, the count's blocks and the batches of a route, and
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
    # one exponential per integer up to the largest code, gathered
    # through the codes, gives the bits of one per entry; codes that
    # skip values, or hold only zeros, take no other route
    rng = np.random.default_rng(5)
    for n in sizes:
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        for codes in (rng.integers(0, n + 1, size=2 ** n),
                      rng.choice([0, 3, 7], size=2 ** n),
                      np.zeros(2 ** n)):
            codes = codes.astype(np.uint8)
            for gamma in (0.0, 0.7, -3.1, 1e3):
                st = apply_phase(codes, gamma, amps.copy())
                assert np.array_equal(bits(st),
                                      bits(exp_phase(codes, gamma, amps)))


def test_apply_phase_on_a_localmaxcut_diagonal():
    g = make_named("HEAWOOD")
    codes = satisfied_counts(g)
    assert codes.dtype == np.uint8 and codes.max() <= g.n
    amps = uniform(g.n)
    st = apply_phase(codes, 2.2, uniform(g.n))
    assert np.array_equal(bits(st), bits(exp_phase(codes, 2.2, amps)))


def test_satisfied_counts_hold_a_block_beside_the_codes():
    # at 18 qubits the codes take 256 KiB and the count holds its bit
    # rows, n bytes a state, and a few rows of BLOCK states beside them;
    # an int64 index over every state would take 2 MiB
    g = make_cycle(18)
    peak, codes = traced_peak(lambda: satisfied_counts(g))
    assert peak < codes.nbytes + (g.n + 32) * BLOCK


def counted_state_by_state(g):
    """The satisfied vertices of every basis state x, from the neighbour
    rows: v's cut edges are the neighbours u with bit u of x not bit v."""
    d = g.degree
    x = np.arange(2 ** g.n)
    count = np.zeros(2 ** g.n, dtype=np.int64)
    for v, row in enumerate(g.neighbours.tolist()):
        cut = sum((x >> v ^ x >> u) & 1 for u in row)
        count += cut >= d - d // 2
    return count


@pytest.mark.parametrize("block, graph", [
    (16, lambda: make_named("PETERSEN")), (16, lambda: make_cycle(10)),
    (BLOCK, lambda: make_random_regular(18, 3, min_girth=4, seed=38))],
    ids=["PETERSEN-block16", "cycle10-block16", "random18"])
def test_satisfied_counts_across_blocks(monkeypatch, block, graph):
    # the first half is counted a block at a time (32 blocks of 16 states
    # at 10 qubits, 8 of BLOCK at 18) and the second half is its reversed
    # copy; both halves agree with a count of each state on its own
    monkeypatch.setattr(hamiltonian, "BLOCK", block)
    g = graph()
    codes = satisfied_counts(g)
    half = 2 ** (g.n - 1)
    assert codes.dtype == np.uint8 and codes.shape == (2 ** g.n,)
    assert np.array_equal(codes, counted_state_by_state(g))
    assert np.array_equal(codes[half:], codes[:half][::-1])


def test_route_reads_only_the_first_half_of_the_codes():
    # satisfied_counts makes the second half as the first half reversed,
    # which the route never reads: 255 there moves no bit of F or Z
    rng = np.random.default_rng(38)
    for g in (make_cycle(5), make_named("K4"), make_named("PETERSEN"),
              make_named("HEAWOOD")):
        codes = satisfied_counts(g)
        spoiled = codes.copy()
        spoiled[2 ** (g.n - 1):] = 255
        Ks = [m for m, _ in build_localmaxcut_hamiltonian(g).nonconstant_terms()]
        for pairs in (1, 3):
            gammas, betas = rng.uniform((-4.0, -4.0), (4.0, 4.0),
                                        size=(pairs, 2)).T
            F, Z = qaoa_values_sv(codes, Ks, gammas, betas)
            F1, Z1 = qaoa_values_sv(spoiled, Ks, gammas, betas)
            assert np.array_equal(bits(F), bits(F1))
            assert np.array_equal(bits(Z), bits(Z1))


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
    # one exponential per level and sample, gathered through the codes.
    # A batch on 0 qubits is left out: numpy's in-place complex multiply
    # rounds a lone entry differently from a row of entries (see
    # exp_phase), and a graph always has a vertex
    rng = np.random.default_rng(8)
    for n, samples, amps in batches(sizes, rng):
        if n == 0 and samples > 1:
            continue
        gammas = rng.uniform(-4.0, 4.0, size=samples)
        codes = rng.integers(0, n + 1, size=2 ** n).astype(np.uint8)
        st = apply_phase(codes, gammas, amps.copy())
        for j in range(samples):
            assert np.array_equal(
                bits(st[:, j]), bits(exp_phase(codes, gammas[j], amps[:, j])))


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
    codes = (np.arange(2 ** n) % (n + 1)).astype(np.uint8)
    for qubits, angle in ((n, 0.3), (n - 2, np.full(4, 0.3))):
        amps = uniform(qubits, *np.shape(angle))
        probs = np.abs(amps) ** 2
        mixer, _ = traced_peak(lambda: apply_mixer(angle, amps))
        top, _ = traced_peak(lambda: statevector._mix_top(angle, amps))
        phase, _ = traced_peak(
            lambda: apply_phase(codes[:2 ** qubits], angle, amps))
        transform, _ = traced_peak(lambda: walsh_transform(probs))
        assert mixer < 0.5 * amps.nbytes
        assert top < 0.5 * amps.nbytes
        assert phase < 0.5 * amps.nbytes
        assert transform < 1.5 * probs.nbytes


def test_route_readout_holds_the_rows_and_half_as_much_again():
    # at 18 qubits the rows of |amp|^2 over the whole state would take
    # 2 MiB.  The route drops the half state once |amp|^2 is taken and
    # transforms the half rows in place: it peaks at 1.5 times the whole
    # rows (the half state and half the rows, then the half rows and
    # their transform), and F's einsum casts the codes a buffer at a
    # time.  Squaring into a second array, keeping the state and
    # transforming a copy took it to 3.2 times
    n = 18
    levels = np.arange(2 ** n) % (n + 1)
    codes = np.minimum(levels, levels[::-1]).astype(np.uint8)
    angles = np.full(1, 0.3), np.full(1, 0.2)
    peak, _ = traced_peak(
        lambda: qaoa_values_sv(codes, [1, 3, 2 ** n - 1], *angles))
    assert peak < 1.6 * 8 * 2 ** n


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
        codes = satisfied_counts(make_named(name))
        gammas, betas = rng.uniform((0.0, 0.0), (2 * math.pi, math.pi),
                                    size=(50, 2)).T
        F, Z = qaoa_values_sv(codes, Ks, gammas, betas)
        assert Z.shape == (len(Ks), 50)
        for j in range(50):
            F1, Z1 = qaoa_values_sv(codes, Ks, gammas[j:j + 1],
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
    codes = satisfied_counts(make_named("PETERSEN"))
    angles = np.linspace(0.1, 2.0, 20), np.linspace(0.3, 1.5, 20)
    F, Z = qaoa_values_sv(codes, (), *angles)
    assert calls == [] and F.shape == (20,) and Z.shape == (0, 20)
    qaoa_values_sv(codes, [0b11], *angles)  # one transform per batch
    # half-length rows: PETERSEN's codes read the same backwards
    assert calls == [(2 ** 9, 16), (2 ** 9, 4)]


def test_route_simulates_half_a_mirrored_state(monkeypatch):
    # a count of satisfied vertices reads the same backwards, so the
    # mixer sees the first half of the state
    lengths = []
    mixer = statevector.apply_mixer

    def recorded(beta, state):
        lengths.append(len(state))
        return mixer(beta, state)

    monkeypatch.setattr(statevector, "apply_mixer", recorded)
    codes = satisfied_counts(make_named("PETERSEN"))
    assert np.array_equal(codes, codes[::-1])
    qaoa_values_sv(codes, (), np.full(1, 0.3), np.full(1, 0.2))
    assert lengths == [2 ** 9]


def full_state_values(codes, Ks, gammas, betas):
    """(F, Z) of one batch by the gates on the whole state, read as the
    route reads them: F is twice the einsum over the first half of the
    rows and of the codes."""
    n = len(codes).bit_length() - 1
    state = apply_mixer(betas, apply_phase(codes, gammas,
                                           uniform(n, len(gammas))))
    probs = np.abs(state.T, order="C") ** 2
    half = 2 ** (n - 1)
    F = 2 * np.einsum("si,i->s", probs[:, :half], codes[:half])
    return F, walsh_transform(probs.T)[list(Ks)]


def test_half_state_route_is_the_full_state_gates():
    # on codes that read the same backwards the route simulates half the
    # state; F and Z keep the bits of the gates on the whole state, at
    # one pair and at a batch
    rng = np.random.default_rng(12)
    for n in range(2, 13):
        levels = rng.integers(0, n + 1, size=2 ** n)
        codes = [np.maximum(levels, levels[::-1]).astype(np.uint8)]
        if n >= 3:
            codes.append(satisfied_counts(make_cycle(n)))
        Ks = [0, 1, 2 ** n - 1, int(rng.integers(0, 2 ** n))]
        for code in codes:
            for pairs in (1, min(3, BLOCK >> n)):
                gammas, betas = rng.uniform((-4.0, -4.0), (4.0, 4.0),
                                            size=(pairs, 2)).T
                F, Z = qaoa_values_sv(code, Ks, gammas, betas)
                F1, Z1 = full_state_values(code, Ks, gammas, betas)
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
        codes = satisfied_counts(g)
        Ks = (range(2 ** n) if n <= 10 else
              [0, 1, 3, 2 ** n - 1, 2 ** n - 2, *rng.integers(0, 2 ** n, 60)])
        for pairs in (1, 3):
            gammas, betas = rng.uniform((-4.0, -4.0), (4.0, 4.0),
                                        size=(pairs, 2)).T
            F, Z = qaoa_values_sv(codes, Ks, gammas, betas)
            F1, Z1 = full_state_values(codes, Ks, gammas, betas)
            assert np.array_equal(bits(F), bits(F1))
            assert np.array_equal(bits(Z), bits(Z1))
            odd = [i for i, K in enumerate(Ks) if int(K).bit_count() % 2]
            assert np.array_equal(bits(Z[odd]),
                                  bits(np.zeros((len(odd), pairs))))
