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
one route through the gates, for `cli.verify` and the demos alike: it
takes the diagonal as `satisfied_counts`, the number of locally
satisfied vertices of each basis state, counted from the graph and not
from its Hamiltonian, so verify's two sides do not share the build of
H.  It runs angle pairs in batches of up to `hamiltonian.BLOCK` elements
(the one element budget), so each gate's numpy calls serve every sample
of a small state.

Each gate costs its arithmetic and keeps the elementwise operations, in
their order, of the plain loop over the whole array, so every amplitude
has the same bits as there:

- the mixer is one 2x2 rotation per qubit on the pairs of amplitudes
  that differ in its bit, in place in `hamiltonian.pair_walk`'s views
  (the Walsh transform's walk, at most two blocks beside a state);
- the phase gate takes exp(-i gamma c) once per integer c up to the
  largest code and sample, and gathers it through the codes a block at
  a time.

A count of satisfied vertices depends only on which edges are cut, so
its value at x equals its value at the complement ~x = 2^n - 1 - x, and
the codes read the same backwards: `satisfied_counts` counts the first
half, x < 2^(n-1), and makes the second half its reversed copy.  The
uniform start and the mixer commute with flipping every qubit, so
amp(x) = amp(~x) at every step, bit for bit, and the route simulates
only the first half of the state, x < 2^(n-1): the lower n - 1 qubits
as on the whole state, and the top qubit by pairing x with
2^(n-1) - 1 - x, the complement of its partner x + 2^(n-1).  F is twice
the half's |amp|^2 rows against the codes' first half, and the Walsh
transform runs on the half's rows alone: the full-length one is twice it
at K & (2^(n-1) - 1) for even |K| and +0.0 for odd |K|, bit for bit.  On
the twelve fixture graphs of the verify benchmark, 50 pairs each, the
half took 67 ms against 99 ms on whole states (2-CPU Xeon, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

from . import hamiltonian
from .hamiltonian import _butterflies, block_entries, pair_walk

MAX_QUBITS = 26  # 2^26 complex doubles = 1 GiB


def satisfied_counts(g) -> np.ndarray:
    """The number of locally satisfied vertices of each basis state of
    the regular graph g, as uint8 codes in basis order.

    Vertex v is satisfied when its count of cut edges c is at least
    d - floor(d/2), Monte Carlo's rule.  A count depends only on which
    edges are cut, and the complement 2^n - 1 - x cuts the same edges as
    x, so only the first half, x < 2^(n-1), is counted and the second
    half is its reversed copy.  The states of the first half go a power
    of two of at most BLOCK at a time, with one uint8 row of bits per
    vertex: the rows of the bits below the block size are the same in
    every block, and the others are constant in it.  Each vertex sums its
    d XORs with its neighbour rows.  A graph over MAX_QUBITS or not
    regular is refused before anything is allocated."""
    n, d = g.n, g.degree
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the {MAX_QUBITS}-qubit "
                         "statevector cap")
    if d is None:
        raise ValueError("graph is not regular")
    size, half = 2 ** n, 2 ** (n - 1)  # a regular graph has a vertex
    step = 1 << (min(half, hamiltonian.BLOCK).bit_length() - 1)
    low = step.bit_length() - 1
    bits = np.empty((n, step), dtype=np.uint8)  # bit v of each state
    index = np.arange(step)
    for v in range(low):
        bits[v] = index >> v & 1
    high = np.arange(low, n)
    codes = np.empty(size, dtype=np.uint8)
    cut, flip = np.empty((2, step), dtype=np.uint8)
    rows = g.neighbours.tolist()
    for start in range(0, half, step):
        bits[low:] = (start >> high & 1)[:, None]
        count = codes[start:start + step]
        count[:] = 0
        for v, row in enumerate(rows):
            cut[:] = 0
            for u in row:
                np.bitwise_xor(bits[v], bits[u], out=flip)
                cut += flip
            count += cut >= d - d // 2
    codes[half:] = codes[half - 1::-1]
    return codes


def apply_phase(codes: np.ndarray, gamma, state: np.ndarray) -> np.ndarray:
    """Apply exp(-i gamma H) for the integer diagonal `codes`: scale
    amplitude x by exp(-i gamma codes[x]).  gamma is one angle, or one
    per sample of a batch."""
    if len(codes) != len(state):
        raise ValueError(f"{len(codes)} diagonal values, state of "
                         f"{len(state)} amplitudes")
    levels = np.arange(int(codes.max()) + 1, dtype=float)
    factors = np.exp(np.multiply.outer(levels, -1j * gamma))
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


def qaoa_values_sv(codes: np.ndarray, Ks, gammas, betas):
    """(F, Z) by direct simulation of U_M U_C |s> at each pair of the 1-D
    angle arrays, for the integer diagonal `codes` of `satisfied_counts`:
    F the values <H>, and Z, one row per K of `Ks`, the values <Z_K>.

    The codes read the same backwards, so amp(x) equals amp(2^n - 1 - x)
    and only the first half of each state, x < 2^(n-1), is simulated: the
    phase reads the first half of the codes, the mixer runs qubits
    0..n-2 on it, and `_mix_top` pairs x with 2^(n-1) - 1 - x on the top
    qubit.  A regular graph with an edge has n >= 2.

    The pairs run in batches of S = min(pairs left, BLOCK >> n), at
    least one, as one (2^(n-1), S) half state from the uniform amplitude
    2^{-n/2}.  Its |amp|^2 is taken once, a contiguous row per sample,
    and the state is dropped before the rows are squared in place.  F is
    twice one einsum of the rows with the codes' first half, which numpy
    casts a buffer at a time, with no float copy of the codes, and sums
    in an order that no BLAS thread count moves; a BLAS dot splits across
    threads, which moves its last bits, and 2,000 dots of 16k entries
    took 1.04 s on two threads against 9.3 ms on one (2-CPU Xeon,
    OpenBLAS 0.3.31).  F does not rest on Z, which is the Walsh
    butterflies run in place on the rows as columns (a copy only when
    S > 1), n - 1 qubits, taken only when `Ks` is not empty.  Each
    butterfly gives the reversed half the half's values times (-1)^|K|
    exactly (lo and hi swap, and (-a) + b = -((-b) + a)), and none gives
    -0.0, so the top qubit's butterfly would add a value to itself or to
    its negation: Z is twice the half's value at K & (2^(n-1) - 1) for
    even |K| and +0.0 for odd |K|, the bits of the full-length transform.
    At 20 qubits one pair holds 12 MiB beside its codes: the half state
    and half the rows."""
    n = len(codes).bit_length() - 1
    if n < 2:
        raise ValueError(f"{len(codes)} codes: the route needs 2 qubits")
    half = 2 ** (n - 1)
    codes = codes[:half]
    keys = np.array(Ks, dtype=np.int64)
    even = (np.bitwise_count(keys) % 2 == 0)[:, None]
    keys &= half - 1
    F, Z = np.empty(len(gammas)), np.empty((len(keys), len(gammas)))
    width = max(1, min(len(gammas), hamiltonian.BLOCK >> n))
    for at in range(0, len(gammas), width):
        batch = slice(at, at + width)
        state = np.full((half, len(gammas[batch])), 2.0 ** (-n / 2),
                        dtype=complex)
        apply_mixer(betas[batch], apply_phase(codes, gammas[batch], state))
        _mix_top(betas[batch], state)
        probs = np.abs(state.T, order="C")  # a row per sample
        del state
        probs **= 2
        F[batch] = 2 * np.einsum("si,i->s", probs, codes)
        if len(keys):
            walsh = _butterflies(np.ascontiguousarray(probs.T))[keys]
            Z[:, batch] = np.where(even, 2 * walsh, 0.0)
        del probs  # before the next batch's state
    return F, Z
