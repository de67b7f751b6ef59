"""Amplitude amplification and the unknown-solution-count search schedule.

The diffusion operator is emitted as H^n . (phase flip on |0...0>) . H^n over
the candidate register. With this convention the operator equals
``I - 2|s><s|`` (|s> the uniform state), i.e. amplitudes map to
``a_i - 2<a>``, the textbook inversion about average times a global -1.
All observable quantities (magnitudes, relative phases, probabilities) are
unaffected; tests compare exactly those.

``boyer_search`` implements the search loop of Boyer, Brassard, Hoyer and
Tapp (arXiv:quant-ph/9605034) for the case where the number of marked items
is unknown: the cutoff m starts at 1, each step draws the iteration count j
uniformly below m, and every failed measurement grows m by a factor 6/5,
capped at sqrt(N).

The search needs only the oracle's phase pattern. Every oracle stage is a
permutation circuit, so its effect on basis states is an integer map. Once
per instance, ``prepare_frame`` writes the frame (every q value with the
kickback at 0 and at 1) as bit planes and pushes them through the
threshold-independent compute stage. A round's ``OracleCircuit`` is that
frame plus the round's ``mark``, and ``oracle_marks`` pushes the frame's
images through ``mark`` only, reads the marked set off them and checks the
uncompute (``inverse(prepare)``) exactly, by big-int XOR/OR over the
planes. Nothing here caches a circuit: the uncompute is built, uncached,
only to name the basis states of a failed check. A Grover iteration is a sign flip on the marked set followed by
``a - 2 mean(a)``, so after j iterations, with sin^2(theta) = M/N for M
marked of N, every marked candidate holds (-1)^j sin((2j+1) theta)/sqrt(M)
and every other one (-1)^j cos((2j+1) theta)/sqrt(N-M) (BBHT's closed
form). A measurement is one uniform draw and a bisection over the frame,
counting the round's 2M marked entries below each probe. Nothing here holds
a state vector; the tests check this path against a gate-by-gate engine.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, NamedTuple

import numpy as np

from .arithmetic import RegisterRef
from .statevector import (
    Gate,
    IntegrityError,
    cphase_flip_zero,
    h,
    inverse,
    permute_planes,
)


class BoyerStep(NamedTuple):
    """One measurement of the schedule: cutoff, draw, outcome."""

    m: float
    j: int
    candidate: int
    passed: bool


class BoyerResult(NamedTuple):
    found: int | None
    steps: tuple[BoyerStep, ...]
    iterations_applied: int

    @property
    def exhausted(self) -> bool:
        return self.found is None


def build_diffusion(q: RegisterRef) -> tuple[Gate, ...]:
    """Inversion about average over the q register (global phase -1)."""
    hs = tuple(h(bit) for bit in q.bits)
    return hs + (cphase_flip_zero(q.bits),) + hs


def iteration_count(n_items: int, n_solutions: int) -> int:
    """ceil((pi/4) * sqrt(N/M)) Grover iterations for M known solutions."""
    if n_items < 1:
        raise ValueError(f"need at least one item, got {n_items}")
    if n_solutions < 1:
        raise ValueError(
            f"solution count must be >= 1 (got {n_solutions}); "
            "use the unknown-count schedule when M is unknown"
        )
    if n_solutions > n_items:
        raise ValueError(f"M={n_solutions} exceeds N={n_items}")
    return math.ceil(math.pi / 4.0 * math.sqrt(n_items / n_solutions))


class PreparedFrame(NamedTuple):
    """The oracle frame pushed through the compute stage, once per instance.

    The frame is 2N basis states for N candidates: entry i < N is q value i
    with the kickback qubit at 0, entry N + i is q value i with it at 1, and
    every other qubit is 0. ``planes`` holds ``prepare``'s image of the
    frame as bit planes (see ``statevector.permute_planes``), one 2N-bit int
    per qubit: P0 in the low N bits, P1 in the high N.
    """

    prepare: tuple[Gate, ...]
    q_register: RegisterRef
    kickback_qubit: int
    planes: tuple[int, ...]

    @property
    def candidates(self) -> int:
        return 1 << self.q_register.width

    @property
    def num_qubits(self) -> int:
        return len(self.planes)

    def column(self, register: RegisterRef) -> np.ndarray:
        """Unsigned value of ``register`` in P0, in q-value order.

        int64 for a register of up to 62 bits; Python ints in an object
        array from 63 bits on, so any width reads exactly.
        """
        n, bits = self.candidates, register.bits
        if register.width < 63:
            value = np.zeros(n, dtype=np.int64)
            for t, k in enumerate(bits):
                value |= _plane_bits(self.planes[k], n).astype(np.int64) << t
            return value
        # Row t holds bit t of every entry, so byte b of entry i's
        # little-endian value is column i of packed row b.
        rows = np.array([_plane_bits(self.planes[k], n) for k in bits])
        packed = np.packbits(rows, axis=0, bitorder="little").T.tobytes()
        size = len(packed) // n
        return np.array(
            [int.from_bytes(packed[i : i + size], "little") for i in range(0, len(packed), size)],
            dtype=object,
        )


def _plane_bits(plane: int, n: int) -> np.ndarray:
    """Bits 0 to n-1 of a bit plane as a uint8 array of 0s and 1s, bit i at i."""
    data = (plane & ((1 << n) - 1)).to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(data, np.uint8), count=n, bitorder="little")


def prepare_frame(
    prepare: tuple[Gate, ...], q_register: RegisterRef, kickback_qubit: int, num_qubits: int
) -> PreparedFrame:
    """Write the frame's bit planes in closed form and push them through ``prepare``.

    q bit b of entry i is bit b of i: blocks of 2^b zeros then 2^b ones, so
    its plane is one such pair of blocks repeated over the 2N bits, written
    by shift-doubling in O(N) bit operations. The kickback plane is the
    high N bits; every other plane is 0.
    """
    if not 0 <= kickback_qubit < num_qubits:
        raise ValueError("kickback qubit out of range")
    candidates = 1 << q_register.width
    planes = [0] * num_qubits
    for b, qubit in enumerate(q_register.bits):
        block = 1 << b
        plane, period = ((1 << block) - 1) << block, 2 * block
        while period < 2 * candidates:
            plane |= plane << period
            period *= 2
        planes[qubit] = plane
    planes[kickback_qubit] = ((1 << candidates) - 1) << candidates
    images = permute_planes(planes, prepare, 2 * candidates)
    return PreparedFrame(prepare, q_register, kickback_qubit, tuple(images))


class OracleCircuit(NamedTuple):
    """Phase oracle: the instance's compiled compute stage plus one round's mark.

    Applying ``frame.prepare``, ``mark`` and ``inverse(frame.prepare)`` to
    |i>_q (ancillas |0>, kickback |->) yields (-1)^o(i) |i>_q with ancillas
    restored: the phase-kickback contract. The uncompute is the inverse of
    prepare by construction, so it is never stored.
    """

    frame: PreparedFrame
    mark: tuple[Gate, ...]


def oracle_marks(oracle: OracleCircuit) -> np.ndarray:
    """Boolean mask over q-register values: True where the oracle flips the phase.

    The oracle's frame holds prepare's images P = (P0, P1) of every
    candidate with the kickback at 0 and at 1, computed once per instance;
    only ``mark`` runs per call: Y = mark(P). The phase-kickback contract
    is ``unprepare(mark(prepare(x))) == x ^ (b << r)`` on both kickback
    branches with the same b. The uncompute is ``inverse(prepare)``, and a
    reversed permutation circuit inverts the original on basis states, so
    it sends P back to the frame and the contract is equivalent to: where
    b = (Y0 != P0), Y equals P with its two branches swapped; elsewhere
    Y == P. Both sides are read as big-int XOR/OR over the planes. Any other
    image raises IntegrityError naming the first offending candidate and the
    basis states its two branches end in after the uncompute.
    """
    frame = oracle.frame
    n = frame.candidates
    low = (1 << n) - 1
    marked = permute_planes(frame.planes, oracle.mark, 2 * n)
    changed = swapped = 0  # bit i: entry i's image differs from P, from swapped P
    for p, y in zip(frame.planes, marked):
        changed |= p ^ y
        swapped |= ((p >> n) | ((p & low) << n)) ^ y
    flips = changed & low
    both = flips | (flips << n)
    bad = (swapped & both) | (changed & ~both)
    bad = (bad | (bad >> n)) & low
    if bad:
        candidate = (bad & -bad).bit_length() - 1
        pair = [((y >> candidate) & 1) | (((y >> (n + candidate)) & 1) << 1) for y in marked]
        image = permute_planes(pair, inverse(frame.prepare), 2)
        states = [sum(((p >> e) & 1) << k for k, p in enumerate(image)) for e in (0, 1)]
        raise IntegrityError(
            f"ancilla contamination after uncompute: q value {candidate} maps "
            f"to basis states {states[0]} and {states[1]}"
        )
    return _plane_bits(flips, n).view(bool)


def _amplitude_pair(n_marked: int, n_candidates: int, iterations: int) -> tuple[float, float]:
    """Closed-form (marked, unmarked) amplitudes; 0.0 for an empty class."""
    angle = (2 * iterations + 1) * math.asin(math.sqrt(n_marked / n_candidates))
    sign = -1.0 if iterations & 1 else 1.0
    n_unmarked = n_candidates - n_marked
    return (
        sign * math.sin(angle) / math.sqrt(n_marked) if n_marked else 0.0,
        sign * math.cos(angle) / math.sqrt(n_unmarked) if n_unmarked else 0.0,
    )


def _measure(marked: list[int], size: int, iterations: int, rng: np.random.Generator) -> int:
    """Sample a position in the frame's sorted order of ``size`` entries.

    ``marked`` lists the marked positions in ascending order. Refuses a
    total more than 1e-6 from 1 in norm. Returns the first position whose
    cumulative probability exceeds one ``rng.random()`` times the total, as
    ``Generator.choice`` does.
    """
    n_marked = len(marked) // 2
    a_marked, a_unmarked = _amplitude_pair(n_marked, size // 2, iterations)
    p_marked, p_unmarked = a_marked * a_marked / 2.0, a_unmarked * a_unmarked / 2.0
    total = 2 * n_marked * p_marked + (size - 2 * n_marked) * p_unmarked
    if abs(math.sqrt(total) - 1.0) > 1e-6:
        raise IntegrityError(f"state norm drifted to {math.sqrt(total)!r}; refusing to sample")

    def cumulative(i: int) -> float:
        below = bisect.bisect_right(marked, i)  # marked positions up to i
        return p_marked * below + p_unmarked * (i + 1 - below)

    index = bisect.bisect_right(range(size), rng.random() * total, key=cumulative)
    return min(index, size - 1)


def boyer_search(
    oracle: OracleCircuit,
    classical_check: Callable[[int], bool],
    max_steps: int,
    schedule_rng: np.random.Generator,
    measure_rng: np.random.Generator,
) -> BoyerResult:
    """Search for a candidate passing ``classical_check`` with M unknown.

    Each step draws j uniformly below the cutoff m from ``schedule_rng``,
    applies j Grover iterations to the uniform superposition, measures the
    whole register, and hands the q value to ``classical_check``. m starts
    at 1 and grows by 6/5 after each failed step, capped at sqrt(N).
    Exhaustion after ``max_steps`` measurements is a normal return, not an
    error.

    The marked set comes from ``oracle_marks`` once per call, which pushes
    the frame through ``mark`` only and raises IntegrityError unless the
    uncompute restores every ancilla exactly. A step uses the closed-form
    amplitudes (M = 0 and M = N included) and costs O(log N log M) whatever
    j is. It samples the distribution the whole register would have after j
    gate-level iterations, in sorted order of full-register indices, the
    way ``Generator.choice`` samples it from one ``random()`` draw, so a
    seeded ``measure_rng`` draws the outcomes a gate-by-gate simulation
    sampled with ``choice`` would. That order is structural: the kickback-0
    branch then the kickback-1 branch when the kickback sits above q, and
    each q value's two branches side by side when it sits below. Only the
    2M marked positions in that order are kept.
    """
    hits = np.flatnonzero(oracle_marks(oracle))
    q = oracle.frame.q_register
    n = oracle.frame.candidates
    interleaved = oracle.frame.kickback_qubit < q.offset
    if interleaved:
        marked = np.column_stack((2 * hits, 2 * hits + 1)).ravel().tolist()
    else:
        marked = np.concatenate((hits, hits + n)).tolist()
    steps: list[BoyerStep] = []
    iterations = 0
    m = 1.0
    for _ in range(max_steps):
        j = int(schedule_rng.integers(0, math.ceil(m)))
        position = _measure(marked, 2 * n, j, measure_rng)
        iterations += j
        candidate = position >> 1 if interleaved else position & (n - 1)
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m=m, j=j, candidate=candidate, passed=passed))
        if passed:
            return BoyerResult(candidate, tuple(steps), iterations)
        m = min(6 / 5 * m, math.sqrt(n))
    return BoyerResult(None, tuple(steps), iterations)
