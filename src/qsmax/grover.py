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
threshold-independent compute stage. ``oracle_marks`` pushes the frame's
images through one threshold's ``mark`` only, reads the marked set off them
and checks the uncompute (``inverse(prepare)``) exactly, by big-int XOR/OR
over the planes. The marked set is all the search reads of the oracle.
Nothing here caches a circuit: the uncompute is built, uncached, only to
name the basis states of a failed check.

A Grover iteration is a sign flip on the marked set followed by
``a - 2 mean(a)``, so after j iterations, with sin^2(theta) = M/N for M
marked of N, every marked candidate holds (-1)^j sin((2j+1) theta)/sqrt(M)
and every other one (-1)^j cos((2j+1) theta)/sqrt(N-M) (BBHT's closed
form). A measurement is one uniform draw and an exact inverse CDF over the
frame: a bisection over the 2M marked entries, then a closed-form index
into a run of unmarked ones. Nothing here holds a state vector; the tests
check this path against a gate-by-gate engine.
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
    per qubit: P0 in the low N bits, P1 in the high N. The kickback qubit
    sits above q, so this is sorted full-register order. ``columns`` reads
    registers off P0 as integer columns.
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
        """Unsigned value of ``register`` in P0, in q-value order (see ``columns``)."""
        return self.columns(register)[0]

    def columns(self, *registers: RegisterRef) -> tuple[np.ndarray, ...]:
        """Unsigned value of each register in P0, in q-value order, read in
        one pass: the planes are unpacked together into a bit matrix, and each
        register is summed in 62-bit limbs. int64 up to 62 bits; Python ints in
        an object array from 63 bits on, so any width reads exactly."""
        n = self.candidates
        planes = [self.planes[k] & ((1 << n) - 1) for register in registers for k in register.bits]
        data = np.frombuffer(b"".join(p.to_bytes((n + 7) // 8, "little") for p in planes), np.uint8)
        rows = np.unpackbits(data.reshape(len(planes), -1), axis=1, count=n, bitorder="little")
        values, stop = [], 0
        for register in registers:
            start, stop = stop, stop + register.width
            for shift in range(0, register.width, 62):
                limb_rows = rows[start + shift : min(start + shift + 62, stop)]
                limb = (1 << np.arange(len(limb_rows), dtype=np.int64)) @ limb_rows.astype(np.int64)
                value = value + (limb.astype(object) << shift) if shift else limb
            values.append(value)
        return tuple(values)


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
    high N bits; every other plane is 0. The kickback qubit must sit above
    q, so that the frame's entries are in sorted full-register order.
    """
    if not q_register.offset + q_register.width <= kickback_qubit < num_qubits:
        raise ValueError("kickback qubit out of range: it must sit above q, below num_qubits")
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


def oracle_marks(frame: PreparedFrame, mark: tuple[Gate, ...]) -> np.ndarray:
    """Boolean mask over q-register values: True where the oracle flips the phase.

    The oracle is ``frame.prepare``, ``mark`` and ``inverse(frame.prepare)``.
    ``frame`` holds prepare's images P = (P0, P1) of every candidate with
    the kickback at 0 and at 1, computed once per instance; only ``mark``
    runs per call: Y = mark(P). The phase-kickback contract is
    ``unprepare(mark(prepare(x))) == x ^ (b << r)`` on both kickback
    branches with the same b. The uncompute is ``inverse(prepare)``, and a
    reversed permutation circuit inverts the original on basis states, so
    it sends P back to the frame and the contract is equivalent to: where
    b = (Y0 != P0), Y equals P with its two branches swapped; elsewhere
    Y == P. Both sides are read as big-int XOR/OR over the planes. Any other
    image raises IntegrityError naming the first offending candidate and the
    basis states its two branches end in after the uncompute.
    """
    n = frame.candidates
    low = (1 << n) - 1
    marked = permute_planes(frame.planes, mark, 2 * n)
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


def _probabilities(n_marked: int, n_candidates: int, iterations: int) -> tuple[float, float, float]:
    """Probability of one marked and of one unmarked frame entry, and their total.

    A candidate's probability is split evenly over its two kickback
    branches, so the frame's 2N entries carry the distribution. Refuses a
    total more than 1e-6 from 1 in norm.
    """
    a_marked, a_unmarked = _amplitude_pair(n_marked, n_candidates, iterations)
    p_marked, p_unmarked = a_marked * a_marked / 2.0, a_unmarked * a_unmarked / 2.0
    total = 2 * n_marked * p_marked + (2 * n_candidates - 2 * n_marked) * p_unmarked
    if abs(math.sqrt(total) - 1.0) > 1e-6:
        raise IntegrityError(f"state norm drifted to {math.sqrt(total)!r}; refusing to sample")
    return p_marked, p_unmarked, total


def _position(marked: list[int], size: int, p_marked: float, p_unmarked: float, draw: float) -> int:
    """First position below ``size`` whose cumulative probability exceeds
    ``draw``, capped at ``size - 1``, as ``Generator.choice`` picks it.

    ``marked`` lists the marked positions in ascending order. The
    cumulative at position i is ``p_marked * below + p_unmarked * (i + 1 -
    below)``, ``below`` counting the marked positions up to i. Only the
    marked positions are bisected; the index inside the unmarked run that
    follows is guessed in closed form and checked with that same float
    expression, bisecting the run only if the guess is off.
    """
    k = 0  # marked positions whose cumulative is at most draw
    if marked:
        k = bisect.bisect_right(
            range(len(marked)), draw, key=lambda t: p_marked * (t + 1) + p_unmarked * (marked[t] - t)
        )
    # The outcome is in the unmarked run [start, end) or is end: marked[k],
    # or size past the last marked position.
    start = marked[k - 1] + 1 if k else 0
    end = marked[k] if k < len(marked) else size
    if p_unmarked and start < end:
        base = p_marked * k  # the cumulative in the run is base + p_unmarked * (i + 1 - k)
        t = (draw - base) / p_unmarked
        guess = k + int(t) if t < end else end
        guess = end if guess > end else start if guess < start else guess
        if guess < end and base + p_unmarked * (guess + 1 - k) <= draw:
            start = guess + 1
        elif guess > start and base + p_unmarked * (guess - k) > draw:
            end = guess
        else:
            start = end = guess
        if start < end:
            end = start + bisect.bisect_right(
                range(start, end), draw, key=lambda i: base + p_unmarked * (i + 1 - k)
            )
    return min(end, size - 1)


def boyer_search(
    marks: np.ndarray,
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

    ``marks`` is ``oracle_marks`` over the N = ``marks.size`` q values. A
    step uses the closed-form amplitudes (M = 0 and M = N included), whose
    probabilities and norm check are computed once per distinct j. It
    samples the distribution the whole register would have after j
    gate-level iterations, in sorted order of full-register indices, the
    way ``Generator.choice`` samples it from one ``random()`` draw, so a
    seeded ``measure_rng`` draws the outcomes a gate-by-gate simulation
    sampled with ``choice`` would. With the kickback above q
    (``prepare_frame``), that order is the kickback-0 branch then the
    kickback-1 branch, so position p is q value p mod N. Only the 2M marked
    positions in that order are kept, and a step costs O(log M) whatever j
    is, O(1) at M = 0.
    """
    hits = np.flatnonzero(marks).tolist()
    n = marks.size
    marked = hits + [h + n for h in hits]
    size, n_marked, cap = 2 * n, len(hits), math.sqrt(n)
    table: dict[int, tuple[float, float, float]] = {}
    steps: list[BoyerStep] = []
    m = 1.0
    for _ in range(max_steps):
        j = int(schedule_rng.integers(0, math.ceil(m)))
        if j not in table:
            table[j] = _probabilities(n_marked, n, j)
        p_marked, p_unmarked, total = table[j]
        position = _position(marked, size, p_marked, p_unmarked, measure_rng.random() * total)
        candidate = position & (n - 1)
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m, j, candidate, passed))
        if passed:
            return BoyerResult(candidate, tuple(steps))
        m = min(6 / 5 * m, cap)
    return BoyerResult(None, tuple(steps))
