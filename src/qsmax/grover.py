"""Amplitude amplification and the unknown-solution-count search schedule.

The diffusion operator is emitted as H^n . (phase flip on |0...0>) . H^n over
the candidate register. With this convention the operator equals
``I - 2|s><s|`` (|s> the uniform state), i.e. amplitudes map to
``a_i - 2<a>``, the textbook inversion about average times a global -1.
All observable quantities (magnitudes, relative phases, probabilities) are
unaffected; tests compare exactly those.

``boyer_search`` implements the search loop of Boyer, Brassard, Hoyer and
Tapp (arXiv:quant-ph/9605034) for the case where the number of marked items
is unknown: grow a cutoff m by a factor 6/5 after every failed measurement,
draw the iteration count j uniformly below m, and cap m at sqrt(N).

The search needs only the oracle's phase pattern. Every oracle stage is a
permutation circuit, so its effect on basis states is an integer map. Once
per instance, ``prepare_frame`` writes the frame (every q value with the
kickback at 0 and at 1) as bit planes and pushes them through the
threshold-independent compute stage. Per round, ``oracle_marks`` pushes
those images through ``mark`` only, reads the marked set off them and
checks the uncompute exactly, by big-int XOR/OR over the planes. A Grover
iteration is a sign flip on the marked set followed by ``a - 2 mean(a)``,
so after j iterations, with sin^2(theta) = M/N for M marked of N, every
marked candidate holds (-1)^j sin((2j+1) theta)/sqrt(M) and every other
one (-1)^j cos((2j+1) theta)/sqrt(N-M) (BBHT's closed form). A measurement
is one uniform draw and a bisection over the round's prefix counts of
marked entries. Nothing here holds a state vector; the tests check this
path against a gate-by-gate engine.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arithmetic import RegisterRef
from .statevector import (
    GateSequence,
    IntegrityError,
    cphase_flip_zero,
    h,
    permute_planes,
)


@dataclass(frozen=True, slots=True)
class OracleCircuit:
    """Phase oracle split into compute / mark / uncompute stages.

    Applying prepare, mark, unprepare to |i>_q (ancillas |0>, kickback |->)
    yields (-1)^o(i) |i>_q with ancillas restored: the phase-kickback
    contract. ``unprepare`` must be the exact reverse of ``prepare``.
    """

    prepare: GateSequence
    mark: GateSequence
    unprepare: GateSequence
    q_register: RegisterRef
    kickback_qubit: int
    num_qubits: int

    def __post_init__(self) -> None:
        if self.unprepare.gates != self.prepare.reverse().gates:
            raise ValueError("unprepare is not the reverse of prepare")
        if not 0 <= self.kickback_qubit < self.num_qubits:
            raise ValueError("kickback qubit out of range")

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        """Every qubit that is neither a candidate bit nor the kickback."""
        q_bits = set(self.q_register.bits)
        return tuple(
            q
            for q in range(self.num_qubits)
            if q not in q_bits and q != self.kickback_qubit
        )


@dataclass(slots=True)
class BoyerSchedule:
    """Mutable cutoff state for one unknown-count search.

    ``m`` starts at 1 and grows by ``lam`` (6/5 unless configured otherwise)
    after each failed measurement, never exceeding ``sqrt_n_cap``.
    """

    sqrt_n_cap: float
    rng: np.random.Generator
    m: float = 1.0
    lam: float = 6 / 5

    def draw_iterations(self) -> int:
        """Random integer j in [0, ceil(m))."""
        return int(self.rng.integers(0, math.ceil(self.m)))

    def grow(self) -> None:
        self.m = min(self.lam * self.m, self.sqrt_n_cap)


@dataclass(frozen=True, slots=True)
class BoyerStep:
    """One measurement of the schedule: cutoff, draw, outcome."""

    m: float
    j: int
    candidate: int
    passed: bool


@dataclass(frozen=True, slots=True)
class BoyerResult:
    found: int | None
    steps: tuple[BoyerStep, ...]
    iterations_applied: int

    @property
    def exhausted(self) -> bool:
        return self.found is None


def build_diffusion(q: RegisterRef) -> GateSequence:
    """Inversion about average over the q register (global phase -1)."""
    hs = [h(bit) for bit in q.bits]
    return GateSequence(hs) + [cphase_flip_zero(q.bits)] + hs


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


@dataclass(frozen=True, slots=True)
class PreparedFrame:
    """The oracle frame pushed through the compute stage, once per instance.

    The frame is 2N basis states for N candidates: entry i < N is q value i
    with the kickback qubit at 0, entry N + i is q value i with it at 1, and
    every other qubit is 0. ``planes`` holds ``prepare``'s image of the
    frame as bit planes (see ``statevector.permute_planes``), one 2N-bit int
    per qubit: P0 in the low N bits, P1 in the high N. The planes belong to
    this ``prepare`` object.
    """

    prepare: GateSequence
    planes: tuple[int, ...]
    candidates: int

    def column(self, register: RegisterRef) -> np.ndarray:
        """Unsigned value of ``register`` in P0, in q-value order.

        int64 for a register of up to 62 bits; Python ints in an object
        array from 63 bits on, so any width reads exactly.
        """
        n, width, low = self.candidates, register.width, (1 << self.candidates) - 1
        text = "".join(f"{self.planes[k] & low:0{n}b}" for k in register.bits)
        # Row t: bit t of every entry's value, as the digits "0" and "1".
        digits = np.frombuffer(text.encode(), np.uint8).reshape(width, n)[:, ::-1]
        if width < 63:
            return ((digits - ord("0")).astype(np.int64) << np.arange(width)[:, None]).sum(axis=0)
        return np.array([int(row.tobytes(), 2) for row in digits[::-1].T], dtype=object)


def prepare_frame(
    prepare: GateSequence, q_register: RegisterRef, kickback_qubit: int, num_qubits: int
) -> PreparedFrame:
    """Write the frame's bit planes in closed form and push them through ``prepare``.

    q bit b of entry i is bit b of i: blocks of 2^b zeros then 2^b ones, so
    its plane is the all-ones plane divided by 2^(2^(b+1)) - 1, which
    repeats a 1 every 2^(b+1) bits, times one block. The kickback plane is
    the high N bits; every other plane is 0.
    """
    candidates = 1 << q_register.width
    ones = (1 << 2 * candidates) - 1
    planes = [0] * num_qubits
    for b, qubit in enumerate(q_register.bits):
        block = 1 << b
        planes[qubit] = ones // ((1 << 2 * block) - 1) * (((1 << block) - 1) << block)
    planes[kickback_qubit] = ones >> candidates << candidates
    images = permute_planes(planes, prepare, 2 * candidates)
    return PreparedFrame(prepare, tuple(images), candidates)


def _frame_for(oracle: OracleCircuit, frame: PreparedFrame | None) -> PreparedFrame:
    """``frame`` if it was computed from the oracle's ``prepare``, a new one if None."""
    if frame is None:
        return prepare_frame(
            oracle.prepare, oracle.q_register, oracle.kickback_qubit, oracle.num_qubits
        )
    if frame.prepare is not oracle.prepare:
        raise ValueError("frame was computed from another prepare object")
    return frame


def oracle_marks(oracle: OracleCircuit, frame: PreparedFrame | None = None) -> np.ndarray:
    """Boolean mask over q-register values: True where the oracle flips the phase.

    ``frame`` holds prepare's images P = (P0, P1) of every candidate with
    the kickback at 0 and at 1, computed once per instance by
    ``prepare_frame`` from this oracle's ``prepare`` object (ValueError
    otherwise); without it they are computed here. Only ``mark`` runs per
    call: Y = mark(P). The phase-kickback contract is
    ``unprepare(mark(prepare(x))) == x ^ (b << r)`` on both kickback
    branches with the same b. ``OracleCircuit`` requires ``unprepare`` to be
    ``prepare.reverse()`` gate for gate, and a reversed permutation circuit
    inverts the original on basis states, so unprepare sends P back to the
    frame and the contract is equivalent to: where b = (Y0 != P0), Y equals
    P with its two branches swapped; elsewhere Y == P. Both sides are read
    as big-int XOR/OR over the planes. Any other image raises IntegrityError
    naming the first offending candidate and the basis states its two
    branches end in after ``unprepare``.
    """
    frame = _frame_for(oracle, frame)
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
        image = permute_planes(pair, oracle.unprepare, 2)
        states = [sum(((p >> e) & 1) << k for k, p in enumerate(image)) for e in (0, 1)]
        raise IntegrityError(
            f"ancilla contamination after uncompute: q value {candidate} maps "
            f"to basis states {states[0]} and {states[1]}"
        )
    return np.frombuffer(f"{flips:0{n}b}".encode(), np.uint8)[::-1] == ord("1")


def _amplitude_pair(n_marked: int, n_candidates: int, iterations: int) -> tuple[float, float]:
    """Closed-form (marked, unmarked) amplitudes; 0.0 for an empty class."""
    angle = (2 * iterations + 1) * math.asin(math.sqrt(n_marked / n_candidates))
    sign = -1.0 if iterations & 1 else 1.0
    n_unmarked = n_candidates - n_marked
    return (
        sign * math.sin(angle) / math.sqrt(n_marked) if n_marked else 0.0,
        sign * math.cos(angle) / math.sqrt(n_unmarked) if n_unmarked else 0.0,
    )


def _measure(marked_prefix: list[int], iterations: int, rng: np.random.Generator) -> int:
    """Sample a position in the frame's sorted order, ``marked_prefix[i]`` marked up to i.

    Refuses a total more than 1e-6 from 1 in norm. Returns the first
    position whose cumulative probability exceeds one ``rng.random()``
    times the total, as ``Generator.choice`` does.
    """
    size, n_marked = len(marked_prefix), marked_prefix[-1] // 2
    a_marked, a_unmarked = _amplitude_pair(n_marked, size // 2, iterations)
    p_marked, p_unmarked = a_marked * a_marked / 2.0, a_unmarked * a_unmarked / 2.0
    total = 2 * n_marked * p_marked + (size - 2 * n_marked) * p_unmarked
    if abs(math.sqrt(total) - 1.0) > 1e-6:
        raise IntegrityError(f"state norm drifted to {math.sqrt(total)!r}; refusing to sample")
    index = bisect.bisect_right(
        range(size),
        rng.random() * total,
        key=lambda i: p_marked * marked_prefix[i] + p_unmarked * (i + 1 - marked_prefix[i]),
    )
    return min(index, size - 1)


def boyer_search(
    oracle: OracleCircuit,
    classical_check: Callable[[int], bool],
    schedule: BoyerSchedule,
    max_steps: int,
    measure_rng: np.random.Generator,
    *,
    frame: PreparedFrame | None = None,
) -> BoyerResult:
    """Search for a candidate passing ``classical_check`` with M unknown.

    Each step draws j below the cutoff, applies j Grover iterations to the
    uniform superposition, measures the whole register, and hands the q
    value to ``classical_check``. Exhaustion after ``max_steps``
    measurements is a normal return, not an error.

    The marked set comes from ``oracle_marks`` once per call, which raises
    IntegrityError unless the uncompute restores every ancilla exactly. Pass
    the instance's ``frame`` so that only ``mark`` runs here; without it
    the compute stage runs too. A step uses the closed-form amplitudes
    (M = 0 and M = N included) and costs O(log N) whatever j is. It samples
    the distribution the whole register would have after j gate-level
    iterations, in sorted order of full-register indices, the way
    ``Generator.choice`` samples it from one ``random()`` draw, so a seeded
    ``measure_rng`` draws the outcomes a gate-by-gate simulation sampled
    with ``choice`` would. That order is structural: the kickback-0 branch
    then the kickback-1 branch when the kickback sits above q, and each q
    value's two branches side by side when it sits below.
    """
    frame = _frame_for(oracle, frame)
    marks = oracle_marks(oracle, frame)
    q = oracle.q_register
    interleaved = oracle.kickback_qubit < q.offset
    marked_prefix = np.cumsum(np.repeat(marks, 2) if interleaved else np.tile(marks, 2)).tolist()
    q_mask = (1 << q.width) - 1
    steps: list[BoyerStep] = []
    iterations = 0
    for _ in range(max_steps):
        m_now = schedule.m
        j = schedule.draw_iterations()
        position = _measure(marked_prefix, j, measure_rng)
        iterations += j
        candidate = position >> 1 if interleaved else position & q_mask
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m=m_now, j=j, candidate=candidate, passed=passed))
        if passed:
            return BoyerResult(candidate, tuple(steps), iterations)
        schedule.grow()
    return BoyerResult(None, tuple(steps), iterations)
