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
per instance, ``prepare_frame`` pushes the frame (every q value with the
kickback at 0 and at 1) through the threshold-independent compute stage.
Per round, ``oracle_marks`` pushes those images through ``mark`` only,
reads the marked set off them and checks the uncompute exactly. A Grover
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
    check_index_width,
    cphase_flip_zero,
    h,
    permute_indices,
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

    The frame is every q value with the kickback qubit at 0, then every q
    value with it at 1, all other qubits 0. ``images`` holds ``prepare``'s
    image of each, in that order (P0 then P1). ``order`` sorts the frame's
    full-register indices into ``sorted_basis``, the order in which
    measurement samples. The images belong to this ``prepare`` object.
    """

    prepare: GateSequence
    images: np.ndarray
    sorted_basis: np.ndarray
    order: np.ndarray


def prepare_frame(
    prepare: GateSequence, q_register: RegisterRef, kickback_qubit: int, num_qubits: int
) -> PreparedFrame:
    """Push the frame through ``prepare`` as one int64 index map.

    Raises CapacityError above ``MAX_INDEX_QUBITS`` qubits.
    """
    check_index_width(num_qubits)
    register = np.arange(1 << q_register.width, dtype=np.int64) << q_register.offset
    basis = np.concatenate((register, register | (1 << kickback_qubit)))
    order = np.argsort(basis)
    return PreparedFrame(
        prepare=prepare,
        images=permute_indices(basis, prepare),
        sorted_basis=basis[order],
        order=order,
    )


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
    inverts the original on basis indices, so unprepare sends P back to the
    frame and the contract is equivalent to: where b = (Y0 != P0), Y0 == P1
    and Y1 == P0; elsewhere Y1 == P1. Any other image raises IntegrityError
    naming the first offending candidate and the basis states its two
    branches end in after ``unprepare``. Raises CapacityError above
    ``MAX_INDEX_QUBITS`` qubits.
    """
    frame = _frame_for(oracle, frame)
    marked = permute_indices(frame.images, oracle.mark)
    half = frame.images.size // 2
    p0, p1 = frame.images[:half], frame.images[half:]
    y0, y1 = marked[:half], marked[half:]
    flips = y0 != p0
    bad = np.flatnonzero(np.where(flips, (y0 != p1) | (y1 != p0), y1 != p1))
    if bad.size:
        candidate = int(bad[0])
        image = permute_indices(marked[[candidate, candidate + p0.size]], oracle.unprepare)
        raise IntegrityError(
            f"ancilla contamination after uncompute: q value {candidate} maps "
            f"to basis states {int(image[0])} and {int(image[1])}"
        )
    return flips


def _amplitude_pair(n_marked: int, n_candidates: int, iterations: int) -> tuple[float, float]:
    """Closed-form (marked, unmarked) amplitudes; 0.0 for an empty class."""
    angle = (2 * iterations + 1) * math.asin(math.sqrt(n_marked / n_candidates))
    sign = -1.0 if iterations & 1 else 1.0
    n_unmarked = n_candidates - n_marked
    return (
        sign * math.sin(angle) / math.sqrt(n_marked) if n_marked else 0.0,
        sign * math.cos(angle) / math.sqrt(n_unmarked) if n_unmarked else 0.0,
    )


def _measure(
    sorted_basis: np.ndarray, marked_prefix: list[int], iterations: int, rng: np.random.Generator
) -> int:
    """Sample the frame's ``sorted_basis``, ``marked_prefix[i]`` marked among its first i+1.

    Refuses a total more than 1e-6 from 1 in norm. Returns the first entry
    whose cumulative probability exceeds one ``rng.random()`` times the
    total, as ``Generator.choice`` does.
    """
    size, n_marked = len(sorted_basis), marked_prefix[-1] // 2
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
    return int(sorted_basis[min(index, size - 1)])


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
    with ``choice`` would.
    """
    frame = _frame_for(oracle, frame)
    marks = oracle_marks(oracle, frame)
    marked_prefix = np.cumsum(np.concatenate((marks, marks))[frame.order]).tolist()
    q = oracle.q_register
    q_mask = (1 << q.width) - 1
    steps: list[BoyerStep] = []
    iterations = 0
    for _ in range(max_steps):
        m_now = schedule.m
        j = schedule.draw_iterations()
        chosen = _measure(frame.sorted_basis, marked_prefix, j, measure_rng)
        iterations += j
        candidate = (chosen >> q.offset) & q_mask
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m=m_now, j=j, candidate=candidate, passed=passed))
        if passed:
            return BoyerResult(candidate, tuple(steps), iterations)
        schedule.grow()
    return BoyerResult(None, tuple(steps), iterations)
