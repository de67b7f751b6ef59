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
kickback at 0) as bit planes and pushes them through the
threshold-independent compute stage. ``oracle_marks`` pushes the frame's
images through one threshold's ``mark`` only, reads the marked set off the
kickback plane and checks the uncompute (``inverse(prepare)``) exactly, by
big-int XOR/OR over the planes the mark replaces. No plane holds the
kickback-1 branch: no stage reads the kickback, so it is the kickback-0
one with the kickback flipped. The marked set is all the search reads of
the oracle.
Nothing here caches a circuit: the uncompute is built, uncached, only to
name the basis states of a failed check.

A Grover iteration is a sign flip on the marked set followed by
``a - 2 mean(a)``, so after j iterations, with sin^2(theta) = M/N for M
marked of N, every marked candidate holds (-1)^j sin((2j+1) theta)/sqrt(M)
and every other one (-1)^j cos((2j+1) theta)/sqrt(N-M) (BBHT's closed
form). A measurement is one uniform draw and an exact inverse CDF over the
register's 2N positions, N per kickback branch: a bisection over the 2M
marked positions, read in place off the M marked q values, then a walk
from a closed-form guess to the outcome inside a run of unmarked ones.
Nothing here holds a state vector; the tests check this path against a
gate-by-gate engine.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .arithmetic import CheckedRecord, RegisterRef
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


class _PreparedFrameFields(NamedTuple):
    prepare: tuple[Gate, ...]
    q_register: RegisterRef
    kickback_qubit: int
    planes: tuple[int, ...]


class PreparedFrame(CheckedRecord, _PreparedFrameFields):
    """The oracle frame pushed through the compute stage, once per instance.

    The frame is N basis states for N candidates: entry i is q value i with
    every other qubit, the kickback included, at 0. ``planes`` holds
    ``prepare``'s image of the frame as bit planes (see
    ``statevector.permute_planes``), one N-bit int per qubit. q must sit
    below the kickback, and the kickback must be the top qubit; any other
    layout raises ValueError, also through ``_replace`` and unpickling.
    ``columns`` reads registers off the planes as integer columns.
    """

    __slots__ = ()

    def __new__(cls, prepare, q_register, kickback_qubit, planes) -> "PreparedFrame":
        if not q_register.offset + q_register.width <= kickback_qubit == len(planes) - 1:
            raise ValueError("kickback qubit out of range: it must sit above q, as the top qubit")
        return tuple.__new__(cls, (prepare, q_register, kickback_qubit, planes))

    @property
    def candidates(self) -> int:
        return 1 << self.q_register.width

    @property
    def num_qubits(self) -> int:
        return len(self.planes)

    def columns(self, *registers: RegisterRef) -> tuple[np.ndarray, ...]:
        """Unsigned value of each register, in q-value order, read in
        one pass: the planes are unpacked together into a bit matrix, and each
        register is summed in 62-bit limbs. int64 up to 62 bits; Python ints in
        an object array from 63 bits on, so any width reads exactly."""
        n = self.candidates
        planes = [self.planes[k] for register in registers for k in register.bits]
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
    """An n-bit plane as a uint8 array of 0s and 1s, bit i at i."""
    data = plane.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(data, np.uint8), count=n, bitorder="little")


def prepare_frame(
    prepare: tuple[Gate, ...], q_register: RegisterRef, kickback_qubit: int
) -> PreparedFrame:
    """Write the frame's bit planes in closed form and push them through ``prepare``.

    The kickback is the top qubit, so the frame has ``kickback_qubit + 1``
    planes. q bit b of entry i is bit b of i: blocks of 2^b zeros then 2^b
    ones, so its plane is one such pair of blocks repeated over the N bits,
    written by shift-doubling in O(N) bit operations; every other plane is
    0. ``prepare`` is pushed over the planes below the kickback only, so a
    gate on the kickback (or past it) raises ValueError at no cost per gate.
    A kickback that does not sit above q is refused, as ``PreparedFrame``
    refuses it, before any plane is written.
    """
    frame = PreparedFrame(prepare, q_register, kickback_qubit, (0,) * (kickback_qubit + 1))
    candidates = 1 << q_register.width
    planes = [0] * kickback_qubit
    for b, qubit in enumerate(q_register.bits):
        block = 1 << b
        plane, period = ((1 << block) - 1) << block, 2 * block
        while period < candidates:
            plane |= plane << period
            period *= 2
        planes[qubit] = plane
    try:
        planes = permute_planes(planes, prepare, candidates)
    except IndexError:
        raise ValueError(f"prepare acts on kickback qubit {kickback_qubit} or above it") from None
    return frame._replace(planes=(*planes, 0))


def oracle_marks(frame: PreparedFrame, mark: tuple[Gate, ...]) -> np.ndarray:
    """Boolean mask over q-register values: True where the oracle flips the phase.

    The oracle is ``frame.prepare``, ``mark`` and ``inverse(frame.prepare)``,
    with the contract ``unprepare(mark(prepare(x))) == x ^ (b << r)`` on
    both kickback branches with the same b. ``mark`` may hold the kickback
    only as the sole target of an X, CNOT, TOFFOLI or MCX, else
    IntegrityError, and ``prepare`` never touches it (``prepare_frame``).
    So the kickback-1 branch is the kickback-0 one with the kickback
    flipped, and as the uncompute inverts ``prepare`` on basis states, the
    contract holds iff Y = mark(P), for the frame's images P, has b as its
    kickback plane and P's planes elsewhere. Any other image raises
    IntegrityError naming the first offending candidate and the basis
    states its two branches end in after the uncompute.
    """
    n, r = frame.candidates, frame.kickback_qubit
    if any(r in gate.controls or (r in gate.targets and len(gate.targets) > 1) for gate in mark):
        raise IntegrityError(f"ancilla contamination: the mark reads kickback qubit {r}")
    marked = permute_planes(frame.planes, mark, n)
    changed = 0  # bit i: entry i's image differs from P below the kickback
    for p, y in zip(frame.planes, marked[:r]):
        if y is not p:  # a plane no gate touched is P's own int
            changed |= p ^ y
    if changed:
        candidate = (changed & -changed).bit_length() - 1
        entry = [(y >> candidate) & 1 for y in marked]
        image = permute_planes(entry, inverse(frame.prepare), 1)
        state = sum(bit << k for k, bit in enumerate(image))
        raise IntegrityError(
            f"ancilla contamination after uncompute: q value {candidate} maps "
            f"to basis states {state} and {state ^ (1 << r)}"
        )
    return _plane_bits(marked[r], n).view(bool)


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
    branches, so the register's 2N positions carry the distribution. Refuses a
    total more than 1e-6 from 1 in norm.
    """
    a_marked, a_unmarked = _amplitude_pair(n_marked, n_candidates, iterations)
    p_marked, p_unmarked = a_marked * a_marked / 2.0, a_unmarked * a_unmarked / 2.0
    total = 2 * n_marked * p_marked + (2 * n_candidates - 2 * n_marked) * p_unmarked
    if abs(math.sqrt(total) - 1.0) > 1e-6:
        raise IntegrityError(f"state norm drifted to {math.sqrt(total)!r}; refusing to sample")
    return p_marked, p_unmarked, total


def _position(hits: Sequence[int], n: int, p_marked: float, p_unmarked: float, draw: float) -> int:
    """First of the register's 2N positions whose cumulative probability
    exceeds ``draw``, capped at ``2N - 1``, as ``Generator.choice`` picks it.

    ``hits`` holds the M marked q values in ascending order. Position p is
    q value p mod N, kickback-0 branch first, so the t-th of the 2M marked
    positions is ``hits[t]`` below M and ``hits[t - M] + N`` from M on; it
    is read in place, never listed. The cumulative at position i is
    ``p_marked * below + p_unmarked * (i + 1 - below)``, ``below`` counting
    the marked positions up to i. Only the marked positions are bisected,
    in a ``bisect_right`` loop over that key with no key function or list;
    the k whose cumulative is at most ``draw`` end before the unmarked run
    that follows, so the outcome is the run's first position whose
    cumulative, in that same float expression, exceeds ``draw``, or the
    run's end. A closed-form guess is walked down, then up, to it: the walk
    stops there from any start in the run, so a guess that float rounding
    puts off costs steps, never a different outcome.
    """
    m, size = len(hits), 2 * n
    k, hi = 0, 2 * m  # k ends as the marked positions whose cumulative is at most draw
    while k < hi:
        t = (k + hi) // 2
        if draw < p_marked * (t + 1) + p_unmarked * ((hits[t] if t < m else hits[t - m] + n) - t):
            hi = t
        else:
            k = t + 1
    # The outcome is in the unmarked run [start, end) or is end: the k-th
    # marked position, or size past the last one.
    start = (hits[k - 1] if k <= m else hits[k - 1 - m] + n) + 1 if k else 0
    end = (hits[k] if k < m else hits[k - m] + n) if k < 2 * m else size
    base = p_marked * k  # the cumulative at run position i is base + p_unmarked * (i + 1 - k)
    i = end
    if p_unmarked and (t := (draw - base) / p_unmarked) < end - k:  # else past the run, or inf
        i = max(k + int(t), start)
    while i > start and base + p_unmarked * (i - k) > draw:
        i -= 1
    while i < end and base + p_unmarked * (i + 1 - k) <= draw:
        i += 1
    return min(i, size - 1)


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
    sampled with ``choice`` would. With the kickback the top qubit
    (``prepare_frame``), that order is the kickback-0 branch then the
    kickback-1 branch, so position p is q value p mod N: the 2N positions
    imply the kickback-1 branch, which no frame holds. Only the M marked q
    values are kept, as one int64 array read through a ``memoryview`` (its
    items are Python ints, and no list is built); ``_position`` reads the
    2M marked positions off them in place and walks from a closed-form
    guess inside the unmarked run, so a step costs O(log M) plus the
    guess's error whatever j is, O(1) at M = 0. The error is at most the
    run's length, and 0 or 1 positions unless the unmarked probability is
    float rounding away from 0.
    """
    hits = memoryview(np.flatnonzero(marks))
    n, n_marked, cap = marks.size, len(hits), math.sqrt(marks.size)
    table: dict[int, tuple[float, float, float]] = {}
    steps: list[BoyerStep] = []
    m = 1.0
    for _ in range(max_steps):
        j = int(schedule_rng.integers(0, math.ceil(m)))
        if j not in table:
            table[j] = _probabilities(n_marked, n, j)
        p_marked, p_unmarked, total = table[j]
        position = _position(hits, n, p_marked, p_unmarked, measure_rng.random() * total)
        candidate = position & (n - 1)
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m, j, candidate, passed))
        if passed:
            return BoyerResult(candidate, tuple(steps))
        m = min(6 / 5 * m, cap)
    return BoyerResult(None, tuple(steps))
