"""0/1 knapsack as a quantum maximization problem.

Problem model, register planning, oracle compilation, the threshold-raising
maximization driver, classical brute-force references, and gate-level
resource estimation.

The oracle is made of permutation gates only, so the candidate table, the
verification suite and the search never simulate the full register: they
push the candidate basis states through the compiled stages as bit planes
(``statevector.permute_planes``) and read registers and kickback flips off
the images exactly, at any register width. The compute stage does not
depend on the threshold, so each of ``enumerate_table``,
``verify_instance`` and ``maximize`` compiles it and pushes every
candidate through it once per instance
(``compile_frame``); the table reads w, f and v off those images in one
pass (``PreparedFrame.columns``). Each distinct search threshold and each verify
threshold compiles only its marking stage (``compile_oracle``) and pushes
the images through it (``grover.oracle_marks``); the search reads only the
marked set. Only the item count is bounded (``MAX_ITEMS``): the frame holds
2^(n+1) basis states.

``table`` and ``verify`` handle all 2^n candidates as integer columns in
table order, whose q values and strings are built once per item count
(``candidate_indices``, read-only). The circuit side is read off the images
(``_circuit_columns``); the brute-force side is built by subset doubling
(``_classical_columns``), and ``classical_max`` is one ``argmax`` over it.
``verify_instance`` compares the columns at once, and each threshold's
marks against the classical predicate column. The per-string
``classical_evaluate`` stays the independent reference: ``maximize``
checks each measured candidate with it, and a verify mismatch report
states its row.

Register file (in qubit order): ``q`` candidate bits (item k is qubit k-1,
so item 1 is the least significant), ``w`` accumulated weight, ``g`` shared
scratch for loaded constants, ``f`` fitness in two's complement, ``v``
validity flag, ``r`` oracle kickback qubit.

Candidate bitstrings in this module's public surface are
most-significant-item-first: string position 0 is item 1, e.g. "0111" means
items 2, 3 and 4 are packed. Internally item k maps to q-register bit k-1.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections import Counter
from typing import NamedTuple

import numpy as np

from .arithmetic import (
    RegisterRef,
    SignedEncoding,
    build_comparator,
    build_controlled_modular_adder,
    build_controlled_negate,
    build_load_constant,
    build_signed_comparator,
)
from .grover import (
    PreparedFrame,
    boyer_search,
    build_diffusion,
    iteration_count,
    oracle_marks,
    prepare_frame,
)
from .statevector import Gate, GateKind, IntegrityError, inverse

# The oracle frame holds 2^(n+1) basis states, 8,192 at this bound.
MAX_ITEMS = 12


class CapacityError(Exception):
    """An instance too big to run: more than ``MAX_ITEMS`` items."""


class _KnapsackInstanceFields(NamedTuple):
    items: tuple[tuple[int, int], ...]
    capacity: int


class KnapsackInstance(_KnapsackInstanceFields):
    """Item list (weight, value) plus a weight capacity, all unsigned ints.

    Every field must be an integer (anything with ``__index__``, so numpy
    integers and bools pass and are stored as ``int``); a float, a string or
    another non-integer raises ValueError rather than being truncated. More
    than ``MAX_ITEMS`` items raise CapacityError; fields may be any size.
    """

    __slots__ = ()

    def __new__(cls, items: tuple[tuple[int, int], ...], capacity: int) -> "KnapsackInstance":
        try:
            items = tuple((operator.index(w), operator.index(v)) for w, v in items)
            capacity = operator.index(capacity)
        except TypeError as err:
            raise ValueError(f"weights, values and capacity must be integers: {err}") from None
        if not items:
            raise ValueError("item count must be at least 1")
        if len(items) > MAX_ITEMS:
            raise CapacityError(
                f"item count {len(items)} exceeds {MAX_ITEMS}: the oracle frame "
                f"would hold 2^{len(items) + 1} basis states"
            )
        if any(w < 0 or v < 0 for w, v in items):
            raise ValueError("weights and values must be >= 0")
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        return tuple.__new__(cls, (items, capacity))

    @classmethod
    def _make(cls, iterable) -> "KnapsackInstance":
        """Build through ``__new__``, so ``_replace`` validates as well."""
        return cls(*iterable)

    def __reduce__(self):
        """Unpickle through ``__new__`` too, under every pickle protocol."""
        return type(self), tuple(self)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.items)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.items)


class RegisterPlan(NamedTuple):
    """Disjoint contiguous qubit ranges for one instance."""

    q: RegisterRef
    w: RegisterRef
    g: RegisterRef
    f: RegisterRef
    v: int
    r: int
    total_qubits: int

    @property
    def fitness_encoding(self) -> SignedEncoding:
        return SignedEncoding(self.f.width)


class CandidateEvaluation(NamedTuple):
    """Weight/fitness/validity of one candidate; fitness is pre-negation."""

    candidate: str
    weight: int
    fitness: int
    valid: bool


class TraceStep(NamedTuple):
    """One measurement of the maximization run."""

    round: int
    m: float
    j: int
    grover_iterations_cumulative: int
    measured_candidate: str
    measured_fitness: int
    valid: bool
    accepted: bool
    threshold_after: int


class SearchTrace(NamedTuple):
    """Audit record of a maximization run."""

    steps: tuple[TraceStep, ...]
    final_candidate: str | None
    final_fitness: int
    initial_threshold: int
    initial_candidate: str | None
    rounds: int
    total_grover_iterations: int
    total_qubits: int


class ResourceEstimate(NamedTuple):
    """Gate-level cost of one full oracle application plus diffusion."""

    qubits: int
    gate_counts: dict[str, int]
    toffoli_equivalent: int
    grover_iterations_expected: int


class VerifyReport(NamedTuple):
    """Outcome of the quantum-vs-classical agreement suite."""

    ok: bool
    candidates_checked: int
    thresholds_checked: tuple[int, ...]
    mismatch: str | None = None


def _check_candidate(candidate: str, n: int) -> None:
    if len(candidate) != n or candidate.strip("01"):
        raise ValueError(f"candidate {candidate!r} is not a {n}-bit 0/1 string")


def candidate_to_index(candidate: str, n: int) -> int:
    """Candidate bitstring (item 1 first) to q-register basis value."""
    _check_candidate(candidate, n)
    return sum(1 << k for k, ch in enumerate(candidate) if ch == "1")


def index_to_candidate(index: int, n: int) -> str:
    """q-register basis value to candidate bitstring (item 1 first)."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"candidate index {index} out of range for {n} items")
    return format(index, f"0{n}b")[::-1]


@functools.cache
def _table_order(n: int) -> tuple[bytes, tuple[str, ...]]:
    """Every candidate's q value (as int64 bytes) and string, in table order.
    Built once per n; both are immutable, so all callers can share them."""
    strings = tuple(format(d, f"0{n}b") for d in range(1 << n))
    return np.array([int(s[::-1], 2) for s in strings], dtype=np.int64).tobytes(), strings


def all_candidates(n: int) -> list[str]:
    """All candidate strings in table order (string read as a binary number)."""
    return list(_table_order(n)[1])


def candidate_indices(n: int) -> np.ndarray:
    """q-register value of every candidate in table order, as read-only int64.

    String position k is item k+1, i.e. q bit k, and the table reads the
    string as a binary number, so entry d is d with its n bits reversed.
    The array is a view of cached bytes, so it can never be made writeable.
    """
    return np.frombuffer(_table_order(n)[0], np.int64)


def plan_registers(instance: KnapsackInstance) -> RegisterPlan:
    """Size and place the q/w/g/f/v/r registers for an instance.

    Widths: w holds the sum of all weights; f holds the sum of all values in
    two's complement (so one extra sign bit); g is scratch wide enough for
    either constant. Degenerate sums floor at width 1 (w) and 2 (f). Any
    width is planned and runs.
    """
    n = instance.n
    w_width = max(1, sum(instance.weights).bit_length())
    f_width = max(2, sum(instance.values).bit_length() + 1)
    g_width = max(w_width, f_width)

    offset = 0
    q = RegisterRef("q", offset, n)
    offset += n
    w = RegisterRef("w", offset, w_width)
    offset += w_width
    g = RegisterRef("g", offset, g_width)
    offset += g_width
    f = RegisterRef("f", offset, f_width)
    offset += f_width
    v = offset
    r = offset + 1
    total = offset + 2
    return RegisterPlan(q=q, w=w, g=g, f=f, v=v, r=r, total_qubits=total)


def classical_evaluate(instance: KnapsackInstance, candidate: str) -> CandidateEvaluation:
    """Brute-force reference: sum selected weights/values, check capacity."""
    _check_candidate(candidate, instance.n)
    weight = fitness = 0
    for bit, (w, v) in zip(candidate, instance.items):
        if bit == "1":
            weight += w
            fitness += v
    return CandidateEvaluation(candidate, weight, fitness, weight <= instance.capacity)


def _classical_columns(
    instance: KnapsackInstance,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight, fitness and validity of every candidate, in table order.

    Built by subset doubling over a 2-row (weight, fitness) array, items
    last to first: each item appends a copy of the array with its weight
    and value added, as the new most significant table bit, so item 1 ends
    up the most significant one, as in the table. O(2^n) additions, no 2^n
    x n bit matrix. int64 while both sums fit in it; object arrays otherwise.
    """
    total_weight = sum(instance.weights)
    dtype = np.int64 if max(total_weight, sum(instance.values)) < 1 << 63 else object
    columns = np.zeros((2, 1), dtype=dtype)
    for item in np.array(instance.items, dtype=dtype)[::-1, :, None]:
        columns = np.concatenate((columns, columns + item), axis=1)
    weight, fitness = columns
    # No selection outweighs the total, so clamping keeps the comparison
    # within the column's range.
    return weight, fitness, weight <= min(instance.capacity, total_weight)


def classical_max(instance: KnapsackInstance) -> CandidateEvaluation:
    """Best valid candidate by brute force over whole columns.

    Ties break toward the smallest candidate in table order: ``argmax``
    returns the first maximum, and invalid candidates score -1 (the empty
    selection is always valid with fitness 0, so a best candidate always
    exists). Sums of 2^63 or more are added as Python ints, so they cannot
    overflow.
    """
    weight, fitness, valid = _classical_columns(instance)
    best = int(np.argmax(np.where(valid, fitness, -1)))
    return CandidateEvaluation(
        candidate=format(best, f"0{instance.n}b"),
        weight=int(weight[best]),
        fitness=int(fitness[best]),
        valid=True,
    )


def compile_prepare(instance: KnapsackInstance, plan: RegisterPlan) -> tuple[Gate, ...]:
    """Compute stage of the oracle; it does not depend on the threshold.

    Per item, load its weight into g and add into w under the item qubit,
    then likewise values into f; compare the capacity (loaded in g) against
    w into v; negate f where v is set so invalid candidates turn negative.
    """
    g_w = plan.g.slice(plan.w.width)
    g_f = plan.g.slice(plan.f.width)
    gates: list[Gate] = []
    for k, (weight, _) in enumerate(instance.items):
        load = build_load_constant(weight, g_w)
        gates += load
        gates += build_controlled_modular_adder(plan.q.bit(k), g_w, plan.w)
        gates += load
    for k, (_, value) in enumerate(instance.items):
        load = build_load_constant(value, g_f)
        gates += load
        gates += build_controlled_modular_adder(plan.q.bit(k), g_f, plan.f)
        gates += load
    # Capacities beyond the register range compare identically to the largest
    # representable weight (every weight fits in w), so clamp.
    capacity = min(instance.capacity, (1 << plan.w.width) - 1)
    load_cap = build_load_constant(capacity, g_w)
    gates += load_cap
    gates += build_comparator(g_w, plan.w, plan.v)  # v ^= capacity < weight
    gates += load_cap
    gates += build_controlled_negate(plan.v, plan.f)
    return tuple(gates)


def compile_frame(instance: KnapsackInstance, plan: RegisterPlan) -> PreparedFrame:
    """Compile the compute stage and push every candidate through it once."""
    return prepare_frame(compile_prepare(instance, plan), plan.q, plan.r, plan.total_qubits)


def compile_oracle(plan: RegisterPlan, threshold: int) -> tuple[Gate, ...]:
    """Marking stage of the phase oracle at ``threshold``: load it into g and
    flip the kickback qubit where threshold < f under signed comparison, so
    it marks the valid candidates with fitness > threshold. The rest of the
    oracle is the instance's compute stage (``compile_frame``) and its
    inverse."""
    enc = plan.fitness_encoding
    if not enc.min_value <= threshold <= enc.max_value:
        raise ValueError(
            f"threshold {threshold} not representable in {plan.f.width}-bit "
            f"two's complement [{enc.min_value}, {enc.max_value}]"
        )
    g_f = plan.g.slice(plan.f.width)
    load_threshold = build_load_constant(enc.encode(threshold), g_f)
    return (
        load_threshold
        + build_signed_comparator(g_f, plan.f, plan.r)  # r ^= threshold < fitness
        + load_threshold
    )


def _circuit_columns(
    plan: RegisterPlan, frame: PreparedFrame, q_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight, fitness and validity read off the frame's kickback-0 images.

    ``q_values`` is ``candidate_indices(n)``, so the columns are in table
    order; one ``PreparedFrame.columns`` pass reads w, f and v, with Python
    ints from 63 bits on. Fitness is sign-extended from f and reported
    pre-negation (the circuit stores the negated fitness for invalid ones).
    """
    weight, stored, flag = (
        column[q_values] for column in frame.columns(plan.w, plan.f, RegisterRef("v", plan.v, 1))
    )
    stored -= (stored >> (plan.f.width - 1)) << plan.f.width
    valid = flag == 0
    return weight, np.where(valid, stored, -stored), valid


def enumerate_table(instance: KnapsackInstance) -> list[CandidateEvaluation]:
    """Evaluate every candidate through the oracle's compute stage.

    All candidate basis states go through ``prepare`` once as bit planes;
    w, f and v are read off the images as whole columns.
    """
    plan = plan_registers(instance)
    n = instance.n
    frame = compile_frame(instance, plan)
    columns = _circuit_columns(plan, frame, candidate_indices(n))
    return [
        CandidateEvaluation(candidate, weight, fitness, valid)
        for candidate, weight, fitness, valid in zip(
            _table_order(n)[1], *(column.tolist() for column in columns)
        )
    ]


def _draw_thresholds(rng: np.random.Generator, top: int, count: int) -> tuple[int, ...]:
    """``count`` uniform draws from [0, top]: one ``rng.integers`` call while
    ``top + 1`` fits int64, else ``random.Random.randint``, seeded from ``rng``."""
    if top < 1 << 63:
        return tuple(int(t) for t in rng.integers(0, top + 1, size=count))
    draw = random.Random(int(rng.integers(1 << 63))).randint
    return tuple(draw(0, top) for _ in range(count))


def verify_instance(
    instance: KnapsackInstance, *, threshold_seed: int = 2024
) -> VerifyReport:
    """Quantum/classical agreement suite for one instance.

    Checks the circuit-computed table against brute force for all
    candidates, then the oracle against the classical predicate (valid and
    fitness strictly above threshold) at 5 sampled thresholds. The compute
    stage runs once; the table is read off its images, and each threshold
    pushes them through its marking stage only.
    Both sides are whole columns in table order (``_circuit_columns``,
    ``_classical_columns``), compared at once; only the first disagreeing
    candidate is evaluated per string, by ``classical_evaluate``, for the
    report. The oracle check is exact integer equality on both kickback
    branches, equivalent to
    ``unprepare(mark(prepare(x))) == x ^ (marked(x) << r)`` (see
    ``oracle_marks``), so any ancilla left dirty or any wrong mark is a
    mismatch. The thresholds are drawn uniformly from [0, sum of values].
    """
    plan = plan_registers(instance)
    n = instance.n
    q_values = candidate_indices(n)
    frame = compile_frame(instance, plan)
    circuit_weight, circuit_fitness, circuit_valid = _circuit_columns(plan, frame, q_values)
    weight, fitness, valid = _classical_columns(instance)

    disagree = np.flatnonzero(
        (circuit_weight != weight) | (circuit_fitness != fitness) | (circuit_valid != valid)
    )
    if disagree.size:
        first = int(disagree[0])
        classical = classical_evaluate(instance, format(first, f"0{n}b"))
        return VerifyReport(
            ok=False,
            candidates_checked=1 << n,
            thresholds_checked=(),
            mismatch=(
                f"candidate {classical.candidate}: circuit computed "
                f"(weight={circuit_weight[first]}, fitness={circuit_fitness[first]}, "
                f"valid={circuit_valid[first]}), classical reference "
                f"(weight={classical.weight}, fitness={classical.fitness}, "
                f"valid={classical.valid})"
            ),
        )

    thresholds = _draw_thresholds(
        np.random.default_rng(threshold_seed), sum(instance.values), 5
    )
    for threshold in thresholds:
        try:
            marks = oracle_marks(frame, compile_oracle(plan, threshold))
        except IntegrityError as err:
            return VerifyReport(
                ok=False,
                candidates_checked=1 << n,
                thresholds_checked=thresholds,
                mismatch=f"threshold {threshold}: {err}",
            )
        expected = valid & (fitness > threshold)
        wrong = np.flatnonzero(marks[q_values] != expected)
        if wrong.size:
            first = int(wrong[0])
            return VerifyReport(
                ok=False,
                candidates_checked=1 << n,
                thresholds_checked=thresholds,
                mismatch=(
                    f"candidate {format(first, f'0{n}b')} at threshold {threshold}: "
                    f"kickback phase disagrees with the classical predicate "
                    f"(expected marked={bool(expected[first])})"
                ),
            )
    return VerifyReport(ok=True, candidates_checked=1 << n, thresholds_checked=thresholds)


def maximize(
    instance: KnapsackInstance,
    *,
    seed: int = 0,
    max_rounds: int = 100,
    initial_threshold: int | None = None,
    confirmation_count: int = 1,
) -> SearchTrace:
    """Find the maximum-fitness valid candidate by threshold-raising search.

    The compute stage is compiled and pushed through once, the marking
    stage once per distinct threshold; each round runs the unknown-count
    search on the current threshold's marks, for at most 3 * ceil(sqrt(N))
    measurements; a found candidate raises the threshold to its fitness.
    Each distinct measured candidate is evaluated classically once.
    ``confirmation_count`` consecutive exhausted rounds (default 1) end the
    run. The seed fully determines the run: it spawns independent
    streams for the initial threshold draw, the schedule's j draws, and
    measurement sampling. An ``initial_threshold`` the fitness register
    cannot hold raises ValueError (``compile_oracle``) before any step.
    """
    if confirmation_count < 1:
        raise ValueError("confirmation_count must be >= 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    plan = plan_registers(instance)
    n = instance.n
    big_n = 1 << n
    init_rng, schedule_rng, measure_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    ]

    zero_candidate = "0" * n
    if initial_threshold is not None:
        threshold = initial_threshold
        initial_candidate: str | None = None
        best_candidate: str | None = None
    else:
        # Fitness of one uniformly drawn candidate if valid, else 0 (the
        # empty selection): guarantees an achievable starting threshold.
        drawn = index_to_candidate(int(init_rng.integers(0, big_n)), n)
        ev = classical_evaluate(instance, drawn)
        if ev.valid:
            threshold, initial_candidate = ev.fitness, drawn
        else:
            threshold, initial_candidate = 0, zero_candidate
        best_candidate = initial_candidate

    max_steps = 3 * math.ceil(math.sqrt(big_n))
    frame = compile_frame(instance, plan)

    @functools.cache
    def evaluate(candidate_index: int) -> CandidateEvaluation:
        return classical_evaluate(instance, index_to_candidate(candidate_index, n))

    starting_threshold = threshold
    steps: list[TraceStep] = []
    cumulative_j = 0
    rounds = 0
    consecutive_exhausted = 0
    while rounds < max_rounds and consecutive_exhausted < confirmation_count:
        rounds += 1
        if not consecutive_exhausted:  # the first round, or the threshold just rose
            marks = oracle_marks(frame, compile_oracle(plan, threshold))
        current = threshold

        def check(candidate_index: int, t: int = current) -> bool:
            ev = evaluate(candidate_index)
            return ev.valid and ev.fitness > t

        result = boyer_search(marks, check, max_steps, schedule_rng, measure_rng)
        for step in result.steps:
            cumulative_j += step.j
            candidate, _, fitness, valid = evaluate(step.candidate)
            if step.passed:
                threshold, best_candidate = fitness, candidate
            steps.append(
                TraceStep(
                    rounds, step.m, step.j, cumulative_j, candidate,
                    fitness, valid, step.passed, threshold,
                )
            )
        if result.found is None:
            consecutive_exhausted += 1
        else:
            consecutive_exhausted = 0

    return SearchTrace(
        steps=tuple(steps),
        final_candidate=best_candidate,
        final_fitness=threshold,
        initial_threshold=starting_threshold,
        initial_candidate=initial_candidate,
        rounds=rounds,
        total_grover_iterations=cumulative_j,
        total_qubits=plan.total_qubits,
    )


def _toffoli_equivalents(kind: GateKind, gate_qubits: int, controls: int) -> int:
    """Documented accounting: TOFFOLI and PERES (either direction) count 1;
    MCX with k controls counts 2(k-1)-1; the m-operand zero-subspace phase
    flip counts like an MCX with m-1 controls; X/H/CNOT count 0."""
    if kind in (GateKind.TOFFOLI, GateKind.PERES, GateKind.PERES_INV):
        return 1
    if kind is GateKind.MCX:
        return max(2 * (controls - 1) - 1, 0)
    if kind is GateKind.CPHASE_FLIP_ZERO:
        return max(2 * (gate_qubits - 2) - 1, 0)
    return 0


def estimate_resources(instance: KnapsackInstance) -> ResourceEstimate:
    """Count gates in one full oracle (threshold 0) plus diffusion.

    The stages are compiled as the search compiles them, but no basis
    state is pushed through them; the uncompute is ``inverse(prepare)``.
    Constant loads depend on the loaded value's popcount, so the X count is
    reported for threshold 0.
    """
    plan = plan_registers(instance)
    prepare = compile_prepare(instance, plan)
    diffusion = build_diffusion(plan.q)
    counts: Counter[str] = Counter()
    toffoli_equivalent = 0
    for sequence in (prepare, compile_oracle(plan, 0), inverse(prepare), diffusion):
        for gate in sequence:
            counts[gate.kind.value] += 1
            toffoli_equivalent += _toffoli_equivalents(
                gate.kind, len(gate.qubits), len(gate.controls)
            )
    return ResourceEstimate(
        qubits=plan.total_qubits,
        gate_counts=dict(counts),
        toffoli_equivalent=toffoli_equivalent,
        grover_iterations_expected=iteration_count(1 << instance.n, 1),
    )
