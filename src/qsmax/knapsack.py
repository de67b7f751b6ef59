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
``verify_instance`` and ``maximize`` compiles it and pushes every candidate
through it once per instance (``grover.prepare_frame``); the table reads w,
f and v off those images (``PreparedFrame.column``), and each search round
or verify threshold compiles and pushes only the marking stage
(``grover.oracle_marks``). Only the item count is bounded (``MAX_ITEMS``):
the frame holds 2^(n+1) basis states.

``table`` and ``verify`` handle all 2^n candidates as integer columns in
table order. The circuit side is read off the images register by register
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
from dataclasses import dataclass

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
    BoyerSchedule,
    OracleCircuit,
    PreparedFrame,
    boyer_search,
    build_diffusion,
    iteration_count,
    oracle_marks,
    prepare_frame,
)
from .statevector import Gate, GateKind, GateSequence, IntegrityError

# The oracle frame holds 2^(n+1) basis states, 8,192 at this bound.
MAX_ITEMS = 12


class CapacityError(Exception):
    """An instance too big to run: more than ``MAX_ITEMS`` items."""


@dataclass(frozen=True, slots=True)
class KnapsackInstance:
    """Item list (weight, value) plus a weight capacity, all unsigned ints.

    Every field must be an integer (anything with ``__index__``, so numpy
    integers and bools pass and are stored as ``int``); a float, a string or
    another non-integer raises ValueError rather than being truncated. More
    than ``MAX_ITEMS`` items raise CapacityError; fields may be any size.
    """

    items: tuple[tuple[int, int], ...]
    capacity: int

    def __post_init__(self) -> None:
        try:
            items = tuple((operator.index(w), operator.index(v)) for w, v in self.items)
            capacity = operator.index(self.capacity)
        except TypeError as err:
            raise ValueError(f"weights, values and capacity must be integers: {err}") from None
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "capacity", capacity)
        if not self.items:
            raise ValueError("item count must be at least 1")
        if len(self.items) > MAX_ITEMS:
            raise CapacityError(
                f"item count {len(self.items)} exceeds {MAX_ITEMS}: the oracle frame "
                f"would hold 2^{len(self.items) + 1} basis states"
            )
        if any(w < 0 or v < 0 for w, v in self.items):
            raise ValueError("weights and values must be >= 0")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.items)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.items)


@dataclass(frozen=True, slots=True)
class RegisterPlan:
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


@dataclass(frozen=True, slots=True)
class CandidateEvaluation:
    """Weight/fitness/validity of one candidate; fitness is pre-negation."""

    candidate: str
    weight: int
    fitness: int
    valid: bool


@dataclass(frozen=True, slots=True)
class TraceStep:
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


@dataclass(frozen=True, slots=True)
class SearchTrace:
    """Audit record of a maximization run."""

    steps: tuple[TraceStep, ...]
    final_candidate: str | None
    final_fitness: int
    initial_threshold: int
    initial_candidate: str | None
    rounds: int
    total_grover_iterations: int
    total_qubits: int


@dataclass(frozen=True, slots=True)
class ResourceEstimate:
    """Gate-level cost of one full oracle application plus diffusion."""

    qubits: int
    gate_counts: dict[str, int]
    toffoli_equivalent: int
    grover_iterations_expected: int


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Outcome of the quantum-vs-classical agreement suite."""

    ok: bool
    candidates_checked: int
    thresholds_checked: tuple[int, ...]
    mismatch: str | None = None


def candidate_to_index(candidate: str, n: int) -> int:
    """Candidate bitstring (item 1 first) to q-register basis value."""
    if len(candidate) != n or any(ch not in "01" for ch in candidate):
        raise ValueError(f"candidate {candidate!r} is not a {n}-bit 0/1 string")
    return sum(1 << k for k, ch in enumerate(candidate) if ch == "1")


def index_to_candidate(index: int, n: int) -> str:
    """q-register basis value to candidate bitstring (item 1 first)."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"candidate index {index} out of range for {n} items")
    return "".join(str((index >> k) & 1) for k in range(n))


def all_candidates(n: int) -> list[str]:
    """All candidate strings in table order (string read as a binary number)."""
    return [format(d, f"0{n}b") for d in range(1 << n)]


def candidate_indices(n: int) -> np.ndarray:
    """q-register value of every candidate in table order, as int64.

    String position k is item k+1, i.e. q bit k, and the table reads the
    string as a binary number, so entry d is d with its n bits reversed.
    """
    table = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(table)
    for k in range(n):
        out |= ((table >> (n - 1 - k)) & 1) << k
    return out


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
    index = candidate_to_index(candidate, instance.n)
    weight = sum(w for k, (w, _) in enumerate(instance.items) if (index >> k) & 1)
    fitness = sum(v for k, (_, v) in enumerate(instance.items) if (index >> k) & 1)
    return CandidateEvaluation(
        candidate=candidate,
        weight=weight,
        fitness=fitness,
        valid=weight <= instance.capacity,
    )


def _classical_columns(
    instance: KnapsackInstance,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight, fitness and validity of every candidate, in table order.

    Built by subset doubling: after items 1..k the columns hold the 2^k
    selections of those items, and item k+1 appends its bit as the new least
    significant table bit, so item 1 ends up the most significant one, as
    in the table. O(2^n) additions, no 2^n x n bit matrix. int64 while both
    sums fit in it; Python ints in object arrays otherwise.
    """
    total_weight = sum(instance.weights)
    dtype = np.int64 if max(total_weight, sum(instance.values)) < 1 << 63 else object
    weight = fitness = np.zeros(1, dtype=dtype)
    for w, v in instance.items:
        weight = np.add.outer(weight, np.array((0, w), dtype=dtype)).ravel()
        fitness = np.add.outer(fitness, np.array((0, v), dtype=dtype)).ravel()
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


def compile_prepare(instance: KnapsackInstance, plan: RegisterPlan) -> GateSequence:
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
    return GateSequence(gates)


def compile_oracle(
    instance: KnapsackInstance,
    plan: RegisterPlan,
    threshold: int,
    *,
    prepare: GateSequence | None = None,
) -> OracleCircuit:
    """Compile the phase oracle marking valid candidates with fitness > threshold.

    prepare: ``compile_prepare``, or the given ``prepare`` compiled earlier
    for the same instance and plan. mark: load the threshold into g and flip
    the kickback qubit where threshold < f under signed comparison.
    unprepare: exact reverse of prepare.
    """
    enc = plan.fitness_encoding
    if not enc.min_value <= threshold <= enc.max_value:
        raise ValueError(
            f"threshold {threshold} not representable in {plan.f.width}-bit "
            f"two's complement [{enc.min_value}, {enc.max_value}]"
        )
    if prepare is None:
        prepare = compile_prepare(instance, plan)
    g_f = plan.g.slice(plan.f.width)
    load_threshold = build_load_constant(enc.encode(threshold), g_f)
    mark = (
        load_threshold
        + build_signed_comparator(g_f, plan.f, plan.r)  # r ^= threshold < fitness
        + load_threshold
    )
    return OracleCircuit(
        prepare=prepare,
        mark=mark,
        unprepare=prepare.reverse(),
        q_register=plan.q,
        kickback_qubit=plan.r,
        num_qubits=plan.total_qubits,
    )


def _compute_frame(instance: KnapsackInstance, plan: RegisterPlan) -> PreparedFrame:
    """Compile the compute stage and push every candidate through it once."""
    return prepare_frame(compile_prepare(instance, plan), plan.q, plan.r, plan.total_qubits)


def _circuit_columns(
    plan: RegisterPlan, frame: PreparedFrame, q_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight, fitness and validity read off the frame's kickback-0 images.

    ``q_values`` is ``candidate_indices(n)``, so the columns are in table
    order; like ``PreparedFrame.column`` they hold Python ints from 63 bits
    on. Fitness is sign-extended from f and reported pre-negation (the
    circuit stores the negated fitness for invalid candidates).
    """
    weight, stored, flag = (
        frame.column(register)[q_values]
        for register in (plan.w, plan.f, RegisterRef("v", plan.v, 1))
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
    frame = _compute_frame(instance, plan)
    columns = _circuit_columns(plan, frame, candidate_indices(n))
    return [
        CandidateEvaluation(candidate, weight, fitness, valid)
        for candidate, weight, fitness, valid in zip(
            all_candidates(n), *(column.tolist() for column in columns)
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
    instance: KnapsackInstance,
    *,
    num_thresholds: int = 5,
    threshold_seed: int = 2024,
) -> VerifyReport:
    """Quantum/classical agreement suite for one instance.

    Checks the circuit-computed table against brute force for all
    candidates, then the oracle against the classical predicate (valid and
    fitness strictly above threshold) at ``num_thresholds`` sampled
    thresholds. The compute stage runs once; the table is read off its
    images, and each threshold pushes them through its marking stage only.
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
    frame = _compute_frame(instance, plan)
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
        np.random.default_rng(threshold_seed), sum(instance.values), num_thresholds
    )
    for threshold in thresholds:
        oracle = compile_oracle(instance, plan, threshold, prepare=frame.prepare)
        try:
            marks = oracle_marks(oracle, frame)
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
    return VerifyReport(
        ok=True,
        candidates_checked=1 << n,
        thresholds_checked=thresholds,
        mismatch=None,
    )


def maximize(
    instance: KnapsackInstance,
    *,
    seed: int = 0,
    max_rounds: int = 100,
    initial_threshold: int | None = None,
    confirmation_count: int = 1,
    max_steps_per_round: int | None = None,
    growth: float = 6 / 5,
) -> SearchTrace:
    """Find the maximum-fitness valid candidate by threshold-raising search.

    The compute stage is compiled and pushed through once; each round
    compiles only the marking stage at the current threshold and runs the
    unknown-count search; a found candidate raises the threshold to its
    fitness. Each distinct measured candidate is evaluated classically
    once. ``confirmation_count`` consecutive exhausted rounds (default 1)
    end the run. The seed fully determines the run: it spawns independent
    streams for the initial threshold draw, the schedule's j draws, and
    measurement sampling.
    """
    if confirmation_count < 1:
        raise ValueError("confirmation_count must be >= 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    plan = plan_registers(instance)
    n = instance.n
    big_n = 1 << n
    enc = plan.fitness_encoding
    init_rng, schedule_rng, measure_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    ]

    zero_candidate = "0" * n
    if initial_threshold is not None:
        if not enc.min_value <= initial_threshold <= enc.max_value:
            raise ValueError(
                f"initial threshold {initial_threshold} not representable "
                f"in {plan.f.width} signed bits"
            )
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

    if max_steps_per_round is None:
        max_steps_per_round = 3 * math.ceil(math.sqrt(big_n))

    frame = _compute_frame(instance, plan)

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
        oracle = compile_oracle(instance, plan, threshold, prepare=frame.prepare)
        current = threshold

        def check(candidate_index: int, t: int = current) -> bool:
            ev = evaluate(candidate_index)
            return ev.valid and ev.fitness > t

        schedule = BoyerSchedule(
            sqrt_n_cap=math.sqrt(big_n), rng=schedule_rng, lam=growth
        )
        result = boyer_search(
            oracle, check, schedule, max_steps_per_round, measure_rng, frame=frame
        )
        for step in result.steps:
            cumulative_j += step.j
            ev = evaluate(step.candidate)
            candidate = ev.candidate
            new_threshold = ev.fitness if step.passed else threshold
            steps.append(
                TraceStep(
                    round=rounds,
                    m=step.m,
                    j=step.j,
                    grover_iterations_cumulative=cumulative_j,
                    measured_candidate=candidate,
                    measured_fitness=ev.fitness,
                    valid=ev.valid,
                    accepted=step.passed,
                    threshold_after=new_threshold,
                )
            )
            if step.passed:
                threshold = new_threshold
                best_candidate = candidate
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

    Purely symbolic: nothing is pushed through the circuit, so no width
    limit applies. Constant loads depend on the loaded value's popcount, so
    the X count is reported for threshold 0.
    """
    plan = plan_registers(instance)
    oracle = compile_oracle(instance, plan, 0)
    diffusion = build_diffusion(plan.q)
    counts: Counter[str] = Counter()
    toffoli_equivalent = 0
    for sequence in (oracle.prepare, oracle.mark, oracle.unprepare, diffusion):
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
