"""Problem model, register planning, oracle compilation, and the driver."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DEMO_BEST_CANDIDATE,
    DEMO_BEST_FITNESS,
    DEMO_INSTANCE_FILE,
    random_instance,
)
from qsmax import cli, grover
from qsmax import knapsack as kp
from qsmax import statevector as sv
from qsmax.grover import build_diffusion
from qsmax.knapsack import (
    MAX_ITEMS,
    CapacityError,
    KnapsackInstance,
    all_candidates,
    candidate_indices,
    candidate_to_index,
    classical_evaluate,
    classical_max,
    compile_frame,
    compile_oracle,
    compile_prepare,
    enumerate_table,
    estimate_resources,
    index_to_candidate,
    maximize,
    plan_registers,
    verify_instance,
)
from qsmax.statevector import (
    cnot,
    h,
    inverse,
    x,
)
from reference_engine import (
    apply_sequence,
    get_amplitude,
    grover_iteration,
    measure_all,
    new_basis_state,
    norm_squared,
    prepare_search_state,
)

# Circuit-stored fitness values for the demo instance (scaled by 1/10 from
# the table's currency units); weights and validity as in the table.
DEMO_TABLE = {
    "0000": (0, 0, True),
    "0001": (3, 3, True),
    "0010": (5, 2, True),
    "0011": (8, 5, True),
    "0100": (10, 4, True),
    "0101": (13, 7, True),
    "0110": (15, 6, True),
    "0111": (18, 9, True),
    "1000": (4, 7, True),
    "1001": (7, 10, True),
    "1010": (9, 9, True),
    "1011": (12, 12, False),
    "1100": (14, 11, False),
    "1101": (17, 14, False),
    "1110": (19, 13, False),
    "1111": (22, 16, False),
}


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            KnapsackInstance((), 5)
        with pytest.raises(CapacityError, match="item count 13"):
            KnapsackInstance(tuple((1, 1) for _ in range(13)), 5)
        assert KnapsackInstance(tuple((1, 1) for _ in range(MAX_ITEMS)), 5).n == 12
        with pytest.raises(ValueError):
            KnapsackInstance(((1, -1),), 5)
        with pytest.raises(ValueError):
            KnapsackInstance(((1, 1),), -1)

    @pytest.mark.parametrize(
        "items, capacity",
        [
            pytest.param(((1.7, 1),), 1, id="float-weight"),
            pytest.param(((1, 1), (2, 2), (3, 3)), 2.5, id="float-capacity"),
            pytest.param(((1, "2"),), 1, id="str-value"),
            pytest.param(((1, 1),), np.float64(3.0), id="numpy-float-capacity"),
        ],
    )
    def test_non_integer_fields_are_rejected(self, items, capacity):
        with pytest.raises(ValueError, match="must be integers"):
            KnapsackInstance(items, capacity)

    def test_numpy_ints_and_bools_are_coerced(self):
        instance = KnapsackInstance(((np.int64(3), True), (np.uint8(2), False)), np.int32(4))
        assert instance.items == ((3, 1), (2, 0)) and instance.capacity == 4
        assert all(type(f) is int for item in instance.items for f in item)
        assert type(instance.capacity) is int

    def test_candidate_string_round_trip(self):
        for n in (1, 3, 5):
            for candidate in all_candidates(n):
                assert index_to_candidate(candidate_to_index(candidate, n), n) == candidate

    def test_candidate_string_orientation(self):
        # item 1 is the leftmost character and the lowest q bit
        assert candidate_to_index("1000", 4) == 1
        assert candidate_to_index("0111", 4) == 14

    @pytest.mark.parametrize("n", range(1, 13))
    def test_candidate_indices_match_candidate_to_index(self, n):
        expected = [candidate_to_index(c, n) for c in all_candidates(n)]
        assert candidate_indices(n).tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 6, 12])
    def test_cached_table_order_cannot_be_mutated(self, n):
        strings = [format(d, f"0{n}b") for d in range(1 << n)]
        indices = candidate_indices(n)
        assert indices.dtype == np.int64
        assert indices.tolist() == [candidate_to_index(c, n) for c in strings]
        assert all_candidates(n) == strings
        with pytest.raises(ValueError):
            indices[0] = 1
        with pytest.raises(ValueError):
            indices.setflags(write=True)
        # Each call returns its own view and its own list of the cached order.
        indices.shape = (1, -1)
        candidates = all_candidates(n)
        candidates[0] = "x"
        assert candidate_indices(n).shape == (1 << n,)
        assert candidate_indices(n).tolist() == [candidate_to_index(c, n) for c in strings]
        assert all_candidates(n) == strings

    def test_bad_candidate_strings(self):
        with pytest.raises(ValueError):
            candidate_to_index("012", 3)
        with pytest.raises(ValueError):
            candidate_to_index("01", 3)


class TestRegisterPlan:
    def test_demo_instance_widths(self, demo_instance):
        plan = plan_registers(demo_instance)
        assert plan.q.width == 4
        assert plan.w.width == 5
        assert plan.f.width == 6
        assert plan.g.width == 6
        assert plan.total_qubits == 23
        ranges = [plan.q.bits, plan.w.bits, plan.g.bits, plan.f.bits, (plan.v,), (plan.r,)]
        flat = [q for r in ranges for q in r]
        assert sorted(flat) == list(range(23))

    def test_single_item(self):
        plan = plan_registers(KnapsackInstance(((1, 1),), 1))
        assert (plan.q.width, plan.w.width, plan.f.width, plan.g.width) == (1, 1, 2, 2)
        assert plan.total_qubits == 1 + 1 + 2 + 2 + 2

    def test_zero_values_floor_widths(self):
        plan = plan_registers(KnapsackInstance(((0, 0), (0, 0)), 0))
        assert plan.w.width == 1
        assert plan.f.width == 2

    def test_capacity_error_names_total(self):
        # Width is never refused: a 64-qubit plan runs like any other. Only
        # the item count is, and the error names it.
        heavy = KnapsackInstance(tuple((5000, 5000) for _ in range(12)), 10)
        assert plan_registers(heavy).total_qubits == 64
        assert enumerate_table(heavy) == reference_table(heavy)
        with pytest.raises(CapacityError, match="item count 13 exceeds 12"):
            KnapsackInstance(heavy.items + ((1, 1),), 10)

    def test_deterministic(self, demo_instance):
        assert plan_registers(demo_instance) == plan_registers(demo_instance)


class TestClassicalReference:
    def test_demo_rows(self, demo_instance):
        for candidate, (fitness, weight, valid) in DEMO_TABLE.items():
            ev = classical_evaluate(demo_instance, candidate)
            assert (ev.fitness, ev.weight, ev.valid) == (fitness, weight, valid)

    def test_classical_max_demo(self, demo_instance):
        best = classical_max(demo_instance)
        assert (best.candidate, best.fitness) == (DEMO_BEST_CANDIDATE, DEMO_BEST_FITNESS)

    def test_classical_max_zero_capacity(self):
        best = classical_max(KnapsackInstance(((3, 9), (2, 4)), 0))
        assert (best.candidate, best.fitness) == ("00", 0)

    def test_classical_max_single_item(self):
        best = classical_max(KnapsackInstance(((3, 9),), 5))
        assert (best.candidate, best.fitness) == ("1", 9)

    def test_scaling_leaves_argmax_unchanged(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            instance = random_instance(rng, int(rng.integers(2, 5)))
            base = classical_max(instance)
            for factor in (2, 3, 7):
                scaled = KnapsackInstance(
                    tuple((w, v * factor) for w, v in instance.items),
                    instance.capacity,
                )
                best = classical_max(scaled)
                assert best.candidate == base.candidate
                assert best.fitness == base.fitness * factor


class TestOracleCompilation:
    def _prepare_registers(self, instance, candidate):
        plan = plan_registers(instance)
        state = new_basis_state(
            plan.total_qubits, candidate_to_index(candidate, instance.n) << plan.q.offset
        )
        apply_sequence(state, compile_prepare(instance, plan))
        basis = measure_all(state, np.random.default_rng(0))
        return plan, basis

    def test_prepare_computes_weight_fitness_validity(self, demo_instance):
        plan, basis = self._prepare_registers(demo_instance, "1000")
        assert plan.w.value_of(basis) == 7
        assert plan.fitness_encoding.decode(plan.f.value_of(basis)) == 4
        assert (basis >> plan.v) & 1 == 0
        assert plan.g.value_of(basis) == 0

    def test_prepare_negates_invalid_candidates(self, demo_instance):
        plan, basis = self._prepare_registers(demo_instance, "1011")
        assert plan.w.value_of(basis) == 12
        assert (basis >> plan.v) & 1 == 1
        assert plan.fitness_encoding.decode(plan.f.value_of(basis)) == -12

    def test_threshold_13_marks_exactly_the_two_best(self, demo_instance):
        plan = plan_registers(demo_instance)
        prepare, mark = compile_prepare(demo_instance, plan), compile_oracle(plan, 13)
        marked = []
        for candidate in all_candidates(4):
            i = candidate_to_index(candidate, 4)
            state = new_basis_state(plan.total_qubits, i << plan.q.offset)
            apply_sequence(state, (x(plan.r), h(plan.r)))
            apply_sequence(state, prepare)
            apply_sequence(state, mark)
            apply_sequence(state, inverse(prepare))
            amp = get_amplitude(state, i << plan.q.offset)
            assert abs(abs(amp) - 1 / math.sqrt(2)) < 1e-10
            if amp.real < 0:
                marked.append(candidate)
        assert marked == ["0110", "0111"]

    def test_threshold_must_be_representable(self, demo_instance):
        plan = plan_registers(demo_instance)
        with pytest.raises(ValueError, match="representable"):
            compile_oracle(plan, 32)
        with pytest.raises(ValueError, match="representable"):
            compile_oracle(plan, -33)

    def test_marks_follow_the_signed_fitness_at_every_threshold(self, demo_instance):
        # The circuit holds the negated fitness for invalid candidates, so a
        # candidate is marked where that signed fitness exceeds the threshold;
        # from 0 up that is exactly the valid candidates above it.
        plan = plan_registers(demo_instance)
        frame = compile_frame(demo_instance, plan)
        evaluations = [classical_evaluate(demo_instance, c) for c in all_candidates(4)]
        indices = [candidate_to_index(ev.candidate, 4) for ev in evaluations]
        enc = plan.fitness_encoding
        for threshold in range(enc.min_value, enc.max_value + 1):
            marks = grover.oracle_marks(frame, compile_oracle(plan, threshold))
            for i, ev in zip(indices, evaluations):
                signed = ev.fitness if ev.valid else -ev.fitness
                assert marks[i] == (signed > threshold), (threshold, ev)
                if threshold >= 0:
                    assert marks[i] == (ev.valid and ev.fitness > threshold)

    def test_uncompute_hygiene_on_uniform_state(self, demo_instance):
        plan = plan_registers(demo_instance)
        frame = compile_frame(demo_instance, plan)
        state = prepare_search_state(frame)
        apply_sequence(state, frame.prepare)
        apply_sequence(state, compile_oracle(plan, 13))
        apply_sequence(state, inverse(frame.prepare))
        frame_mass = 0.0
        for i in range(16):
            a0 = get_amplitude(state, i << plan.q.offset)
            a1 = get_amplitude(state, (i << plan.q.offset) | (1 << plan.r))
            # |-> component per candidate; anything else is contamination
            frame_mass += abs(a0 - a1) ** 2 / 2
        assert norm_squared(state) - frame_mass < 1e-12


class TestEnumerateTable:
    def test_matches_classical_on_demo(self, demo_instance):
        quantum = enumerate_table(demo_instance)
        classical = [classical_evaluate(demo_instance, c) for c in all_candidates(4)]
        assert quantum == classical

    def test_single_item_table(self):
        rows = enumerate_table(KnapsackInstance(((2, 3),), 1))
        assert [(r.candidate, r.fitness, r.weight, r.valid) for r in rows] == [
            ("0", 0, 0, True),
            ("1", 3, 2, False),
        ]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_classical_on_random_instances(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(4):
            instance = random_instance(rng, n)
            quantum = enumerate_table(instance)
            classical = [classical_evaluate(instance, c) for c in all_candidates(n)]
            assert quantum == classical


class TestVerify:
    def test_demo_instance_passes(self, demo_instance):
        report = verify_instance(demo_instance)
        assert report.ok
        assert report.candidates_checked == 16
        assert len(report.thresholds_checked) == 5
        assert report.mismatch is None

    def test_random_instances_pass(self):
        rng = np.random.default_rng(31)
        for n in (3, 4, 5):
            report = verify_instance(random_instance(rng, n))
            assert report.ok

    def test_fifty_random_instances_agree_with_brute_force(self):
        # Register contents and kickback phases against the classical
        # reference, five sampled thresholds each, for 50 random instances.
        rng = np.random.default_rng(501)
        for index in range(50):
            instance = random_instance(rng, (3, 4, 5)[index % 3])
            report = verify_instance(instance, threshold_seed=index)
            assert report.ok, report.mismatch


    def test_dirty_uncompute_is_a_mismatch(self, demo_instance, monkeypatch):
        compile_clean = kp.compile_oracle

        def compile_dirty(plan, threshold):
            return compile_clean(plan, threshold) + (cnot(plan.q.bit(1), plan.g.bit(0)),)

        monkeypatch.setattr(kp, "compile_oracle", compile_dirty)
        report = verify_instance(demo_instance)
        assert not report.ok
        assert "contamination" in report.mismatch


    def test_wrong_marks_are_a_mismatch(self, demo_instance, monkeypatch):
        compile_clean = kp.compile_oracle

        def compile_off_by_one(plan, threshold):
            return compile_clean(plan, threshold + 1)

        monkeypatch.setattr(kp, "compile_oracle", compile_off_by_one)
        report = verify_instance(demo_instance)
        assert not report.ok
        assert report.thresholds_checked == (5, 15, 2, 4, 7)  # one rng.integers call below 2^63
        # First threshold in draw order, first candidate in table order.
        assert report.mismatch == (
            "candidate 0001 at threshold 2: kickback phase disagrees with "
            "the classical predicate (expected marked=True)"
        )

    @pytest.mark.parametrize(
        "register, computed",
        [
            ("w", "weight=1, fitness=0, valid=True"),
            ("f", "weight=0, fitness=1, valid=True"),
            ("v", "weight=0, fitness=0, valid=False"),
        ],
    )
    def test_wrong_table_is_a_mismatch(self, demo_instance, monkeypatch, register, computed):
        prepare_clean = kp.compile_prepare

        def prepare_with_stray_bit(instance, plan):
            qubit = plan.v if register == "v" else getattr(plan, register).bit(0)
            return prepare_clean(instance, plan) + (x(qubit),)

        monkeypatch.setattr(kp, "compile_prepare", prepare_with_stray_bit)
        report = verify_instance(demo_instance)
        assert report.ok is False
        assert report.thresholds_checked == ()
        # The first candidate in table order is reported.
        assert report.mismatch == (
            f"candidate 0000: circuit computed ({computed}), "
            "classical reference (weight=0, fitness=0, valid=True)"
        )


def reference_table(instance):
    """Per-string brute force over every candidate, in table order."""
    return [classical_evaluate(instance, c) for c in all_candidates(instance.n)]


def reference_max(instance):
    """First strictly better valid row of ``reference_table`` wins ties."""
    best = None
    for row in reference_table(instance):
        if row.valid and (best is None or row.fitness > best.fitness):
            best = row
    return best


def _huge(draw, bit_lengths):
    """A field of one of ``bit_lengths`` bits."""
    bits = draw(st.sampled_from(bit_lengths))
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


@st.composite
def edge_instances(draw, max_items=6, field=st.integers(0, 15), huge=(20, 40, 63, 64, 71)):
    """Instances with zero weights or values, capacity 0 or past the total,
    a single item, and at times one weight and one value of ``huge`` bit
    lengths, wide enough to widen w, f and g. From 64 bits the field is past
    2^63: object columns and plans of over 62 qubits."""
    n = draw(st.integers(1, max_items))
    items = draw(st.lists(st.tuples(field, field), min_size=n, max_size=n))
    if huge and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        items[k] = (_huge(draw, huge), items[k][1])
    if huge and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        items[k] = (items[k][0], _huge(draw, huge))
    total = sum(w for w, _ in items)
    capacity = draw(
        st.sampled_from(("between", "zero", "total_or_more")).flatmap(
            lambda kind: {
                "zero": st.just(0),
                "between": st.integers(0, total),
                "total_or_more": st.integers(total, total + 3),
            }[kind]
        )
    )
    return KnapsackInstance(tuple(items), capacity)


def column_rows(instance):
    weight, fitness, valid = kp._classical_columns(instance)
    return list(zip(weight.tolist(), fitness.tolist(), valid.tolist()))


def assert_columns_match_reference(instance):
    reference = reference_table(instance)
    assert column_rows(instance) == [(r.weight, r.fitness, r.valid) for r in reference]
    assert classical_max(instance) == reference_max(instance)


def assert_circuit_matches_reference(instance):
    table = enumerate_table(instance)
    assert table == reference_table(instance)
    assert [(r.weight, r.fitness, r.valid) for r in table] == column_rows(instance)
    report = verify_instance(instance)
    assert report.ok, report.mismatch
    assert all(0 <= t <= sum(instance.values) for t in report.thresholds_checked)


class TestThreeWayAgreement:
    """Brute-force columns, the per-string reference and the circuit agree."""

    @given(edge_instances())
    def test_columns_and_max_match_per_string_reference(self, instance):
        assert_columns_match_reference(instance)

    @given(edge_instances())
    def test_circuit_table_and_verify_match_brute_force(self, instance):
        assert_circuit_matches_reference(instance)

    @given(edge_instances(max_items=5, field=st.integers(1 << 60, 1 << 70), huge=()))
    def test_sums_past_int64_do_not_overflow(self, instance):
        assert_columns_match_reference(instance)
        assert_circuit_matches_reference(instance)

    def test_sums_past_int64_use_python_ints(self):
        instance = KnapsackInstance(((1 << 62, 1 << 62), (1 << 62, 1 << 62)), 1 << 63)
        weight, fitness, valid = kp._classical_columns(instance)
        assert weight.dtype == object and fitness.dtype == object
        assert weight.tolist() == [0, 1 << 62, 1 << 62, 1 << 63]
        assert valid.tolist() == [True, True, True, True]
        best = classical_max(instance)
        assert (best.candidate, best.fitness) == ("11", 1 << 63)


@st.composite
def small_plans(draw, max_qubits=20):
    """An edge instance whose register plan has at most ``max_qubits`` qubits,
    and a threshold anywhere in its fitness register's range."""
    instance = draw(
        edge_instances(max_items=4, field=st.integers(0, 7), huge=()).filter(
            lambda i: plan_registers(i).total_qubits <= max_qubits
        )
    )
    enc = plan_registers(instance).fitness_encoding
    return instance, draw(st.integers(enc.min_value, enc.max_value))


class TestGateLevelReference:
    """The fused oracle path against the gate-by-gate reference engine."""

    @given(small_plans())
    def test_oracle_signs_and_ancillas_match_oracle_marks(self, case):
        instance, threshold = case
        plan = plan_registers(instance)
        frame, mark = compile_frame(instance, plan), compile_oracle(plan, threshold)
        marks = grover.oracle_marks(frame, mark)

        state = prepare_search_state(frame)
        for stage in (frame.prepare, mark, inverse(frame.prepare)):
            apply_sequence(state, stage)
        size = 1 << instance.n
        # Every ancilla is back at 0: only q and kickback bits are set, on
        # exactly the 2N frame states.
        frame_bits = sum(1 << q for q in plan.q.bits) | (1 << plan.r)
        assert state.indices.size == 2 * size
        assert not np.any(state.indices & ~frame_bits)
        # The kickback stays |->, and the sign of each q value is its mark.
        kickback_0 = np.array([get_amplitude(state, i << plan.q.offset) for i in range(size)])
        kickback_1 = np.array(
            [get_amplitude(state, (i << plan.q.offset) | (1 << plan.r)) for i in range(size)]
        )
        np.testing.assert_allclose(np.abs(kickback_0), 1 / math.sqrt(2 * size), rtol=0, atol=1e-12)
        np.testing.assert_allclose(kickback_1, -kickback_0, rtol=0, atol=1e-12)
        assert (kickback_0.real < 0).tolist() == marks.tolist()
        # ... and both agree with brute force. The circuit compares the stored
        # fitness, negated where invalid, so below 0 invalid candidates count.
        _, fitness, valid = kp._classical_columns(instance)
        stored = np.where(valid, fitness, -fitness)
        assert marks[candidate_indices(instance.n)].tolist() == (stored > threshold).tolist()


def searched_thresholds(trace) -> list[int]:
    """The thresholds a run searched at, in order: the initial one, then each
    accepted step's."""
    accepted = [step.threshold_after for step in trace.steps if step.accepted]
    return [trace.initial_threshold] + accepted


class TestComputeOnce:
    """The compute stage goes through the index map once per instance."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Gates of every ``permute_planes`` call and every compiled mark, and
        the frame of every ``oracle_marks`` call."""
        pushed, compiled, frames = [], [], []
        push, compile_clean, marks = sv.permute_planes, kp.compile_oracle, kp.oracle_marks

        def counting_push(planes, gates, size):
            pushed.append(tuple(gates))
            return push(planes, gates, size)

        def recording_compile(*args, **kwargs):
            compiled.append(compile_clean(*args, **kwargs))
            return compiled[-1]

        for module in (grover, kp, sv):
            if hasattr(module, "permute_planes"):
                monkeypatch.setattr(module, "permute_planes", counting_push)
        monkeypatch.setattr(kp, "compile_oracle", recording_compile)
        monkeypatch.setattr(kp, "oracle_marks", lambda frame, mark: frames.append(frame) or marks(frame, mark))
        return pushed, compiled, frames

    def _assert_prepare_once_then_marks(self, recorded, instance):
        pushed, compiled, frames = recorded
        prepare = compile_prepare(instance, plan_registers(instance))
        assert pushed[0] == prepare
        assert pushed[1:] == compiled
        assert len(frames) == len(compiled) and all(frame is frames[0] for frame in frames)

    def test_maximize(self, demo_instance, recorded):
        trace = maximize(demo_instance, seed=1, confirmation_count=2)
        thresholds = searched_thresholds(trace)
        # one compile per distinct threshold: the confirmation round reuses the marks
        assert len(set(thresholds)) == len(thresholds) == trace.rounds - 1 > 1
        plan = plan_registers(demo_instance)
        assert recorded[1] == [compile_oracle(plan, t) for t in thresholds]
        self._assert_prepare_once_then_marks(recorded, demo_instance)

    def test_confirmation_rounds_reuse_the_marks(self, monkeypatch, capsys):
        calls = []
        marks = kp.oracle_marks
        monkeypatch.setattr(kp, "oracle_marks", lambda *oracle: calls.append(oracle) or marks(*oracle))
        argv = ["solve", str(DEMO_INSTANCE_FILE), "--confirmations", "3", "--format", "machine"]
        assert cli.main(argv + ["--seed", "5"]) == 0
        records = [dict(field.split("=") for field in line.split())
                   for line in capsys.readouterr().out.splitlines()]
        steps = records[1:-1]
        thresholds = [records[0]["initial_threshold"]]
        thresholds += [step["threshold_after"] for step in steps if step["accepted"] == "1"]
        rounds = int(records[-1]["rounds"])
        assert len(set(thresholds)) == len(thresholds) == rounds - 2
        assert len(calls) == len(thresholds)
        assert rounds == int(steps[-1]["round"]) and len({s["round"] for s in steps}) == rounds

    def test_verify(self, demo_instance, recorded):
        report = verify_instance(demo_instance)
        assert report.ok
        assert len(recorded[1]) == len(report.thresholds_checked)
        self._assert_prepare_once_then_marks(recorded, demo_instance)

    def test_each_measured_candidate_is_evaluated_once(self, demo_instance, monkeypatch):
        evaluated = []
        evaluate = kp.classical_evaluate

        def counting_evaluate(instance, candidate):
            evaluated.append(candidate)
            return evaluate(instance, candidate)

        monkeypatch.setattr(kp, "classical_evaluate", counting_evaluate)
        trace = maximize(demo_instance, seed=1, confirmation_count=2)
        measured = [step.measured_candidate for step in trace.steps]
        assert len(set(measured)) < len(measured)  # some candidate is measured twice
        # the initial threshold draw, then each distinct measured candidate once
        assert evaluated[1:] == list(dict.fromkeys(measured))


class TestBuiltOnce:
    """Circuit blocks are cached; the compiled stages are not."""

    def test_compile_prepare_returns_a_fresh_equal_sequence(self, demo_instance):
        plan = plan_registers(demo_instance)
        first = compile_prepare(demo_instance, plan)
        second = compile_prepare(demo_instance, plan)
        assert first == second and first is not second
        # the memoized builders' blocks are shared, so both hold the same gate objects
        assert all(a is b for a, b in zip(first, second))

    def test_signed_comparator_is_built_once_per_run(self, demo_instance):
        kp.build_signed_comparator.cache_clear()
        trace = maximize(demo_instance, seed=1, confirmation_count=2)
        info = kp.build_signed_comparator.cache_info()
        assert info.misses <= 1
        # compiled once per distinct threshold, not once per round
        assert info.hits + info.misses == len(searched_thresholds(trace)) == trace.rounds - 1 > 1


class TestWideRegisters:
    """Bit planes need no dense state, so no register width limits them."""

    # 36 qubits but a four-entry frame: the width costs only gates
    WIDE = KnapsackInstance(((1000, 1), (1, 1000)), 1000)
    # 102 qubits: past the widest register int64 basis indices could address
    TOO_WIDE = KnapsackInstance(((2**30, 2**30), (2**30, 2**30)), 1)

    def test_wide_instance_solves_and_verifies_above_the_default_cap(self):
        assert plan_registers(self.WIDE).total_qubits == 36
        quantum = enumerate_table(self.WIDE)
        assert quantum == [classical_evaluate(self.WIDE, c) for c in all_candidates(2)]
        assert verify_instance(self.WIDE).ok
        trace = maximize(self.WIDE, seed=3)
        assert (trace.final_candidate, trace.final_fitness) == ("01", 1000)

    def test_past_int64_width_agrees_with_brute_force(self):
        assert plan_registers(self.TOO_WIDE).total_qubits == 102
        assert enumerate_table(self.TOO_WIDE) == reference_table(self.TOO_WIDE)
        assert verify_instance(self.TOO_WIDE).ok
        best = classical_max(self.TOO_WIDE)
        for seed in range(3):
            trace = maximize(self.TOO_WIDE, seed=seed)
            assert (trace.final_fitness, trace.total_qubits) == (best.fitness, 102)

    def test_twelve_items_of_220_qubits(self):
        # Every field past 2^63, sums near 2^68: a 220-qubit plan.
        items = tuple(((1 << 64) + k, (1 << 64) + 3 * k) for k in range(12))
        instance = KnapsackInstance(items, sum(w for w, _ in items) // 2)
        assert plan_registers(instance).total_qubits == 220
        assert verify_instance(instance).ok
        best = classical_max(instance)
        assert maximize(instance, seed=1).final_fitness == best.fitness

    def test_thresholds_past_int64_are_drawn(self):
        # Value sums of about 2^80: numpy's int64 bound would refuse the draw.
        instance = KnapsackInstance(((1, 1 << 80), (2, (1 << 80) + 7), (3, 5)), 3)
        report = verify_instance(instance)
        assert report.ok, report.mismatch
        assert len(report.thresholds_checked) == 5
        assert all(0 <= t <= sum(instance.values) for t in report.thresholds_checked)
        assert max(report.thresholds_checked) >= 1 << 63
        assert verify_instance(instance) == report


class TestMaximize:
    def test_finds_demo_optimum_across_seeds(self, demo_instance):
        for seed in range(10):
            trace = maximize(demo_instance, seed=seed)
            assert trace.final_candidate == DEMO_BEST_CANDIDATE
            assert trace.final_fitness == DEMO_BEST_FITNESS

    def test_forced_optimal_threshold_exhausts_immediately(self, demo_instance):
        trace = maximize(demo_instance, seed=5, initial_threshold=18)
        assert trace.final_fitness == 18
        assert trace.final_candidate is None
        assert trace.rounds == 1
        assert not any(step.accepted for step in trace.steps)

    def test_single_infeasible_item(self):
        trace = maximize(KnapsackInstance(((5, 9),), 3), seed=2)
        assert (trace.final_candidate, trace.final_fitness) == ("0", 0)

    @pytest.mark.parametrize("items, capacity", [(((3, 7),), 5), (((5, 9),), 3)])
    def test_single_item_four_entry_frame(self, items, capacity):
        instance = KnapsackInstance(items, capacity)
        plan = plan_registers(instance)
        frame = compile_frame(instance, plan)
        assert frame.candidates == 2 and all(plane < 1 << 4 for plane in frame.planes)
        assert verify_instance(instance).ok
        best = classical_max(instance)
        for seed in range(5):
            assert maximize(instance, seed=seed).final_fitness == best.fitness

    def test_thresholds_strictly_increase_across_accepted_steps(self, demo_instance):
        for seed in (3, 11, 19):
            trace = maximize(demo_instance, seed=seed)
            accepted = [s.threshold_after for s in trace.steps if s.accepted]
            assert all(b > a for a, b in zip(accepted, accepted[1:]))

    def test_iteration_accounting(self, demo_instance):
        trace = maximize(demo_instance, seed=8)
        assert trace.total_grover_iterations == sum(s.j for s in trace.steps)
        cumulative = 0
        for step in trace.steps:
            cumulative += step.j
            assert step.grover_iterations_cumulative == cumulative

    def test_deterministic_given_seed(self, demo_instance):
        assert maximize(demo_instance, seed=21) == maximize(demo_instance, seed=21)

    def test_confirmation_count_adds_rounds(self, demo_instance):
        relaxed = maximize(demo_instance, seed=4, initial_threshold=18, confirmation_count=3)
        assert relaxed.rounds == 3
        assert relaxed.final_fitness == 18

    def test_max_rounds_caps_run(self, demo_instance):
        trace = maximize(demo_instance, seed=4, initial_threshold=0, max_rounds=1)
        assert trace.rounds == 1

    def test_bad_config_rejected(self, demo_instance):
        with pytest.raises(ValueError):
            maximize(demo_instance, seed=0, confirmation_count=0)
        with pytest.raises(ValueError):
            maximize(demo_instance, seed=0, max_rounds=0)
        with pytest.raises(ValueError):
            maximize(demo_instance, seed=0, initial_threshold=99)

    @pytest.mark.parametrize("threshold", [32, -33, 99])
    def test_unrepresentable_initial_threshold_raises_before_any_search(
        self, demo_instance, monkeypatch, threshold
    ):
        def no_search(*args):
            raise AssertionError("boyer_search ran")

        monkeypatch.setattr(kp, "boyer_search", no_search)
        message = f"threshold {threshold} not representable in 6-bit two's complement [-32, 31]"
        with pytest.raises(ValueError, match=re.escape(message)):
            maximize(demo_instance, seed=0, initial_threshold=threshold)

    def test_trace_records_initial_draw(self, demo_instance):
        trace = maximize(demo_instance, seed=13)
        ev = classical_evaluate(demo_instance, trace.initial_candidate)
        if ev.valid and trace.initial_candidate != "0000":
            assert trace.initial_threshold == ev.fitness
        else:
            assert trace.initial_threshold == 0


class TestGroverIntegration:
    """The compiled oracle driven through full Grover iterations."""

    def _one_iteration_state(self, instance, threshold):
        plan = plan_registers(instance)
        frame = compile_frame(instance, plan)
        state = prepare_search_state(frame)
        grover_iteration(state, frame, compile_oracle(plan, threshold), build_diffusion(plan.q))
        return plan, state

    def test_one_iteration_total_marked_probability(self, demo_instance):
        plan, state = self._one_iteration_state(demo_instance, 13)
        total = 0.0
        for candidate in ("0110", "0111"):
            base = candidate_to_index(candidate, 4) << plan.q.offset
            total += (
                abs(get_amplitude(state, base)) ** 2
                + abs(get_amplitude(state, base | (1 << plan.r))) ** 2
            )
        assert abs(total - 50 / 64) < 1e-10

    def test_sampling_the_amplified_state(self, demo_instance):
        plan, state = self._one_iteration_state(demo_instance, 13)
        rng = np.random.default_rng(99)
        marked = {candidate_to_index(c, 4) for c in ("0110", "0111")}
        q_mask = (1 << 4) - 1
        samples = 4000
        hits = sum(
            ((measure_all(state, rng) >> plan.q.offset) & q_mask) in marked
            for _ in range(samples)
        )
        p = 50 / 64
        sigma = math.sqrt(samples * p * (1 - p))
        assert abs(hits - samples * p) < 5 * sigma


class TestResourceEstimate:
    def test_demo_qubits(self, demo_instance):
        assert estimate_resources(demo_instance).qubits == 23

    def test_single_item_qubits_follow_width_formulas(self):
        # n + w + g + f + v + r = 1 + 1 + 2 + 2 + 1 + 1
        assert estimate_resources(KnapsackInstance(((1, 1),), 1)).qubits == 8

    def test_expected_iterations_at_single_solution(self, demo_instance):
        assert estimate_resources(demo_instance).grover_iterations_expected == 4

    def test_counts_grow_with_item_count(self):
        small = estimate_resources(KnapsackInstance(((3, 3), (3, 3), (3, 3)), 6))
        large = estimate_resources(
            KnapsackInstance(((3, 3), (3, 3), (3, 3), (3, 3)), 6)
        )
        assert sum(large.gate_counts.values()) > sum(small.gate_counts.values())
        assert large.toffoli_equivalent > small.toffoli_equivalent

    def test_no_cap_applied(self):
        heavy = KnapsackInstance(tuple((5000, 5000) for _ in range(12)), 10)
        estimate = estimate_resources(heavy)
        assert estimate.qubits > 26

    def test_deterministic(self, demo_instance):
        assert estimate_resources(demo_instance) == estimate_resources(demo_instance)
