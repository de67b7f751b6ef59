"""Diffusion, phase kickback, iteration counts, and the unknown-count schedule."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import (
    DEMO_CAPACITY,
    DEMO_ITEMS,
    permutation_kinds,
    push_states,
    random_gate,
    random_sequence,
)
from qsmax import grover
from qsmax.arithmetic import RegisterRef
from qsmax.grover import (
    BoyerResult,
    BoyerSchedule,
    BoyerStep,
    OracleCircuit,
    boyer_search,
    build_diffusion,
    iteration_count,
    oracle_marks,
    prepare_frame,
)
from qsmax.knapsack import (
    KnapsackInstance,
    compile_oracle,
    compile_prepare,
    plan_registers,
)
from qsmax.statevector import (
    GateSequence,
    IntegrityError,
    cnot,
    h,
    mcx,
    toffoli,
    x,
)
from reference_engine import (
    amplitude_vector,
    apply_sequence,
    from_amplitudes,
    get_amplitude,
    grover_iteration,
    measure_all,
    new_basis_state,
    norm_squared,
    prepare_search_state,
    sample_basis,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def toy_oracle(
    n: int, marked: set[int], extra_ancillas: int = 0, kickback_below_q: bool = False
) -> OracleCircuit:
    """Oracle flipping the kickback qubit exactly on the marked q values.

    The kickback sits above q, or with ``kickback_below_q`` at qubit 0 under
    q, where sorted full-register order interleaves the two kickback branches.
    """
    q = RegisterRef("q", int(kickback_below_q), n)
    kickback = 0 if kickback_below_q else n
    gates = []
    for target in marked:
        off = [x(q.bit(i)) for i in range(n) if not (target >> i) & 1]
        gates.extend(off)
        gates.append(mcx(q.bits, kickback))
        gates.extend(off)
    return OracleCircuit(
        prepare=GateSequence(),
        mark=GateSequence(gates),
        unprepare=GateSequence(),
        q_register=q,
        kickback_qubit=kickback,
        num_qubits=n + 1 + extra_ancillas,
    )


def demo_oracle(threshold: int) -> OracleCircuit:
    instance = KnapsackInstance(DEMO_ITEMS, DEMO_CAPACITY)
    return compile_oracle(instance, plan_registers(instance), threshold)


def dirty_oracle(leak) -> OracleCircuit:
    """toy_oracle with one extra gate in ``mark`` that breaks the uncompute."""
    oracle = toy_oracle(3, {5}, extra_ancillas=1)
    return OracleCircuit(
        prepare=oracle.prepare,
        mark=oracle.mark + [leak],
        unprepare=oracle.unprepare,
        q_register=oracle.q_register,
        kickback_qubit=oracle.kickback_qubit,
        num_qubits=oracle.num_qubits,
    )


def whole_oracle_marks(oracle: OracleCircuit):
    """The phase-kickback contract checked on prepare + mark + unprepare.

    Returns (marks, None), or (None, (q value, image at kickback 0, image at
    kickback 1)) for the first candidate whose images break the contract.
    """
    q = oracle.q_register
    kick = 1 << oracle.kickback_qubit
    register = np.arange(1 << q.width, dtype=np.int64) << q.offset
    whole = oracle.prepare + oracle.mark + oracle.unprepare
    image0 = np.array(push_states(register, whole, oracle.num_qubits))
    image1 = np.array(push_states(register | kick, whole, oracle.num_qubits))
    flips0, flips1 = image0 ^ register, image1 ^ register ^ kick
    bad = np.flatnonzero((flips0 != flips1) | ((flips0 & ~kick) != 0))
    if bad.size:
        c = int(bad[0])
        return None, (c, int(image0[c]), int(image1[c]))
    return flips0 == kick, None


def reference_boyer_search(oracle, classical_check, schedule, max_steps, measure_rng):
    """The unknown-count search run gate by gate on the full statevector."""
    diffusion = build_diffusion(oracle.q_register)
    q = oracle.q_register
    q_mask = (1 << q.width) - 1
    steps = []
    iterations = 0
    for _ in range(max_steps):
        m_now = schedule.m
        j = schedule.draw_iterations()
        state = prepare_search_state(oracle)
        for _ in range(j):
            grover_iteration(state, oracle, diffusion)
        iterations += j
        candidate = (measure_all(state, measure_rng) >> q.offset) & q_mask
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m=m_now, j=j, candidate=candidate, passed=passed))
        if passed:
            return BoyerResult(candidate, tuple(steps), iterations)
        schedule.grow()
    return BoyerResult(None, tuple(steps), iterations)


def search_amplitudes(marks: np.ndarray, iterations: int) -> np.ndarray:
    """Candidate amplitudes after ``iterations`` Grover iterations, in closed form.

    Entry x is the amplitude of |x>_q |0...0> |->; the gate-level state
    holds it as a_x/sqrt(2) at kickback 0 and -a_x/sqrt(2) at kickback 1.
    These are the amplitudes ``boyer_search`` samples from.
    """
    n_marked = int(np.count_nonzero(marks))
    return np.where(marks, *grover._amplitude_pair(n_marked, marks.size, iterations))


def iterated_amplitudes(marks: np.ndarray):
    """``search_amplitudes`` after 0, 1, 2, ... iterations, one at a time.

    Each iteration is a sign flip on the marked set, then a - 2 mean(a).
    """
    amplitudes = np.full(marks.size, 1.0 / math.sqrt(marks.size))
    signs = np.where(marks, -1.0, 1.0)
    while True:
        yield amplitudes.copy()
        amplitudes *= signs
        amplitudes -= 2.0 * amplitudes.mean()


def q_amplitudes(state, oracle) -> np.ndarray:
    """Subspace amplitudes over q with the kickback in |->, ancillas |0>."""
    n = oracle.q_register.width
    out = np.empty(1 << n, dtype=complex)
    for i in range(1 << n):
        out[i] = get_amplitude(state, i) * math.sqrt(2.0)
    return out


class TestDiffusion:
    def test_structure(self):
        q = RegisterRef("q", 0, 3)
        seq = build_diffusion(q)
        kinds = [g.kind.value for g in seq]
        assert kinds == ["H", "H", "H", "CPHASE_FLIP_ZERO", "H", "H", "H"]

    def test_uniform_state_fixed_up_to_global_phase(self):
        state = from_amplitudes(np.full(16, 0.25))
        apply_sequence(state, build_diffusion(RegisterRef("q", 0, 4)))
        np.testing.assert_allclose(amplitude_vector(state), np.full(16, -0.25), atol=1e-10)

    def test_mean_inversion_law_random_states(self):
        rng = np.random.default_rng(5)
        diffusion = build_diffusion(RegisterRef("q", 0, 4))
        for _ in range(20):
            raw = rng.normal(size=16) + 1j * rng.normal(size=16)
            raw /= np.linalg.norm(raw)
            state = from_amplitudes(raw)
            apply_sequence(state, diffusion)
            # emitted operator is I - 2|s><s|: a global -1 times 2<a> - a_i
            expected = raw - 2.0 * raw.mean()
            np.testing.assert_allclose(amplitude_vector(state), expected, atol=1e-10)

    def test_zero_state_pattern(self):
        n = 4
        state = new_basis_state(n, 0)
        apply_sequence(state, build_diffusion(RegisterRef("q", 0, n)))
        expected = np.full(16, -2.0 / 16)
        expected[0] += 1.0
        np.testing.assert_allclose(amplitude_vector(state), expected, atol=1e-10)
        # magnitudes match the 2<a> - a_i form regardless of the global sign
        np.testing.assert_allclose(
            np.abs(amplitude_vector(state)), np.abs(2.0 / 16 - (np.arange(16) == 0)), atol=1e-10
        )

    def test_involution(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=32)
        raw /= np.linalg.norm(raw)
        state = from_amplitudes(raw)
        diffusion = build_diffusion(RegisterRef("q", 0, 5))
        apply_sequence(state, diffusion)
        apply_sequence(state, diffusion)
        np.testing.assert_allclose(amplitude_vector(state), raw, atol=1e-10)

    def test_worked_amplitude_example(self):
        # 14 amplitudes at +1/4 and two at -1/4 diffuse to 1/8 and 5/8.
        amps = np.full(16, 0.25)
        amps[[6, 14]] = -0.25
        state = from_amplitudes(amps)
        apply_sequence(state, build_diffusion(RegisterRef("q", 0, 4)))
        got = np.abs(amplitude_vector(state))
        np.testing.assert_allclose(got[[6, 14]], 5 / 8, atol=1e-10)
        others = [i for i in range(16) if i not in (6, 14)]
        np.testing.assert_allclose(got[others], 1 / 8, atol=1e-10)


class TestIterationCount:
    def test_spot_checks(self):
        assert iteration_count(16, 2) == 3
        assert iteration_count(4, 1) == 2
        assert iteration_count(16, 16) == 1

    def test_zero_solutions_rejected(self):
        with pytest.raises(ValueError, match="unknown-count"):
            iteration_count(16, 0)

    def test_more_solutions_than_items_rejected(self):
        with pytest.raises(ValueError):
            iteration_count(4, 5)


class TestOracleContract:
    def test_unprepare_must_reverse_prepare(self):
        q = RegisterRef("q", 0, 2)
        prep = GateSequence([cnot(0, 2), x(0)])
        with pytest.raises(ValueError, match="reverse"):
            OracleCircuit(
                prepare=prep,
                mark=GateSequence(),
                unprepare=prep,  # same order, not the reverse
                q_register=q,
                kickback_qubit=3,
                num_qubits=4,
            )

    def test_phase_kickback_exhaustive(self):
        n = 4
        marked = {3, 9, 14}
        oracle = toy_oracle(n, marked)
        for i in range(1 << n):
            state = new_basis_state(oracle.num_qubits, i)
            apply_sequence(
                state,
                GateSequence([x(oracle.kickback_qubit), h(oracle.kickback_qubit)]),
            )
            apply_sequence(state, oracle.prepare)
            apply_sequence(state, oracle.mark)
            apply_sequence(state, oracle.unprepare)
            sign = -1.0 if i in marked else 1.0
            assert abs(get_amplitude(state, i) - sign * INV_SQRT2) < 1e-10
            assert (
                abs(get_amplitude(state, i | (1 << oracle.kickback_qubit)) + sign * INV_SQRT2)
                < 1e-10
            )


class TestGroverIteration:
    def test_empty_marked_set_is_global_phase(self):
        oracle = toy_oracle(4, set())
        state = prepare_search_state(oracle)
        before = q_amplitudes(state, oracle)
        grover_iteration(state, oracle, build_diffusion(oracle.q_register))
        after = q_amplitudes(state, oracle)
        np.testing.assert_allclose(after, -before, atol=1e-10)

    def test_all_marked_is_global_phase(self):
        oracle = toy_oracle(3, set(range(8)))
        state = prepare_search_state(oracle)
        before = q_amplitudes(state, oracle)
        grover_iteration(state, oracle, build_diffusion(oracle.q_register))
        after = q_amplitudes(state, oracle)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_single_iteration_known_probability(self):
        # N=16, M=2: one iteration boosts each marked item to 25/64.
        oracle = toy_oracle(4, {6, 14})
        state = prepare_search_state(oracle)
        grover_iteration(state, oracle, build_diffusion(oracle.q_register))
        for i in (6, 14):
            p = abs(get_amplitude(state, i)) ** 2 + abs(
                get_amplitude(state, i | (1 << oracle.kickback_qubit))
            ) ** 2
            assert abs(p - 25 / 64) < 1e-10

    def test_known_count_amplification_bound(self):
        # The 1 - M/N success bound is guaranteed for floor((pi/4)sqrt(N/M))
        # iterations; the ceiling form of iteration_count can rotate past the
        # peak at small N (e.g. N=16, M=1), so the bound is checked at the
        # floor and the ceiling is checked to stay within one iteration of it.
        n = 4
        big_n = 1 << n
        for m in (1, 2, 3, 4):
            marked = set(range(m))
            oracle = toy_oracle(n, marked)
            diffusion = build_diffusion(oracle.q_register)
            state = prepare_search_state(oracle)
            k_floor = math.floor(math.pi / 4 * math.sqrt(big_n / m))
            for _ in range(k_floor):
                grover_iteration(state, oracle, diffusion)
            amps = q_amplitudes(state, oracle)
            p_marked = float(np.sum(np.abs(amps[list(marked)]) ** 2))
            assert p_marked > 1 - m / big_n
            assert iteration_count(big_n, m) - k_floor in (0, 1)

    def test_dirty_ancilla_raises_integrity_error(self):
        dirty = dirty_oracle(cnot(0, 4))  # leaks candidate bit 0 into the ancilla
        state = prepare_search_state(dirty)
        with pytest.raises(IntegrityError, match="contamination"):
            grover_iteration(state, dirty, build_diffusion(dirty.q_register))


class TestFusedSearch:
    """The index-map marks and 2^n-amplitude iteration against the gate level."""

    def test_marks_of_toy_oracle(self):
        marks = oracle_marks(toy_oracle(4, {3, 9, 14}))
        assert np.flatnonzero(marks).tolist() == [3, 9, 14]

    def test_marks_of_demo_oracle(self):
        # threshold 13: exactly candidates 0110 and 0111 (q values 6 and 14)
        assert np.flatnonzero(oracle_marks(demo_oracle(13))).tolist() == [6, 14]

    @pytest.mark.parametrize(
        "oracle",
        [
            pytest.param(demo_oracle(13), id="demo-t13"),
            pytest.param(toy_oracle(4, set()), id="toy-M0"),
            pytest.param(toy_oracle(4, {11}), id="toy-M1"),
            pytest.param(toy_oracle(4, {3, 9, 14}), id="toy-M3"),
            pytest.param(toy_oracle(4, set(range(16))), id="toy-M16"),
        ],
    )
    def test_amplitudes_match_grover_iteration(self, oracle):
        marks = oracle_marks(oracle)
        diffusion = build_diffusion(oracle.q_register)
        state = prepare_search_state(oracle)
        for j in range(6):
            if j:
                grover_iteration(state, oracle, diffusion)
            fused = search_amplitudes(marks, j)
            np.testing.assert_allclose(q_amplitudes(state, oracle), fused, rtol=0, atol=1e-12)
            # everything else on the gate level is the kickback-1 mirror image
            assert abs(norm_squared(state) - float(np.sum(fused**2))) < 1e-12

    def test_closed_form_matches_iteration_loop(self):
        rng = np.random.default_rng(17)
        for n in range(1, 13):
            size = 1 << n
            for m in sorted({0, 1, int(rng.integers(0, size + 1)), size - 1, size}):
                marks = np.zeros(size, dtype=bool)
                marks[rng.choice(size, m, replace=False)] = True
                reference = iterated_amplitudes(marks)
                for j in range(3 * math.ceil(math.sqrt(size)) + 1):
                    np.testing.assert_allclose(
                        search_amplitudes(marks, j), next(reference),
                        rtol=0, atol=1e-12, err_msg=f"N={size} M={m} j={j}",
                    )

    def test_measurement_replays_sample_basis(self):
        # The old measurement: the iterated amplitudes over the whole frame,
        # sampled by Generator.choice in sorted order of full-register
        # indices. Both generators must give the same outcome and stay in
        # step, and the sorted order must be the structural one boyer_search
        # uses: branches concatenated, or interleaved with the kickback below q.
        rng = np.random.default_rng(29)
        draws = disagreements = 0
        for trial in range(600):
            n = int(rng.integers(1, 11))
            size = 1 << n
            below = bool(trial % 2)
            layout = toy_oracle(n, set(), kickback_below_q=below)
            register = np.arange(size, dtype=np.int64) << layout.q_register.offset
            basis = np.concatenate((register, register | (1 << layout.kickback_qubit)))
            order = np.argsort(basis)
            sorted_basis = basis[order]
            m = int(rng.integers(0, size + 1))
            marks = np.zeros(size, dtype=bool)
            marks[rng.choice(size, m, replace=False)] = True
            frame_marks = np.concatenate((marks, marks))[order]
            structural = np.repeat(marks, 2) if below else np.tile(marks, 2)
            assert frame_marks.tolist() == structural.tolist()
            prefix = np.cumsum(frame_marks).tolist()
            old_rng, new_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(5):
                j = int(rng.integers(0, math.ceil(math.sqrt(size)) + 1))
                half = next(itertools.islice(iterated_amplitudes(marks), j, None)) ** 2 / 2.0
                probs = np.concatenate((half, half))[order]
                expected = sample_basis(sorted_basis, probs, old_rng)
                got = int(sorted_basis[grover._measure(prefix, j, new_rng)])
                draws += 1
                disagreements += got != expected
            assert old_rng.random() == new_rng.random()
        assert (draws, disagreements) == (3000, 0)

    def test_norm_check_refuses_to_sample(self, monkeypatch):
        closed_form = grover._amplitude_pair
        monkeypatch.setattr(
            grover,
            "_amplitude_pair",
            lambda *args: tuple(a * (1.0 + 1e-3) for a in closed_form(*args)),
        )
        schedule = BoyerSchedule(sqrt_n_cap=4.0, rng=np.random.default_rng(0))
        with pytest.raises(IntegrityError, match="refusing to sample"):
            boyer_search(toy_oracle(4, {3}), bool, schedule, 5, np.random.default_rng(1))

    @pytest.mark.parametrize(
        "oracle, check_marks",
        [
            pytest.param(demo_oracle(13), True, id="demo-t13"),
            pytest.param(demo_oracle(17), True, id="demo-t17"),
            pytest.param(
                toy_oracle(4, {2, 7, 12}, kickback_below_q=True), True, id="kickback-below-q"
            ),
            pytest.param(toy_oracle(4, set()), True, id="toy-M0"),
            # a check accepting every marked candidate would stop at the first
            # step, whose j is 0; rejecting all of them lets j grow
            pytest.param(toy_oracle(4, set(range(16))), False, id="toy-M16"),
        ],
    )
    def test_boyer_search_equals_gate_level_reference(self, oracle, check_marks):
        marked = set(np.flatnonzero(oracle_marks(oracle)).tolist()) if check_marks else set()
        sqrt_n = math.sqrt(1 << oracle.q_register.width)

        def run(search, seed):
            sched_rng, meas_rng = [
                np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
            ]
            schedule = BoyerSchedule(sqrt_n_cap=sqrt_n, rng=sched_rng)
            return search(oracle, marked.__contains__, schedule, 6, meas_rng)

        results = [run(boyer_search, seed) for seed in range(5)]
        assert results == [run(reference_boyer_search, seed) for seed in range(5)]
        assert any(step.j > 0 for result in results for step in result.steps)

    @pytest.mark.parametrize(
        "leak",
        [
            pytest.param(cnot(0, 4), id="q-bit-into-ancilla"),
            pytest.param(cnot(3, 4), id="kickback-into-ancilla"),
            pytest.param(x(0), id="q-bit-flipped"),
            # fires only where the kickback started at 1: the kickback-0 branch is clean
            pytest.param(toffoli(3, 1, 4), id="kickback-1-branch-only"),
        ],
    )
    def test_dirty_uncompute_raises_integrity_error(self, leak):
        dirty = dirty_oracle(leak)
        with pytest.raises(IntegrityError, match="contamination"):
            oracle_marks(dirty)
        schedule = BoyerSchedule(sqrt_n_cap=math.sqrt(8), rng=np.random.default_rng(0))
        with pytest.raises(IntegrityError, match="contamination"):
            boyer_search(dirty, lambda c: False, schedule, 5, np.random.default_rng(1))


    def test_check_equals_the_whole_oracle_contract_on_random_oracles(self):
        # q = qubits 0-2, ancillas 3-4, kickback 5. prepare never touches the
        # kickback; mark flips it under random controls, and half the time
        # one more random gate follows, which may break the uncompute.
        rng = np.random.default_rng(23)
        q = RegisterRef("q", 0, 3)
        outcomes = set()
        for _ in range(200):
            prepare = random_sequence(rng, 5, 10, kinds=permutation_kinds())
            controls = rng.choice(5, size=int(rng.integers(1, 4)), replace=False)
            mark = GateSequence([mcx([int(c) for c in controls], 5)])
            if rng.random() < 0.5:
                mark += [random_gate(rng, 6, permutation_kinds())]
            oracle = OracleCircuit(prepare, mark, prepare.reverse(), q, 5, 6)
            marks, bad = whole_oracle_marks(oracle)
            if bad is None:
                assert oracle_marks(oracle).tolist() == marks.tolist()
            else:
                c, image0, image1 = bad
                expected = f"q value {c} maps to basis states {image0} and {image1}$"
                with pytest.raises(IntegrityError, match=expected):
                    oracle_marks(oracle)
            outcomes.add(bad is None)
        assert outcomes == {True, False}

    def test_frame_of_another_prepare_is_refused(self):
        instance = KnapsackInstance(DEMO_ITEMS, DEMO_CAPACITY)
        plan = plan_registers(instance)
        prepare = compile_prepare(instance, plan)
        frame = prepare_frame(prepare, plan.q, plan.r, plan.total_qubits)
        other = compile_oracle(instance, plan, 13)  # compiles its own, equal prepare
        assert other.prepare == prepare and other.prepare is not prepare
        with pytest.raises(ValueError, match="another prepare"):
            oracle_marks(other, frame)
        schedule = BoyerSchedule(sqrt_n_cap=4.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="another prepare"):
            boyer_search(other, bool, schedule, 5, np.random.default_rng(1), frame=frame)
        same = compile_oracle(instance, plan, 13, prepare=prepare)
        assert oracle_marks(same, frame).tolist() == oracle_marks(other).tolist()


class TestBoyerSearch:
    def _run(self, oracle, check, seed, max_steps=40):
        sched_rng, meas_rng = [
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
        ]
        schedule = BoyerSchedule(sqrt_n_cap=math.sqrt(1 << oracle.q_register.width), rng=sched_rng)
        return boyer_search(oracle, check, schedule, max_steps, meas_rng)

    def test_finds_single_marked_item_statistically(self):
        oracle = toy_oracle(4, {11})
        hits = 0
        for seed in range(100):
            result = self._run(oracle, lambda c: c == 11, seed)
            if result.found == 11:
                hits += 1
        assert hits >= 99

    def test_nothing_marked_exhausts(self):
        oracle = toy_oracle(4, set())
        result = self._run(oracle, lambda c: False, seed=3, max_steps=12)
        assert result.exhausted and result.found is None
        assert len(result.steps) == 12

    def test_cutoff_monotone_and_capped(self):
        oracle = toy_oracle(4, set())
        result = self._run(oracle, lambda c: False, seed=4, max_steps=20)
        ms = [step.m for step in result.steps]
        assert all(b >= a for a, b in zip(ms, ms[1:]))
        assert max(ms) <= math.sqrt(16) + 1e-12
        assert ms[-1] == pytest.approx(4.0)

    def test_zero_iteration_measurement_can_accept(self):
        oracle = toy_oracle(4, set())
        result = self._run(oracle, lambda c: True, seed=5)
        assert result.found is not None
        assert result.steps[0].j == 0  # m starts at 1, so the first draw is 0

    def test_iterations_applied_matches_steps(self):
        oracle = toy_oracle(4, {2})
        result = self._run(oracle, lambda c: c == 2, seed=6)
        assert result.iterations_applied == sum(s.j for s in result.steps)

    def test_reproducible(self):
        oracle = toy_oracle(4, {7})
        a = self._run(oracle, lambda c: c == 7, seed=42)
        b = self._run(oracle, lambda c: c == 7, seed=42)
        assert a == b
