"""Diffusion, phase kickback, iteration counts, and the unknown-count schedule."""

from __future__ import annotations

import bisect
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    BoyerStep,
    PreparedFrame,
    boyer_search,
    build_diffusion,
    iteration_count,
    oracle_marks,
    prepare_frame,
)
from qsmax.knapsack import (
    KnapsackInstance,
    compile_frame,
    compile_oracle,
    plan_registers,
)
from qsmax.statevector import (
    Gate,
    IntegrityError,
    cnot,
    h,
    inverse,
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


Oracle = tuple[PreparedFrame, tuple[Gate, ...]]


def toy_oracle(n: int, marked: set[int], extra_ancillas: int = 0) -> Oracle:
    """Frame and mark of an oracle flipping the kickback qubit, the top one,
    above q and any extra ancillas, exactly on the marked q values."""
    q = RegisterRef("q", 0, n)
    kickback = n + extra_ancillas
    gates = []
    for target in marked:
        off = [x(q.bit(i)) for i in range(n) if not (target >> i) & 1]
        gates.extend(off)
        gates.append(mcx(q.bits, kickback))
        gates.extend(off)
    return prepare_frame((), q, kickback), tuple(gates)


def demo_oracle(threshold: int) -> Oracle:
    instance = KnapsackInstance(DEMO_ITEMS, DEMO_CAPACITY)
    plan = plan_registers(instance)
    return compile_frame(instance, plan), compile_oracle(plan, threshold)


def dirty_oracle(leak) -> Oracle:
    """toy_oracle with one extra gate in ``mark`` that breaks the uncompute:
    q is qubits 0-2, the ancilla 3, the kickback 4."""
    frame, mark = toy_oracle(3, {5}, extra_ancillas=1)
    return frame, mark + (leak,)


def whole_oracle_marks(frame: PreparedFrame, mark: tuple[Gate, ...]):
    """The phase-kickback contract checked on prepare + mark + prepare reversed.

    Returns (marks, None), or (None, (q value, image at kickback 0, image at
    kickback 1)) for the first candidate whose images break the contract.
    """
    q = frame.q_register
    kick = 1 << frame.kickback_qubit
    register = np.arange(1 << q.width, dtype=np.int64) << q.offset
    whole = frame.prepare + mark + inverse(frame.prepare)
    image0 = np.array(push_states(register, whole, frame.num_qubits))
    image1 = np.array(push_states(register | kick, whole, frame.num_qubits))
    flips0, flips1 = image0 ^ register, image1 ^ register ^ kick
    bad = np.flatnonzero((flips0 != flips1) | ((flips0 & ~kick) != 0))
    if bad.size:
        c = int(bad[0])
        return None, (c, int(image0[c]), int(image1[c]))
    return flips0 == kick, None


def reference_boyer_search(oracle, classical_check, max_steps, schedule_rng, measure_rng):
    """The unknown-count search run gate by gate on the full statevector."""
    frame, mark = oracle
    q = frame.q_register
    diffusion = build_diffusion(q)
    q_mask = (1 << q.width) - 1
    steps = []
    m = 1.0
    for _ in range(max_steps):
        j = int(schedule_rng.integers(0, math.ceil(m)))
        state = prepare_search_state(frame)
        for _ in range(j):
            grover_iteration(state, frame, mark, diffusion)
        candidate = (measure_all(state, measure_rng) >> q.offset) & q_mask
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m=m, j=j, candidate=candidate, passed=passed))
        if passed:
            return BoyerResult(candidate, tuple(steps))
        m = min(6 / 5 * m, math.sqrt(1 << q.width))
    return BoyerResult(None, tuple(steps))


def oracle_search(oracle, classical_check, max_steps, schedule_rng, measure_rng):
    """``boyer_search`` on an oracle's marks."""
    marks = oracle_marks(*oracle)
    return boyer_search(marks, classical_check, max_steps, schedule_rng, measure_rng)


def reference_cumulative(marked, p_marked, p_unmarked):
    """Cumulative probability at each position, as the sampler defines it."""

    def cumulative(i: int) -> float:
        below = bisect.bisect_right(marked, i)  # marked positions up to i
        return p_marked * below + p_unmarked * (i + 1 - below)

    return cumulative


def reference_position(marked, size, p_marked, p_unmarked, draw):
    """The measurement's position lookup as one key bisection over all ``size``
    positions, each probe counting the marked positions up to it."""
    cumulative = reference_cumulative(marked, p_marked, p_unmarked)
    return min(bisect.bisect_right(range(size), draw, key=cumulative), size - 1)


def reference_list_search(marks, classical_check, max_steps, schedule_rng, measure_rng):
    """``boyer_search`` over the explicit list of the 2M marked positions,
    each measurement a key bisection over all 2N positions."""
    hits = np.flatnonzero(marks).tolist()
    n = marks.size
    marked = hits + [h + n for h in hits]
    steps = []
    m = 1.0
    for _ in range(max_steps):
        j = int(schedule_rng.integers(0, math.ceil(m)))
        p_marked, p_unmarked, total = grover._probabilities(len(hits), n, j)
        draw = measure_rng.random() * total
        candidate = reference_position(marked, 2 * n, p_marked, p_unmarked, draw) % n
        passed = bool(classical_check(candidate))
        steps.append(BoyerStep(m, j, candidate, passed))
        if passed:
            return BoyerResult(candidate, tuple(steps))
        m = min(6 / 5 * m, math.sqrt(n))
    return BoyerResult(None, tuple(steps))


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


def q_amplitudes(state, frame) -> np.ndarray:
    """Subspace amplitudes over q with the kickback in |->, ancillas |0>."""
    n = frame.q_register.width
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
    def test_kickback_outside_the_plan_is_refused(self):
        # The kickback must sit above q: inside q it would overwrite a q
        # plane, and below q the frame would not be in sorted full-register
        # order. It is the top qubit, so the frame has kickback + 1 planes.
        q = RegisterRef("q", 1, 2)
        for kickback in (-1, 0, 1, 2):  # below q, inside q
            with pytest.raises(ValueError, match="kickback qubit out of range"):
                prepare_frame((), q, kickback)
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            prepare_frame((), RegisterRef("q", 0, 3), 1)
        assert prepare_frame((), q, 3).num_qubits == 4
        assert prepare_frame((), q, 5).num_qubits == 6

    @pytest.mark.parametrize(
        "gate",
        [
            pytest.param(x(3), id="x-target"),
            pytest.param(cnot(0, 3), id="cnot-target"),
            pytest.param(cnot(3, 2), id="cnot-control"),
            pytest.param(toffoli(0, 3, 2), id="toffoli-control"),
            pytest.param(mcx([0, 1, 3], 2), id="mcx-control"),
            pytest.param(toffoli(0, 2, 3), id="toffoli-target"),
            pytest.param(x(4), id="past-the-top-qubit"),
        ],
    )
    def test_prepare_on_the_kickback_is_refused(self, gate):
        # q = qubits 0-1, ancilla 2, kickback 3: prepare may not touch the kickback.
        with pytest.raises(ValueError, match="prepare acts on kickback qubit 3 or above it$"):
            prepare_frame((cnot(0, 2), gate, cnot(0, 2)), RegisterRef("q", 0, 2), 3)

    def test_frame_record_refuses_what_prepare_frame_refuses(self):
        # Direct construction, _make, _replace and unpickling all go through
        # the same check as prepare_frame.
        q = RegisterRef("q", 1, 2)
        planes = (0,) * 4
        for kickback in (-1, 0, 1, 2, 4, 5):  # below q, inside q, at and past num_qubits
            with pytest.raises(ValueError, match="kickback qubit out of range"):
                PreparedFrame((), q, kickback, planes)
            with pytest.raises(ValueError, match="kickback qubit out of range"):
                PreparedFrame._make(((), q, kickback, planes))
        frame = PreparedFrame((), q, 3, planes)
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            frame._replace(kickback_qubit=1)
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            frame._replace(planes=(0,) * 3)
        data = pickle.dumps(frame, protocol=4)
        assert pickle.loads(data) == frame
        # The kickback, 3, is the only BININT1 3 (b"K\x03") in the pickle.
        assert data.count(b"K\x03") == 1
        tampered = data.replace(b"K\x03", b"K\x02")
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            pickle.loads(tampered)
        # The layout test_column once used: kickback 1, inside a 3-bit q.
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            PreparedFrame((), RegisterRef("q", 0, 3), 1, planes)
        # A kickback above q that is not the top qubit.
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            PreparedFrame((), q, 3, (0,) * 5)
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            frame._replace(planes=(0,) * 5)
        data = pickle.dumps(PreparedFrame((), q, 4, (0,) * 5), protocol=4)
        assert data.count(b"K\x04") == 1  # the kickback, 4
        with pytest.raises(ValueError, match="kickback qubit out of range"):
            pickle.loads(data.replace(b"K\x04", b"K\x03"))

    @pytest.mark.parametrize("width", range(1, 13))
    def test_frame_planes_equal_a_frame_built_bit_by_bit(self, width):
        # q sits at qubit 0, one spare qubit right above it, the kickback on top.
        n = 1 << width
        q = RegisterRef("q", 0, width)
        frame = prepare_frame((), q, width + 1)
        # Entry e is q value e; the spare and kickback planes stay 0.
        expected = [sum(1 << e for e in range(n) if e >> b & 1) for b in range(width)]
        assert list(frame.planes) == expected + [0, 0]

    def test_phase_kickback_exhaustive(self):
        n = 4
        marked = {3, 9, 14}
        frame, mark = toy_oracle(n, marked)
        for i in range(1 << n):
            state = new_basis_state(frame.num_qubits, i)
            apply_sequence(state, (x(frame.kickback_qubit), h(frame.kickback_qubit)))
            apply_sequence(state, frame.prepare)
            apply_sequence(state, mark)
            apply_sequence(state, inverse(frame.prepare))
            sign = -1.0 if i in marked else 1.0
            assert abs(get_amplitude(state, i) - sign * INV_SQRT2) < 1e-10
            assert (
                abs(get_amplitude(state, i | (1 << frame.kickback_qubit)) + sign * INV_SQRT2)
                < 1e-10
            )


class TestPlaneReads:
    """Bit planes read as arrays, against bit-by-bit Python references."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
    def test_plane_bits(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            plane = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
            bits = grover._plane_bits(plane, n)
            assert bits.dtype == np.uint8
            assert bits.tolist() == [(plane >> i) & 1 for i in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    # 62 is one int64 limb; 124 is two full limbs and 125 the first of three.
    @pytest.mark.parametrize("width", [62, 63, 70, 124, 125])
    def test_column(self, n, width):
        rng = np.random.default_rng(100 * n + width)
        size = 1 << n
        # The register's planes and, above them, the kickback's.
        planes = tuple(
            int.from_bytes(rng.bytes((size + 7) // 8), "little") & ((1 << size) - 1)
            for _ in range(width + 3)
        )
        frame = PreparedFrame((), RegisterRef("q", 0, n), width + 2, planes)
        register = RegisterRef("w", 2, width)
        column = frame.columns(register)[0]
        expected = [
            sum(((planes[k] >> i) & 1) << t for t, k in enumerate(register.bits))
            for i in range(size)
        ]
        assert column.dtype == (np.int64 if width < 63 else object)
        assert column.tolist() == expected
        assert all(type(value) is int for value in column.tolist())

    @given(
        n=st.integers(1, 8),
        widths=st.lists(st.sampled_from((1, 61, 62, 63, 64, 70, 124, 125)), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_columns_match_per_bit_reference(self, n, widths, data):
        # Registers at drawn offsets, overlapping or not, read in one pass.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        size, count = 1 << n, 128
        planes = tuple(
            int.from_bytes(rng.bytes((size + 7) // 8), "little") & ((1 << size) - 1)
            for _ in range(count)
        )
        registers = [
            RegisterRef(f"r{i}", data.draw(st.integers(0, count - width)), width)
            for i, width in enumerate(widths)
        ]
        frame = PreparedFrame((), RegisterRef("q", 0, n), count - 1, planes)
        columns = frame.columns(*registers)
        assert len(columns) == len(registers)
        for register, column in zip(registers, columns):
            expected = [
                sum(((planes[k] >> i) & 1) << t for t, k in enumerate(register.bits))
                for i in range(size)
            ]
            assert column.dtype == (np.int64 if register.width < 63 else object)
            assert column.tolist() == expected
            assert all(type(value) is int for value in column.tolist())
            assert frame.columns(register)[0].tolist() == expected


class TestGroverIteration:
    def test_empty_marked_set_is_global_phase(self):
        frame, mark = toy_oracle(4, set())
        state = prepare_search_state(frame)
        before = q_amplitudes(state, frame)
        grover_iteration(state, frame, mark, build_diffusion(frame.q_register))
        after = q_amplitudes(state, frame)
        np.testing.assert_allclose(after, -before, atol=1e-10)

    def test_all_marked_is_global_phase(self):
        frame, mark = toy_oracle(3, set(range(8)))
        state = prepare_search_state(frame)
        before = q_amplitudes(state, frame)
        grover_iteration(state, frame, mark, build_diffusion(frame.q_register))
        after = q_amplitudes(state, frame)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_single_iteration_known_probability(self):
        # N=16, M=2: one iteration boosts each marked item to 25/64.
        frame, mark = toy_oracle(4, {6, 14})
        state = prepare_search_state(frame)
        grover_iteration(state, frame, mark, build_diffusion(frame.q_register))
        for i in (6, 14):
            p = abs(get_amplitude(state, i)) ** 2 + abs(
                get_amplitude(state, i | (1 << frame.kickback_qubit))
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
            frame, mark = toy_oracle(n, marked)
            diffusion = build_diffusion(frame.q_register)
            state = prepare_search_state(frame)
            k_floor = math.floor(math.pi / 4 * math.sqrt(big_n / m))
            for _ in range(k_floor):
                grover_iteration(state, frame, mark, diffusion)
            amps = q_amplitudes(state, frame)
            p_marked = float(np.sum(np.abs(amps[list(marked)]) ** 2))
            assert p_marked > 1 - m / big_n
            assert iteration_count(big_n, m) - k_floor in (0, 1)

    def test_dirty_ancilla_raises_integrity_error(self):
        frame, mark = dirty_oracle(cnot(0, 3))  # leaks candidate bit 0 into the ancilla
        state = prepare_search_state(frame)
        with pytest.raises(IntegrityError, match="contamination"):
            grover_iteration(state, frame, mark, build_diffusion(frame.q_register))


class TestFusedSearch:
    """The index-map marks and 2^n-amplitude iteration against the gate level."""

    def test_marks_of_toy_oracle(self):
        marks = oracle_marks(*toy_oracle(4, {3, 9, 14}))
        assert np.flatnonzero(marks).tolist() == [3, 9, 14]

    def test_marks_of_demo_oracle(self):
        # threshold 13: exactly candidates 0110 and 0111 (q values 6 and 14)
        assert np.flatnonzero(oracle_marks(*demo_oracle(13))).tolist() == [6, 14]

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
        frame, mark = oracle
        marks = oracle_marks(frame, mark)
        diffusion = build_diffusion(frame.q_register)
        state = prepare_search_state(frame)
        for j in range(6):
            if j:
                grover_iteration(state, frame, mark, diffusion)
            fused = search_amplitudes(marks, j)
            np.testing.assert_allclose(q_amplitudes(state, frame), fused, rtol=0, atol=1e-12)
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
        # uses: the kickback-0 branch, then the kickback-1 branch.
        rng = np.random.default_rng(29)
        draws = disagreements = 0
        for trial in range(600):
            n = int(rng.integers(1, 11))
            size = 1 << n
            frame, _ = toy_oracle(n, set())
            register = np.arange(size, dtype=np.int64) << frame.q_register.offset
            basis = np.concatenate((register, register | (1 << frame.kickback_qubit)))
            order = np.argsort(basis)
            sorted_basis = basis[order]
            m = int(rng.integers(0, size + 1))
            marks = np.zeros(size, dtype=bool)
            marks[rng.choice(size, m, replace=False)] = True
            frame_marks = np.concatenate((marks, marks))[order]
            assert frame_marks.tolist() == np.tile(marks, 2).tolist()
            hits = np.flatnonzero(marks).tolist()
            old_rng, new_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(5):
                j = int(rng.integers(0, math.ceil(math.sqrt(size)) + 1))
                half = next(itertools.islice(iterated_amplitudes(marks), j, None)) ** 2 / 2.0
                probs = np.concatenate((half, half))[order]
                expected = sample_basis(sorted_basis, probs, old_rng)
                p_marked, p_unmarked, total = grover._probabilities(m, size, j)
                draw = new_rng.random() * total
                got = int(sorted_basis[grover._position(hits, size, p_marked, p_unmarked, draw)])
                draws += 1
                disagreements += got != expected
            assert old_rng.random() == new_rng.random()
        assert (draws, disagreements) == (3000, 0)

    def test_position_lookup_equals_key_bisection(self):
        # _position reads the 2M marked positions off the M hits in place;
        # the reference bisects every position over the explicit 2M list.
        # Draws sit exactly on a position's cumulative probability and one
        # float step either side of it, where the closed-form guess inside
        # an unmarked run is most likely off by one. Every position is a
        # boundary up to N = 64; above that, 40 random positions plus the
        # neighbours of 8 marked ones, so the suite stays fast.
        rng = np.random.default_rng(31)
        lookups = 0
        for n in range(1, 13):
            size = 1 << n
            for m in sorted({0, 1, int(rng.integers(0, size + 1)), size - 1, size}):
                marks = np.zeros(size, dtype=bool)
                marks[rng.choice(size, m, replace=False)] = True
                hits = np.flatnonzero(marks).tolist()
                marked = np.flatnonzero(np.tile(marks, 2)).tolist()
                assert marked == hits + [h + size for h in hits]
                positions = set(range(2 * size)) if size <= 64 else {0, 2 * size - 1}
                if size > 64:
                    positions.update(rng.choice(2 * size, 40, replace=False).tolist())
                    for t in rng.choice(marked, min(8, len(marked)), replace=False).tolist():
                        positions.update(p for p in (t - 1, t, t + 1) if 0 <= p < 2 * size)
                for j in range(math.ceil(math.sqrt(size)) + 1):
                    p_marked, p_unmarked, _ = grover._probabilities(m, size, j)
                    cumulative = reference_cumulative(marked, p_marked, p_unmarked)
                    for i in sorted(positions):
                        edge = cumulative(i)
                        for draw in (math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0)):
                            got = grover._position(hits, size, p_marked, p_unmarked, draw)
                            expected = reference_position(marked, 2 * size, p_marked, p_unmarked, draw)
                            assert got == expected, f"N={size} M={m} j={j} i={i} draw={draw!r}"
                            lookups += 1
        assert lookups > 100_000

    @pytest.mark.parametrize(
        "case", ["unmarked_zero", "unmarked_subnormal", "marked_zero"]
    )
    def test_position_at_degenerate_probabilities(self, case):
        # Probabilities _probabilities never yields for 0 < M < N: an
        # unmarked run of probability 0, one of the smallest subnormal (the
        # run's guess is inf, and int(inf) raises), and marked positions of
        # probability 0. Draws are 0, the subnormal, every cumulative
        # boundary and one float step either side, random interior values,
        # the total and past it.
        rng = np.random.default_rng(41)
        lookups = 0
        for n in range(7):
            size = 1 << n
            for m in sorted({0, 1, size // 2, size - 1, size}):
                if case == "unmarked_zero" and m == size:
                    continue
                p_marked, p_unmarked = {
                    "unmarked_zero": (1.0 / (2 * max(m, 1)), 0.0),
                    "unmarked_subnormal": (1.0 / (2 * max(m, 1)), 5e-324),
                    "marked_zero": (0.0, 1.0 / (2 * max(size - m, 1))),
                }[case]
                marks = np.zeros(size, dtype=bool)
                marks[rng.choice(size, m, replace=False)] = True
                hits = np.flatnonzero(marks).tolist()
                marked = hits + [h + size for h in hits]
                cumulative = reference_cumulative(marked, p_marked, p_unmarked)
                total = cumulative(2 * size - 1)
                draws = {0.0, 5e-324, total, math.nextafter(total, 2.0), 2.0 * total + 1.0}
                draws.update((rng.random(8) * total).tolist())
                for i in range(2 * size):
                    edge = cumulative(i)
                    draws.update((math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0)))
                for draw in sorted(d for d in draws if d >= 0.0):
                    got = grover._position(hits, size, p_marked, p_unmarked, draw)
                    expected = reference_position(marked, 2 * size, p_marked, p_unmarked, draw)
                    assert got == expected, f"N={size} M={m} draw={draw!r}"
                    lookups += 1
        assert lookups > 1_000

    def test_boyer_search_equals_a_search_over_the_listed_positions(self):
        # No frame: random marks up to N = 2^16, and a reference loop that
        # lists the 2M marked positions and bisects all 2N of them, as the
        # sampler did before it read the hits in place. Each check accepts a
        # random fifth of the marked q values, so some runs find one and
        # others exhaust with j grown to the cap.
        rng = np.random.default_rng(37)
        steps = 0
        for n in range(1, 17):
            size = 1 << n
            for m in sorted({0, 1, int(rng.integers(0, size + 1)), size}):
                marks = np.zeros(size, dtype=bool)
                marks[rng.choice(size, m, replace=False)] = True
                accept = set(rng.choice(size, m // 5, replace=False).tolist()) & set(
                    np.flatnonzero(marks).tolist()
                )
                max_steps = 2 * math.ceil(math.sqrt(size)) + 4
                seed = int(rng.integers(1 << 32))

                def run(search):
                    sched_rng, meas_rng = [
                        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
                    ]
                    return search(marks, accept.__contains__, max_steps, sched_rng, meas_rng)

                got = run(boyer_search)
                assert got == run(reference_list_search), f"N={size} M={m}"
                steps += len(got.steps)
        assert steps > 2_000

    def test_a_round_reads_its_hits_in_place(self):
        # 2^15 marked of 2^16: the hits are one int64 array (8 bytes each),
        # not a list of Python ints (about 48 traced bytes each).
        marks = np.zeros(1 << 16, dtype=bool)
        marks[::2] = True
        sched_rng, meas_rng = np.random.default_rng(5), np.random.default_rng(6)
        tracemalloc.start()
        try:
            result = boyer_search(marks, lambda q: False, 8, sched_rng, meas_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.found is None and len(result.steps) == 8
        assert peak < 16 * (1 << 15), f"{peak / (1 << 15):.1f} traced bytes per marked entry"

    def test_norm_check_refuses_to_sample(self, monkeypatch):
        closed_form = grover._amplitude_pair
        monkeypatch.setattr(
            grover,
            "_amplitude_pair",
            lambda *args: tuple(a * (1.0 + 1e-3) for a in closed_form(*args)),
        )
        with pytest.raises(IntegrityError, match="refusing to sample"):
            oracle_search(
                toy_oracle(4, {3}), bool, 5, np.random.default_rng(0), np.random.default_rng(1)
            )

    def test_probabilities_once_per_distinct_j(self, monkeypatch):
        # Each round computes a j's probabilities and norm check once, and a
        # drifted j still raises at the first step that draws it.
        oracle = toy_oracle(4, set())
        steps = oracle_search(
            oracle, lambda c: False, 12, np.random.default_rng(3), np.random.default_rng(4)
        ).steps
        js = [step.j for step in steps]
        calls = []
        probabilities = grover._probabilities
        monkeypatch.setattr(
            grover, "_probabilities", lambda *args: calls.append(args[2]) or probabilities(*args)
        )
        oracle_search(oracle, lambda c: False, 12, np.random.default_rng(3), np.random.default_rng(4))
        assert calls == list(dict.fromkeys(js)) and len(calls) < len(js)

        closed_form = grover._amplitude_pair
        drifted = max(js)
        monkeypatch.setattr(
            grover,
            "_amplitude_pair",
            lambda m, n, j: tuple(a * (1.0 + 1e-3 * (j == drifted)) for a in closed_form(m, n, j)),
        )
        checked = []
        with pytest.raises(IntegrityError, match="refusing to sample"):
            oracle_search(
                oracle, lambda c: checked.append(c) and False, 12,
                np.random.default_rng(3), np.random.default_rng(4),
            )
        assert len(checked) == js.index(drifted)

    @pytest.mark.parametrize(
        "oracle, check_marks",
        [
            pytest.param(demo_oracle(13), True, id="demo-t13"),
            pytest.param(demo_oracle(17), True, id="demo-t17"),
            pytest.param(toy_oracle(4, set()), True, id="toy-M0"),
            # a check accepting every marked candidate would stop at the first
            # step, whose j is 0; rejecting all of them lets j grow
            pytest.param(toy_oracle(4, set(range(16))), False, id="toy-M16"),
        ],
    )
    def test_boyer_search_equals_gate_level_reference(self, oracle, check_marks):
        marked = set(np.flatnonzero(oracle_marks(*oracle)).tolist()) if check_marks else set()

        def run(search, seed):
            sched_rng, meas_rng = [
                np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
            ]
            return search(oracle, marked.__contains__, 6, sched_rng, meas_rng)

        results = [run(oracle_search, seed) for seed in range(5)]
        assert results == [run(reference_boyer_search, seed) for seed in range(5)]
        assert any(step.j > 0 for result in results for step in result.steps)

    @pytest.mark.parametrize(
        "leak",
        [
            pytest.param(cnot(0, 3), id="q-bit-into-ancilla"),
            pytest.param(cnot(4, 3), id="kickback-into-ancilla"),
            pytest.param(x(0), id="q-bit-flipped"),
            # fires only where the kickback started at 1: the kickback-0 branch
            # is clean, and the mark is refused for reading the kickback
            pytest.param(toffoli(4, 1, 3), id="kickback-1-branch-only"),
        ],
    )
    def test_dirty_uncompute_raises_integrity_error(self, leak):
        with pytest.raises(IntegrityError, match="contamination"):
            oracle_marks(*dirty_oracle(leak))

    def test_a_mark_that_restores_a_plane_is_clean(self):
        # X then X on a g qubit leaves a new int equal to the frame's plane:
        # the check compares it and finds nothing, alone or after a real mark.
        instance = KnapsackInstance(DEMO_ITEMS, DEMO_CAPACITY)
        plan = plan_registers(instance)
        frame = compile_frame(instance, plan)
        restore = (x(plan.g.bit(0)), x(plan.g.bit(0)))
        assert whole_oracle_marks(frame, restore)[1] is None
        assert not oracle_marks(frame, restore).any()
        marks = oracle_marks(frame, compile_oracle(plan, 13) + restore)
        assert np.flatnonzero(marks).tolist() == [6, 14]

    @pytest.mark.parametrize(
        "reads",
        [
            pytest.param((cnot(4, 3), cnot(4, 3)), id="cnot-control-twice"),
            pytest.param((toffoli(4, 1, 3), toffoli(4, 1, 3)), id="toffoli-control-twice"),
        ],
    )
    def test_a_mark_reading_the_kickback_is_refused_even_when_clean(self, reads):
        # q = qubits 0-2, ancilla 3, kickback 4. Each pair undoes itself, so
        # the whole oracle keeps its contract, yet the mark reads the kickback.
        frame, mark = dirty_oracle(reads[0])
        mark += reads[1:]
        assert whole_oracle_marks(frame, mark)[1] is None
        expected = "^ancilla contamination: the mark reads kickback qubit 4$"
        with pytest.raises(IntegrityError, match=expected):
            oracle_marks(frame, mark)


    def test_check_equals_the_whole_oracle_contract_on_random_oracles(self):
        # q = qubits 0-2, ancillas 3-4, kickback 5. prepare never touches the
        # kickback; mark flips it under random controls, and half the time
        # one more random gate follows, which may break the uncompute. A mark
        # that holds qubit 5 other than as the sole target of a gate reads the
        # kickback and is refused, whether or not the whole oracle is clean.
        rng = np.random.default_rng(23)
        q = RegisterRef("q", 0, 3)
        outcomes = set()
        for _ in range(200):
            prepare = random_sequence(rng, 5, 10, kinds=permutation_kinds())
            controls = rng.choice(5, size=int(rng.integers(1, 4)), replace=False)
            mark = (mcx([int(c) for c in controls], 5),)
            if rng.random() < 0.5:
                mark += (random_gate(rng, 6, permutation_kinds()),)
            frame = prepare_frame(prepare, q, 5)
            marks, bad = whole_oracle_marks(frame, mark)
            if any(5 in gate.qubits and gate.targets != (5,) for gate in mark):
                with pytest.raises(IntegrityError, match="the mark reads kickback qubit 5$"):
                    oracle_marks(frame, mark)
                outcomes.add("reads the kickback")
            elif bad is None:
                assert oracle_marks(frame, mark).tolist() == marks.tolist()
                outcomes.add("clean")
            else:
                c, image0, image1 = bad
                expected = f"q value {c} maps to basis states {image0} and {image1}$"
                with pytest.raises(IntegrityError, match=expected):
                    oracle_marks(frame, mark)
                outcomes.add("dirty")
        assert outcomes == {"clean", "dirty", "reads the kickback"}


class TestBoyerSearch:
    def _run(self, oracle, check, seed, max_steps=40):
        sched_rng, meas_rng = [
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
        ]
        return oracle_search(oracle, check, max_steps, sched_rng, meas_rng)

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
        assert result.found is None
        assert len(result.steps) == 12

    def test_cutoff_monotone_and_capped(self):
        oracle = toy_oracle(4, set())
        result = self._run(oracle, lambda c: False, seed=4, max_steps=20)
        ms = [step.m for step in result.steps]
        assert all(b >= a for a, b in zip(ms, ms[1:]))
        assert max(ms) <= math.sqrt(16) + 1e-12
        assert ms[-1] == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_cutoff_grows_by_six_fifths_up_to_sqrt_n(self, n):
        # N = 8 caps m at the irrational sqrt(8) after 6 growths; N = 16 at 4 after 8.
        result = self._run(toy_oracle(n, set()), lambda c: False, seed=7, max_steps=12)
        ms = [step.m for step in result.steps]
        cap = math.sqrt(1 << n)
        assert ms[:3] == [1.0, 1.2, pytest.approx(1.44)]
        assert ms == pytest.approx([min(1.2**k, cap) for k in range(12)], rel=1e-12)
        assert ms[-1] == cap
        assert all(step.j < math.ceil(step.m) for step in result.steps)

    def test_zero_iteration_measurement_can_accept(self):
        oracle = toy_oracle(4, set())
        result = self._run(oracle, lambda c: True, seed=5)
        assert result.found is not None
        assert result.steps[0].j == 0  # m starts at 1, so the first draw is 0

    @pytest.mark.parametrize("n", [1, 2, 6, 10])
    def test_size_comes_from_the_marks(self, n):
        # No frame is passed: N is marks.size, a position in the kickback-1
        # half folds back onto q (position & (N - 1)), and m caps at sqrt(N).
        size = 1 << n
        marks = np.zeros(size, dtype=bool)
        marks[size - 1] = True

        def run(check):
            sched_rng, meas_rng = [
                np.random.default_rng(s) for s in np.random.SeedSequence(n).spawn(2)
            ]
            return boyer_search(marks, check, 40, sched_rng, meas_rng)

        missed = run(lambda c: False)
        assert all(0 <= step.candidate < size for step in missed.steps)
        assert missed.steps[-1].m == math.sqrt(size)
        found = run(lambda c: c == size - 1)
        assert found.found == found.steps[-1].candidate == size - 1

    def test_reproducible(self):
        oracle = toy_oracle(4, {7})
        a = self._run(oracle, lambda c: c == 7, seed=42)
        b = self._run(oracle, lambda c: c == 7, seed=42)
        assert a == b
