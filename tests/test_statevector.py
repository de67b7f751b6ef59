"""Gate IR, the bit-plane basis-state map, and the sparse reference engine.

The reference engine (``reference_engine``) runs circuits gate by gate for
the other tests; here it is itself checked against unitaries built
independently from 2x2 matrices and projectors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import apply_to_basis, permutation_kinds, push_states, random_sequence
from qsmax.statevector import (
    Gate,
    GateKind,
    IntegrityError,
    cnot,
    cphase_flip_zero,
    h,
    inverse,
    mcx,
    permute_planes,
    toffoli,
    x,
)
from reference_engine import (
    MAX_INDEX_QUBITS,
    amplitude_vector,
    apply_gate,
    apply_sequence,
    from_amplitudes,
    get_amplitude,
    index_step,
    measure_all,
    new_basis_state,
    new_zero_state,
    norm_squared,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

_I2 = np.eye(2)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2
_P0 = np.diag([1.0, 0.0])  # |0><0|
_P1 = np.diag([0.0, 1.0])  # |1><1|


def _kron(num_qubits: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Tensor product of one 2x2 factor per qubit (identity where none given).

    Qubit k is bit k of the basis index, so qubit 0 is the rightmost factor.
    """
    out = np.ones((1, 1))
    for qubit in reversed(range(num_qubits)):
        out = np.kron(out, factors.get(qubit, _I2))
    return out


def _controlled_x(num_qubits: int, controls, target: int) -> np.ndarray:
    """I + (|1><1| on every control) (x) (X - I) on the target."""
    factors = {c: _P1 for c in controls}
    factors[target] = _X2 - _I2
    return np.eye(1 << num_qubits) + _kron(num_qubits, factors)


def gate_unitary(num_qubits: int, gate: Gate) -> np.ndarray:
    kind = gate.kind
    if kind is GateKind.X:
        return _kron(num_qubits, {gate.targets[0]: _X2})
    if kind is GateKind.H:
        return _kron(num_qubits, {gate.targets[0]: _H2})
    if kind in (GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX):
        return _controlled_x(num_qubits, gate.controls, gate.targets[0])
    if kind is GateKind.CPHASE_FLIP_ZERO:
        zero = _kron(num_qubits, {q: _P0 for q in gate.targets})
        return np.eye(1 << num_qubits) - 2.0 * zero
    raise AssertionError(f"unhandled gate kind {kind}")


def kron_unitary(num_qubits: int, gates) -> np.ndarray:
    """The whole circuit as one 2^n x 2^n matrix, built without any engine."""
    unitary = np.eye(1 << num_qubits, dtype=np.complex128)
    for gate in gates:
        unitary = gate_unitary(num_qubits, gate) @ unitary
    return unitary


class TestConstruction:
    def test_single_qubit_zero_state(self):
        state = new_zero_state(1)
        np.testing.assert_array_equal(amplitude_vector(state), [1.0, 0.0])

    def test_three_qubit_zero_state(self):
        amplitudes = amplitude_vector(new_zero_state(3))
        assert amplitudes[0] == 1.0
        assert not amplitudes[1:].any()

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            new_zero_state(0)

    def test_basis_state(self):
        state = new_basis_state(3, 5)
        assert get_amplitude(state, 5) == 1.0
        with pytest.raises(ValueError):
            new_basis_state(3, 8)

    def test_from_amplitudes_checks_norm_and_shape(self):
        with pytest.raises(ValueError, match="normalized"):
            from_amplitudes([1.0, 1.0])
        with pytest.raises(ValueError, match="power of two"):
            from_amplitudes([1.0, 0.0, 0.0])
        state = from_amplitudes([INV_SQRT2, 1j * INV_SQRT2])
        assert get_amplitude(state, 1) == pytest.approx(1j * INV_SQRT2)


class TestGateSemantics:
    def test_hadamard_on_zero(self):
        state = apply_gate(new_zero_state(1), h(0))
        np.testing.assert_allclose(amplitude_vector(state), [INV_SQRT2, INV_SQRT2])

    def test_x_flips(self):
        state = apply_gate(new_zero_state(2), x(1))
        assert get_amplitude(state, 2) == 1.0

    def test_cnot_fires_only_on_control(self):
        state = apply_gate(new_basis_state(2, 1), cnot(0, 1))
        assert get_amplitude(state, 3) == 1.0
        state = apply_gate(new_basis_state(2, 2), cnot(0, 1))
        assert get_amplitude(state, 2) == 1.0

    def test_toffoli_on_110(self):
        # controls on bits 2 and 1, target bit 0: |110> -> |111>
        state = apply_gate(new_basis_state(3, 0b110), toffoli(2, 1, 0))
        assert get_amplitude(state, 0b111) == 1.0

    def test_mcx_requires_all_controls(self):
        gate = mcx([0, 1, 2], 3)
        assert get_amplitude(apply_gate(new_basis_state(4, 0b0111), gate), 0b1111) == 1.0
        assert get_amplitude(apply_gate(new_basis_state(4, 0b0011), gate), 0b0011) == 1.0

    def test_cphase_flips_only_all_zero(self):
        state = new_zero_state(2)
        apply_gate(state, h(0))
        apply_gate(state, h(1))
        apply_gate(state, cphase_flip_zero([0, 1]))
        np.testing.assert_allclose(amplitude_vector(state), [-0.5, 0.5, 0.5, 0.5])

    def test_gate_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            cnot(1, 1)
        with pytest.raises(ValueError, match="operand"):
            Gate(GateKind.TOFFOLI, (0, 1), (2,))
        with pytest.raises(ValueError, match="operand"):
            Gate(GateKind.X, (0, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.CPHASE_FLIP_ZERO, ())

    def test_apply_gate_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(new_zero_state(2), x(2))


class TestSequences:
    def test_empty_sequence_is_identity(self):
        state = apply_gate(new_zero_state(2), h(0))
        before = amplitude_vector(state)
        apply_sequence(state, ())
        np.testing.assert_array_equal(amplitude_vector(state), before)

    def test_inverse_is_the_reversed_circuit(self):
        # Every gate kind is self-inverse, so the adjoint only reverses the order.
        seq = (x(0), toffoli(0, 1, 2), cnot(2, 1), mcx([0, 1, 2], 3), h(1), cphase_flip_zero([0, 3]))
        assert inverse(seq) == tuple(reversed(seq))
        assert inverse(list(seq)) == tuple(reversed(seq))

    def test_inverse_of_inverse_is_the_circuit(self):
        seq = (x(0), toffoli(0, 1, 2), cnot(2, 1))
        assert inverse(inverse(seq)) == seq

    def test_invalid_gate_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate"):
                toffoli(1, 1, 2)
            with pytest.raises(ValueError, match="duplicate"):
                mcx([1, 1], 2)
            with pytest.raises(ValueError, match="operand counts"):
                Gate(GateKind.TOFFOLI, (0, 1), (2,))

    def test_four_hadamards_make_uniform(self):
        state = new_zero_state(4)
        apply_sequence(state, tuple(h(i) for i in range(4)))
        np.testing.assert_allclose(amplitude_vector(state), np.full(16, 0.25), atol=1e-12)

    def test_error_carries_gate_position(self):
        seq = (x(0), x(5))
        with pytest.raises(ValueError, match=r"gate 1 \(X\)"):
            apply_sequence(new_zero_state(2), seq)


class TestMeasurement:
    def test_basis_state_is_deterministic(self):
        state = new_basis_state(3, 5)
        rng = np.random.default_rng(123)
        assert all(measure_all(state, rng) == 5 for _ in range(100))

    def test_uniform_frequencies_within_5_sigma(self):
        state = new_zero_state(4)
        apply_sequence(state, tuple(h(i) for i in range(4)))
        rng = np.random.default_rng(42)
        counts = np.bincount(
            [measure_all(state, rng) for _ in range(10_000)], minlength=16
        )
        sigma = math.sqrt(10_000 * (1 / 16) * (15 / 16))
        assert np.all(np.abs(counts - 625) < 5 * sigma)

    def test_same_seed_reproduces_samples(self):
        state = new_zero_state(4)
        apply_sequence(state, tuple(h(i) for i in range(4)))
        a = [measure_all(state, np.random.default_rng(7)) for _ in range(20)]
        b = [measure_all(state, np.random.default_rng(7)) for _ in range(20)]
        assert a == b

    def test_norm_drift_raises_integrity_error(self):
        state = new_zero_state(2)
        state.values[0] = 2.0  # corrupt past the 1e-6 gate
        with pytest.raises(IntegrityError):
            measure_all(state, np.random.default_rng(0))


class TestAmplitudeAccess:
    def test_zero_state_amplitudes(self):
        state = new_zero_state(1)
        assert get_amplitude(state, 0) == 1 + 0j
        assert get_amplitude(state, 1) == 0j

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            get_amplitude(new_zero_state(2), 4)
        with pytest.raises(ValueError):
            get_amplitude(new_zero_state(2), -1)


class TestEngineProperties:
    """Seeded randomized sweeps over the gate set."""

    @pytest.mark.parametrize("num_qubits", [2, 5, 10])
    def test_norm_preserved(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for _ in range(8):
            state = new_zero_state(num_qubits)
            apply_sequence(state, random_sequence(rng, num_qubits, 200))
            assert abs(norm_squared(state) - 1.0) < 1e-10

    @pytest.mark.parametrize("num_qubits", [2, 5, 10])
    def test_sequence_then_reverse_is_identity(self, num_qubits):
        rng = np.random.default_rng(100 + num_qubits)
        for _ in range(8):
            seq = random_sequence(rng, num_qubits, 200)
            state = new_zero_state(num_qubits)
            # start from a random superposition so the check is not trivial
            apply_sequence(state, random_sequence(rng, num_qubits, 20))
            before = amplitude_vector(state)
            apply_sequence(state, seq)
            apply_sequence(state, inverse(seq))
            np.testing.assert_allclose(amplitude_vector(state), before, atol=1e-10)

    @pytest.mark.parametrize("num_qubits", [3, 6, 9])
    def test_permutation_gates_preserve_amplitude_multiset(self, num_qubits):
        rng = np.random.default_rng(200 + num_qubits)
        for _ in range(8):
            state = new_zero_state(num_qubits)
            apply_sequence(state, random_sequence(rng, num_qubits, 15))
            before = np.sort(np.abs(amplitude_vector(state)))
            seq = random_sequence(rng, num_qubits, 120, kinds=permutation_kinds())
            apply_sequence(state, seq)
            after = np.sort(np.abs(amplitude_vector(state)))
            np.testing.assert_allclose(after, before, atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [2, 4, 6])
    def test_matches_kronecker_unitary(self, num_qubits):
        # Random circuits over all 8 gate kinds, from |0...0> and from random
        # full-support states, against the Kronecker-product unitary.
        rng = np.random.default_rng(300 + num_qubits)
        kinds = set()
        for trial in range(10):
            seq = random_sequence(rng, num_qubits, 60)
            kinds.update(gate.kind for gate in seq)
            if trial % 2:
                raw = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
                start = raw / np.linalg.norm(raw)
            else:
                start = np.eye(1 << num_qubits)[0]
            state = apply_sequence(from_amplitudes(start), seq)
            np.testing.assert_allclose(
                amplitude_vector(state), kron_unitary(num_qubits, seq) @ start, atol=1e-10
            )
        if num_qubits >= 3:
            assert kinds == set(GateKind)

    def test_kronecker_unitaries_of_single_gates(self):
        # The independent builder itself, on hand-checked cases (qubit 0 is bit 0).
        np.testing.assert_array_equal(gate_unitary(2, x(0)), np.eye(4)[[1, 0, 3, 2]])
        np.testing.assert_array_equal(gate_unitary(2, cnot(0, 1)), np.eye(4)[[0, 3, 2, 1]])
        np.testing.assert_array_equal(
            gate_unitary(2, cphase_flip_zero([0, 1])), np.diag([-1.0, 1.0, 1.0, 1.0])
        )
        for bits in range(8):
            image = bits ^ ((bits & (bits >> 1) & 1) << 2)
            assert gate_unitary(3, toffoli(0, 1, 2))[image, bits] == 1.0

    def test_active_set_entries_outside_support_are_exact_zero(self):
        # The stored indices are sorted, distinct and in range, and hold every
        # nonzero amplitude: everything else reads exactly 0.
        rng = np.random.default_rng(9)
        state = new_zero_state(6)
        apply_sequence(state, random_sequence(rng, 6, 60))
        assert state.indices.dtype == np.int64
        assert np.all(np.diff(state.indices) > 0)
        assert 0 <= state.indices[0] and state.indices[-1] < 64
        assert np.all(state.values != 0)
        outside = np.setdiff1d(np.arange(64), state.indices)
        assert all(get_amplitude(state, int(b)) == 0 for b in outside)


class TestIndexMap:
    """``permute_planes`` against the gate-by-gate engine on basis states."""

    @pytest.mark.parametrize("num_qubits", [3, 5, 7])
    def test_matches_gate_level_on_all_basis_inputs(self, num_qubits):
        rng = np.random.default_rng(400 + num_qubits)
        basis = range(1 << num_qubits)
        for _ in range(6):
            seq = random_sequence(rng, num_qubits, 40, kinds=permutation_kinds())
            expected = [apply_to_basis(num_qubits, seq, b) for b in basis]
            assert push_states(basis, seq, num_qubits) == expected

    def test_matches_kronecker_permutation_matrix(self):
        # apply_to_basis moves indices with the reference engine's numpy step;
        # the Kronecker-product unitary is independent of both kernels.
        rng = np.random.default_rng(17)
        num_qubits = 5
        seq = random_sequence(rng, num_qubits, 60, kinds=permutation_kinds())
        image = push_states(range(1 << num_qubits), seq, num_qubits)
        expected = np.zeros((1 << num_qubits, 1 << num_qubits))
        expected[image, np.arange(1 << num_qubits)] = 1.0
        np.testing.assert_array_equal(kron_unitary(num_qubits, seq), expected)

    @pytest.mark.parametrize("num_qubits", [3, 4, 5, 6])
    def test_reverse_inverts_the_map_on_all_basis_inputs(self, num_qubits):
        # The premise of oracle_marks' check: the uncompute, inverse(prepare),
        # sends prepare's image of every basis state back to that state.
        rng = np.random.default_rng(500 + num_qubits)
        basis = list(range(1 << num_qubits))
        for _ in range(8):
            seq = random_sequence(rng, num_qubits, 40, kinds=permutation_kinds())
            image = push_states(basis, seq, num_qubits)
            assert push_states(image, inverse(seq), num_qubits) == basis

    def test_input_is_not_modified(self):
        planes = [0b10101010, 0b11001100, 0b11110000]
        image = permute_planes(planes, [x(0), cnot(0, 1), toffoli(0, 1, 2)], 8)
        assert planes == [0b10101010, 0b11001100, 0b11110000]
        assert image != planes

    @pytest.mark.parametrize("gate", [h(0), cphase_flip_zero([0, 1])])
    def test_rejects_non_permutation_gates(self, gate):
        with pytest.raises(ValueError, match="does not permute"):
            permute_planes([0b1010, 0b1100], [x(1), gate], 4)

    def test_int64_width_guard(self):
        # The reference engine holds int64 indices; the plane kernel has no such limit.
        new_basis_state(MAX_INDEX_QUBITS, 0)
        with pytest.raises(ValueError, match="int64"):
            new_basis_state(MAX_INDEX_QUBITS + 1, 0)


class TestPlaneKernel:
    """The bit-plane kernel against the numpy one-gate step and the gate-level engine."""

    @staticmethod
    def _numpy_steps(indices, seq):
        out = np.array(indices, dtype=np.int64)
        for gate in seq:
            out = index_step(out, gate)
        return out

    def _check(self, num_qubits, seq, indices):
        image = push_states(indices, seq, num_qubits)
        expected = [apply_to_basis(num_qubits, seq, int(b)) for b in indices]
        assert image == expected
        assert self._numpy_steps(indices, seq).tolist() == expected

    @pytest.mark.parametrize("num_qubits", [3, 4, 5, 6, 7])
    def test_all_basis_inputs(self, num_qubits):
        rng = np.random.default_rng(600 + num_qubits)
        basis = np.arange(1 << num_qubits, dtype=np.int64)
        for _ in range(4):
            seq = random_sequence(rng, num_qubits, 40, kinds=permutation_kinds())
            self._check(num_qubits, seq, basis)

    def test_empty_array(self):
        seq = (x(0), cnot(0, 1), toffoli(0, 1, 2))
        assert permute_planes([0, 0, 0], seq, 0) == [0, 0, 0]

    @pytest.mark.parametrize("count", [1, 3, 4, 9])
    def test_counts_that_pad_the_planes(self, count):
        # X flips exactly ``count`` bits: no plane grows past the last state.
        rng = np.random.default_rng(700 + count)
        for _ in range(4):
            seq = random_sequence(rng, 6, 40, kinds=permutation_kinds())
            self._check(6, seq, rng.integers(0, 64, size=count))
            planes = permute_planes([0] * 6, seq, count)
            assert all(0 <= plane < 1 << count for plane in planes)

    def test_untouched_high_bit_passes_through(self):
        rng = np.random.default_rng(71)
        seq = random_sequence(rng, 5, 40, kinds=permutation_kinds())
        basis = range(32)
        high = push_states([b | (1 << 130) for b in basis], seq, 131)
        assert high == [b | (1 << 130) for b in push_states(basis, seq, 5)]

    def test_wide_mcx(self):
        seq = (x(0), mcx([0, 1, 2, 3, 4], 5), mcx([6, 5, 4, 3, 2, 1], 0))
        self._check(7, seq, np.arange(128, dtype=np.int64))

    def test_qubits_past_int64_width(self):
        # The same circuits with every operand shifted by 64, on states shifted
        # by 64: qubits 64..70 act as qubits 0..6 did.
        rng = np.random.default_rng(800)
        for num_qubits in (3, 5, 7) * 4:
            basis = range(1 << num_qubits)
            seq = random_sequence(rng, num_qubits, 40, kinds=permutation_kinds())
            shifted = tuple(
                Gate(g.kind, tuple(t + 64 for t in g.targets), tuple(c + 64 for c in g.controls))
                for g in seq
            )
            expected = [apply_to_basis(num_qubits, seq, b) << 64 for b in basis]
            assert push_states([b << 64 for b in basis], shifted, num_qubits + 64) == expected

    def test_qubit_past_the_last_plane(self):
        with pytest.raises(IndexError):
            permute_planes([0b01, 0b10], [x(1), cnot(0, 2)], 2)
