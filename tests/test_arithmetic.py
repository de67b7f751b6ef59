"""Reversible arithmetic builders against classical integer semantics."""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from conftest import REPO_ROOT, apply_to_basis, operand_registers
from qsmax import arithmetic as ar
from qsmax import statevector as sv
from qsmax.arithmetic import (
    RegisterRef,
    SignedEncoding,
    build_adder,
    build_comparator,
    build_controlled_adder,
    build_controlled_modular_adder,
    build_controlled_negate,
    build_load_constant,
    build_modular_adder,
    build_signed_comparator,
    build_subtractor,
)
from qsmax.cli import parse_instance
from qsmax.knapsack import KnapsackInstance, compile_prepare, plan_registers
from qsmax.statevector import GateKind, x

WIDTHS = [2, 3, 4, 5]


def _fields(out: int, n: int) -> tuple[int, int, int]:
    """Decode (a, b, high) from a basis index of the standard test layout."""
    mask = (1 << n) - 1
    return out & mask, (out >> n) & mask, (out >> (2 * n)) & 1


class TestRegisterRef:
    def test_bit_indexing(self):
        reg = RegisterRef("w", 4, 5)
        assert reg.bit(0) == 4 and reg.bit(4) == 8
        assert reg.bits == (4, 5, 6, 7, 8)
        with pytest.raises(ValueError):
            reg.bit(5)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            RegisterRef("bad", 0, 0)

    def test_slice(self):
        reg = RegisterRef("g", 9, 6)
        assert reg.slice(5).bits == (9, 10, 11, 12, 13)
        with pytest.raises(ValueError):
            reg.slice(7)


class TestSignedEncoding:
    def test_range(self):
        enc = SignedEncoding(6)
        assert (enc.min_value, enc.max_value) == (-32, 31)

    def test_roundtrip_all_values(self):
        enc = SignedEncoding(5)
        for value in range(enc.min_value, enc.max_value + 1):
            assert enc.decode(enc.encode(value)) == value

    def test_sign_bit_is_msb(self):
        enc = SignedEncoding(6)
        assert enc.encode(-12) == 0b110100
        assert enc.decode(0b110100) == -12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SignedEncoding(4).encode(8)


class TestAdder:
    def test_worked_examples(self):
        a, b, high, _ = operand_registers(5)
        seq = build_adder(a, b, high)
        out = apply_to_basis(11, seq, 7 | (4 << 5))
        assert _fields(out, 5) == (7, 11, 0)
        out = apply_to_basis(11, seq, 0 | (13 << 5))
        assert _fields(out, 5) == (0, 13, 0)
        a3, b3, high3, _ = operand_registers(3)
        out = apply_to_basis(7, build_adder(a3, b3, high3), 7 | (7 << 3))
        assert _fields(out, 3) == (7, 6, 1)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_exhaustive(self, n):
        a, b, high, _ = operand_registers(n)
        seq = build_adder(a, b, high)
        for basis_a in range(1 << n):
            for basis_b in range(1 << n):
                out = apply_to_basis(2 * n + 1, seq, basis_a | (basis_b << n))
                total = basis_a + basis_b
                assert _fields(out, n) == (basis_a, total % (1 << n), total >> n)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_gate_inventory_is_exact(self, n):
        # Width 1 is one Toffoli and one CNOT; from width 2 the carry ripple
        # and its unwinding give 2n-1 Toffolis and 5n-5 CNOTs.
        a, b, high, _ = operand_registers(n)
        counts = Counter(g.kind for g in build_adder(a, b, high))
        if n == 1:
            assert counts == {GateKind.TOFFOLI: 1, GateKind.CNOT: 1}
        else:
            assert counts == {GateKind.TOFFOLI: 2 * n - 1, GateKind.CNOT: 5 * n - 5}

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            build_adder(RegisterRef("a", 0, 3), RegisterRef("b", 3, 4), 8)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            build_adder(RegisterRef("a", 0, 3), RegisterRef("b", 2, 3), 8)
        with pytest.raises(ValueError, match="overlap"):
            build_adder(RegisterRef("a", 0, 3), RegisterRef("b", 3, 3), 2)


class TestControlledAdder:
    def test_control_off_is_identity(self):
        a, b, high, ctrl = operand_registers(5)
        seq = build_controlled_adder(ctrl, a, b, high)
        basis = 9 | (22 << 5)
        assert apply_to_basis(12, seq, basis) == basis

    def test_control_on_spot(self):
        a, b, high, ctrl = operand_registers(5)
        seq = build_controlled_adder(ctrl, a, b, high)
        out = apply_to_basis(12, seq, 7 | (0 << 5) | (1 << ctrl))
        assert _fields(out, 5) == (7, 7, 0)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_exhaustive_matches_uncontrolled(self, n):
        a, b, high, ctrl = operand_registers(n)
        controlled = build_controlled_adder(ctrl, a, b, high)
        plain = build_adder(a, b, high)
        for basis_a in range(1 << n):
            for basis_b in range(1 << n):
                basis = basis_a | (basis_b << n)
                assert apply_to_basis(2 * n + 2, controlled, basis) == basis
                on = apply_to_basis(2 * n + 2, controlled, basis | (1 << ctrl))
                assert on == apply_to_basis(2 * n + 1, plain, basis) | (1 << ctrl)


class TestSubtractor:
    def test_worked_examples(self):
        a, b, high, _ = operand_registers(5)
        seq = build_subtractor(a, b, high)
        out = apply_to_basis(11, seq, 3 | (10 << 5))
        assert _fields(out, 5) == (3, 7, 0)
        out = apply_to_basis(11, seq, 0 | (9 << 5))
        assert _fields(out, 5) == (0, 9, 0)
        a4, b4, high4, _ = operand_registers(4)
        out = apply_to_basis(9, build_subtractor(a4, b4, high4), 10 | (3 << 4))
        assert _fields(out, 4) == (10, 9, 1)  # (3-10) mod 16, borrow set

    @pytest.mark.parametrize("n", WIDTHS)
    def test_exhaustive(self, n):
        a, b, high, _ = operand_registers(n)
        seq = build_subtractor(a, b, high)
        for basis_a in range(1 << n):
            for basis_b in range(1 << n):
                out = apply_to_basis(2 * n + 1, seq, basis_a | (basis_b << n))
                expected_high = 1 if basis_a > basis_b else 0
                assert _fields(out, n) == (
                    basis_a,
                    (basis_b - basis_a) % (1 << n),
                    expected_high,
                )

    def test_equals_complement_conjugated_adder(self):
        n = 4
        a, b, high, _ = operand_registers(n)
        subtractor = build_subtractor(a, b, high)
        complement = tuple(x(q) for q in b.bits)
        conjugated = complement + build_adder(a, b, high) + complement
        for basis in range(1 << (2 * n)):
            assert apply_to_basis(2 * n + 1, subtractor, basis) == apply_to_basis(
                2 * n + 1, conjugated, basis
            )


class TestComparator:
    def test_worked_examples(self):
        a, b, flag, _ = operand_registers(5)
        seq = build_comparator(a, b, flag)
        out = apply_to_basis(11, seq, 7 | (10 << 5))
        assert _fields(out, 5) == (7, 10, 1)
        out = apply_to_basis(11, seq, 5 | (5 << 5))
        assert _fields(out, 5) == (5, 5, 0)  # equality is not less-than

    @pytest.mark.parametrize("n", WIDTHS)
    def test_exhaustive_with_restoration(self, n):
        a, b, flag, _ = operand_registers(n)
        seq = build_comparator(a, b, flag)
        for basis_a in range(1 << n):
            for basis_b in range(1 << n):
                out = apply_to_basis(2 * n + 1, seq, basis_a | (basis_b << n))
                expected = 1 if basis_a < basis_b else 0
                assert _fields(out, n) == (basis_a, basis_b, expected)

    def test_flag_toggles_rather_than_sets(self):
        a, b, flag, _ = operand_registers(3)
        seq = build_comparator(a, b, flag)
        out = apply_to_basis(7, seq, 1 | (5 << 3) | (1 << flag))
        assert _fields(out, 3) == (1, 5, 0)  # 1 < 5 flips the preset flag off


class TestSignedComparator:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_exhaustive_signed(self, p):
        a, b, flag, _ = operand_registers(p)
        enc = SignedEncoding(p)
        seq = build_signed_comparator(a, b, flag)
        for pattern_a in range(1 << p):
            for pattern_b in range(1 << p):
                out = apply_to_basis(2 * p + 1, seq, pattern_a | (pattern_b << p))
                expected = 1 if enc.decode(pattern_a) < enc.decode(pattern_b) else 0
                assert _fields(out, p) == (pattern_a, pattern_b, expected)


class TestModularAdder:
    def test_worked_examples(self):
        a, b, _, _ = operand_registers(4)
        seq = build_modular_adder(a, b)
        out = apply_to_basis(8, seq, 9 | (9 << 4))
        assert (out & 15, out >> 4) == (9, 2)
        for value in range(16):
            out = apply_to_basis(8, seq, 0 | (value << 4))
            assert (out & 15, out >> 4) == (0, value)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_exhaustive(self, n):
        a, b, _, _ = operand_registers(n)
        seq = build_modular_adder(a, b)
        mask = (1 << n) - 1
        for basis_a in range(1 << n):
            for basis_b in range(1 << n):
                out = apply_to_basis(2 * n, seq, basis_a | (basis_b << n))
                assert (out & mask, out >> n) == (basis_a, (basis_a + basis_b) & mask)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_controlled_exhaustive(self, n):
        a, b, _, ctrl = operand_registers(n)
        ctrl = 2 * n  # no high qubit in the modular layout
        seq = build_controlled_modular_adder(ctrl, a, b)
        mask = (1 << n) - 1
        for basis_a in range(1 << n):
            for basis_b in range(1 << n):
                basis = basis_a | (basis_b << n)
                assert apply_to_basis(2 * n + 1, seq, basis) == basis
                on = apply_to_basis(2 * n + 1, seq, basis | (1 << ctrl))
                expected = basis_a | (((basis_a + basis_b) & mask) << n) | (1 << ctrl)
                assert on == expected


class TestLoadConstant:
    def test_seven_in_six_bits(self):
        reg = RegisterRef("g", 0, 6)
        out = apply_to_basis(6, build_load_constant(7, reg), 0)
        assert out == 0b000111

    def test_ten_in_six_bits(self):
        reg = RegisterRef("g", 0, 6)
        out = apply_to_basis(6, build_load_constant(10, reg), 0)
        assert out == 0b001010

    def test_zero_is_empty(self):
        assert len(build_load_constant(0, RegisterRef("g", 0, 6))) == 0

    def test_self_inverse(self):
        reg = RegisterRef("g", 2, 5)
        seq = build_load_constant(19, reg)
        assert apply_to_basis(7, seq + seq, 0) == 0

    def test_too_wide(self):
        with pytest.raises(ValueError, match="fit"):
            build_load_constant(64, RegisterRef("g", 0, 6))


class TestControlledNegate:
    def test_negates_twelve(self):
        f = RegisterRef("f", 0, 6)
        seq = build_controlled_negate(6, f)
        out = apply_to_basis(7, seq, 12 | (1 << 6))
        assert out & 63 == 0b110100  # two's complement of -12

    def test_control_off(self):
        f = RegisterRef("f", 0, 6)
        seq = build_controlled_negate(6, f)
        for value in (0, 12, 63):
            assert apply_to_basis(7, seq, value) == value

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_exhaustive_and_involutive(self, p):
        f = RegisterRef("f", 0, p)
        seq = build_controlled_negate(p, f)
        ctrl_bit = 1 << p
        for value in range(1 << p):
            out = apply_to_basis(p + 1, seq, value | ctrl_bit)
            assert out & ((1 << p) - 1) == (-value) % (1 << p)
            again = apply_to_basis(p + 1, seq, out)
            assert again == value | ctrl_bit

    def test_most_negative_wraps_to_itself(self):
        f = RegisterRef("f", 0, 4)
        seq = build_controlled_negate(4, f)
        assert apply_to_basis(5, seq, 8 | 16) == 8 | 16


class TestOperandConfinement:
    """No builder may emit gates outside its declared operand ranges."""

    def test_all_builders(self):
        a = RegisterRef("a", 1, 4)
        b = RegisterRef("b", 7, 4)
        high, ctrl = 12, 14
        cases = [
            (build_adder(a, b, high), set(a.bits) | set(b.bits) | {high}),
            (
                build_controlled_adder(ctrl, a, b, high),
                set(a.bits) | set(b.bits) | {high, ctrl},
            ),
            (build_subtractor(a, b, high), set(a.bits) | set(b.bits) | {high}),
            (build_comparator(a, b, high), set(a.bits) | set(b.bits) | {high}),
            (build_signed_comparator(a, b, high), set(a.bits) | set(b.bits) | {high}),
            (build_modular_adder(a, b), set(a.bits) | set(b.bits)),
            (build_controlled_modular_adder(ctrl, a, b), set(a.bits) | set(b.bits) | {ctrl}),
            (build_load_constant(13, a), set(a.bits)),
            (build_controlled_negate(ctrl, a), set(a.bits) | {ctrl}),
        ]
        for sequence, allowed in cases:
            assert {q for gate in sequence for q in gate.qubits} <= allowed


def _builder_calls(rng: np.random.Generator) -> list[tuple]:
    """One (builder, args) pair per memoized builder on a random layout."""
    n = int(rng.integers(1, 6))
    offset = int(rng.integers(0, 8))
    a = RegisterRef("a", offset, n)
    b = RegisterRef("b", offset + n, n)
    high, ctrl = offset + 2 * n, offset + 2 * n + 1
    value = int(rng.integers(0, 1 << n))
    return [
        (build_adder, (a, b, high)),
        (build_controlled_adder, (ctrl, a, b, high)),
        (build_modular_adder, (a, b)),
        (build_controlled_modular_adder, (ctrl, a, b)),
        (build_subtractor, (a, b, high)),
        (build_comparator, (a, b, high)),
        (build_signed_comparator, (a, b, high)),
        (build_load_constant, (value, a)),
        (build_controlled_negate, (ctrl, a)),
    ]


class TestMemoizedBuilders:
    """The builders are cached; a cached block must equal a fresh build."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cached_result_equals_uncached_build(self, seed):
        for builder, args in _builder_calls(np.random.default_rng(seed)):
            cached = builder(*args)
            assert type(cached) is tuple, builder.__name__
            assert cached == builder.__wrapped__(*args), builder.__name__

    def test_repeated_call_returns_the_same_object(self):
        for builder, args in _builder_calls(np.random.default_rng(7)):
            first = builder(*args)
            # equal, separately constructed arguments hit the same entry
            copies = tuple(
                RegisterRef(arg.name, arg.offset, arg.width)
                if isinstance(arg, RegisterRef)
                else arg
                for arg in args
            )
            assert builder(*copies) is first, builder.__name__

    def test_every_cache_is_bounded(self):
        cached = {
            f"{module.__name__}.{name}": obj.cache_info().maxsize
            for module in (ar, sv)
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info")
        }
        builders = _builder_calls(np.random.default_rng(0))
        assert set(cached) == {f"qsmax.arithmetic.{b.__name__}" for b, _ in builders}
        for name, maxsize in cached.items():
            assert isinstance(maxsize, int) and maxsize > 0, name

    def test_invalid_arguments_raise_on_every_call(self):
        a = RegisterRef("a", 0, 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="does not fit"):
                build_load_constant(8, a)
            with pytest.raises(ValueError, match="overlap"):
                build_adder(a, a, 5)



# SHA-256 of the canonical gate lists of ``_pinned_circuits``: any change to
# which gates a block emits, or their order or operands, changes it.
PINNED_CIRCUITS_SHA256 = "6ff459d8b5ed4d106f82384f5cd412860eae980c9cdd69d86f9b18ce411c0c8b"


def _pinned_circuits():
    """Every controlled block at widths 1-11 in three disjoint register
    layouts, each with the control below and above the registers, then the
    compute stage of the demo, the wide instance and 50 seeded instances."""
    for n in range(1, 12):
        for a_at, b_at, high in ((1, 1 + n, 1 + 2 * n), (2 + n, 1, 1 + n), (3, 4 + n, 1)):
            a, b = RegisterRef("a", a_at, n), RegisterRef("b", b_at, n)
            for ctrl in (0, max(*a.bits, *b.bits, high) + 1):
                yield build_controlled_adder(ctrl, a, b, high)
                yield build_controlled_modular_adder(ctrl, a, b)
                yield build_controlled_negate(ctrl, b)
    for name in ("knapsack4.txt", "knapsack_wide.txt"):
        instance = parse_instance(str(REPO_ROOT / "instances" / name))
        yield compile_prepare(instance, plan_registers(instance))
    rng = np.random.default_rng(26)
    for _ in range(50):
        items = rng.integers(0, 200, size=(int(rng.integers(1, 9)), 2))
        capacity = int(rng.integers(0, 600))
        instance = KnapsackInstance(tuple((int(w), int(v)) for w, v in items), capacity)
        yield compile_prepare(instance, plan_registers(instance))


def test_circuits_are_pinned_gate_for_gate():
    digest = hashlib.sha256()
    for circuit in _pinned_circuits():
        canonical = [(g.kind.value, g.targets, g.controls) for g in circuit]
        digest.update(repr(canonical).encode())
    assert digest.hexdigest() == PINNED_CIRCUITS_SHA256
