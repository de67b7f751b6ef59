"""Builders for reversible integer arithmetic over register ranges.

Encoding: registers are little-endian bit vectors, ``A = sum_i a_i * 2**i``
with bit 0 the least significant. Signed values use two's complement; the
most significant bit is the sign (0 = '+', 1 = '-').

The in-place adder is the ancilla-free ripple scheme of Takahashi, Tani and
Kunihiro (arXiv:0910.2530), emitted as Toffoli and CNOT gates only: its
unwinding pass is a Toffoli then a CNOT per bit. Subtraction uses the
complement identity ``b - a = (b' + a)'``, the comparator computes only the
carry chain and uncomputes it, and the modular adder reuses the top bit of
``b`` as the carry-out. The controlled adder, controlled modular adder and
controlled negation are not written out: one transform, ``_controlled``,
derives each from its uncontrolled circuit, so the adder the oracle runs
under an item qubit is the adder the tests check. Every builder is a pure
function returning a tuple of gates and is verified against the classical
integer semantics on all basis inputs in the test suite.

The ``build_*`` functions are memoized (``functools.lru_cache``, at most
``_BUILDER_CACHE_SIZE`` circuits each), so a block is built once per process
and shared: the mark stage's signed comparator across every round and
threshold, the adders across every instance with the same register layout.
This is the package's only cache of circuit blocks (``knapsack``'s search
memo keeps one compiled compute stage, inside its frame). Sharing is safe because the
arguments (ints and RegisterRefs, which are immutable NamedTuples) are
hashable values and the result is a tuple of frozen Gates. A builder that
raises is retried on the next call, since lru_cache stores no exceptions.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

from .statevector import Gate, cnot, controlled_x, toffoli, x

_BUILDER_CACHE_SIZE = 256
_memoize = functools.lru_cache(maxsize=_BUILDER_CACHE_SIZE)


class CheckedRecord:
    """Base of the NamedTuple records whose ``__new__`` checks their fields:
    ``_make``, and so ``_replace``, and unpickling build through it too,
    under every pickle protocol. List it before the fields class."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class _RegisterRefFields(NamedTuple):
    name: str
    offset: int
    width: int


class RegisterRef(CheckedRecord, _RegisterRefFields):
    """Named contiguous range of qubit indices."""

    __slots__ = ()

    def __new__(cls, name: str, offset: int, width: int) -> "RegisterRef":
        if width < 1:
            raise ValueError(f"register {name!r}: width must be >= 1")
        if offset < 0:
            raise ValueError(f"register {name!r}: negative offset")
        return tuple.__new__(cls, (name, offset, width))

    def bit(self, i: int) -> int:
        """Qubit index of bit ``i`` (bit 0 = least significant)."""
        if not 0 <= i < self.width:
            raise ValueError(f"register {self.name!r}: bit {i} out of range")
        return self.offset + i

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(range(self.offset, self.offset + self.width))

    @property
    def sign_bit(self) -> int:
        """Qubit of the most significant (sign) bit."""
        return self.offset + self.width - 1

    def slice(self, width: int, name: str | None = None) -> "RegisterRef":
        """Low-order sub-register of the given width."""
        if not 1 <= width <= self.width:
            raise ValueError(f"register {self.name!r}: bad slice width {width}")
        return RegisterRef(name or self.name, self.offset, width)

    def value_of(self, basis: int) -> int:
        """Unsigned register content within a basis index."""
        return (basis >> self.offset) & ((1 << self.width) - 1)


class SignedEncoding(NamedTuple):
    """Two's-complement view of a ``width``-bit register."""

    width: int

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1

    def encode(self, value: int) -> int:
        """Bit pattern for a signed value."""
        if not self.min_value <= value <= self.max_value:
            raise ValueError(
                f"value {value} outside [{self.min_value}, {self.max_value}] "
                f"for {self.width}-bit two's complement"
            )
        return value & ((1 << self.width) - 1)

    def decode(self, pattern: int) -> int:
        """Signed value of a bit pattern (sign-extends the top bit)."""
        if not 0 <= pattern < (1 << self.width):
            raise ValueError(f"pattern {pattern} too wide for {self.width} bits")
        if pattern >> (self.width - 1):
            return pattern - (1 << self.width)
        return pattern


def _check_disjoint(registers: Sequence[RegisterRef], singles: Sequence[int] = ()) -> None:
    seen: set[int] = set()
    count = 0
    for reg in registers:
        seen.update(reg.bits)
        count += reg.width
    for q in singles:
        if q < 0:
            raise ValueError(f"negative qubit index {q}")
        seen.add(q)
        count += 1
    if len(seen) != count:
        names = ", ".join(r.name for r in registers)
        raise ValueError(f"operand ranges overlap ({names} / {list(singles)})")


def _check_same_width(a: RegisterRef, b: RegisterRef) -> None:
    if a.width != b.width:
        raise ValueError(
            f"width mismatch: {a.name!r} has {a.width} bits, {b.name!r} has {b.width}"
        )


def _carry_prefix(a: RegisterRef, b: RegisterRef, high: int) -> list[Gate]:
    """Opening of the ripple adder for width >= 2, up to the top carry.

    XORs a_i into b_i for i >= 1 and a_{n-1} into ``high``, runs the CNOT
    cascade down ``a``, then ripples the carries up ``a`` with Toffolis.
    ``build_adder`` and ``_carry_chain`` differ only in how they finish.
    """
    n = a.width
    gates = [cnot(a.bit(i), b.bit(i)) for i in range(1, n)]
    gates.append(cnot(a.bit(n - 1), high))
    for i in range(n - 1, 1, -1):
        gates.append(cnot(a.bit(i - 1), a.bit(i)))
    for i in range(n - 1):
        gates.append(toffoli(a.bit(i), b.bit(i), a.bit(i + 1)))
    return gates


@_memoize
def build_adder(a: RegisterRef, b: RegisterRef, high: int) -> tuple[Gate, ...]:
    """In-place ripple addition: (A, B, 0) -> (A, (A+B) mod 2^n, carry).

    ``high`` must be a caller-zeroed qubit disjoint from both registers; it
    receives the carry-out (is XORed with it, making the sequence reversible
    for any initial ``high``).
    """
    _check_same_width(a, b)
    _check_disjoint([a, b], [high])
    n = a.width
    if n == 1:
        return (toffoli(a.bit(0), b.bit(0), high), cnot(a.bit(0), b.bit(0)))
    gates = _carry_prefix(a, b, high)
    gates += (toffoli(a.bit(n - 1), b.bit(n - 1), high), cnot(a.bit(n - 1), b.bit(n - 1)))
    for j in range(n - 2, 0, -1):
        gates += (toffoli(a.bit(j), b.bit(j), a.bit(j + 1)), cnot(a.bit(j), b.bit(j)))
    gates.append(toffoli(a.bit(0), b.bit(0), a.bit(1)))
    for i in range(1, n - 1):
        gates.append(cnot(a.bit(i), a.bit(i + 1)))
    for i in range(n):
        gates.append(cnot(a.bit(i), b.bit(i)))
    return tuple(gates)


def _controlled(gates: Sequence[Gate], ctrl: int, work: Sequence[int]) -> tuple[Gate, ...]:
    """``gates`` (X, CNOT, Toffoli, MCX) applied when ``ctrl`` is |1>.

    Every gate that writes a qubit outside ``work`` gains ``ctrl`` as its
    first control; the gates that write ``work`` stay as they are. That is
    right only if, once the other gates are skipped, the gates on ``work``
    undo each other, as the adder's carry bookkeeping inside ``a`` does.
    """
    out = []
    for gate in gates:
        (target,) = gate.targets
        out.append(gate if target in work else controlled_x((ctrl, *gate.controls), target))
    return tuple(out)


@_memoize
def build_controlled_adder(
    ctrl: int, a: RegisterRef, b: RegisterRef, high: int
) -> tuple[Gate, ...]:
    """Adder applied when ``ctrl`` is |1>, identity when |0>.

    Derived from ``build_adder``: only the gates that write into ``b`` or
    ``high`` gain the extra control, and the carry bookkeeping inside ``a``
    cancels on its own when the sum bits are never written.
    """
    _check_same_width(a, b)
    _check_disjoint([a, b], [high, ctrl])
    return _controlled(build_adder(a, b, high), ctrl, a.bits)


@_memoize
def build_modular_adder(a: RegisterRef, b: RegisterRef) -> tuple[Gate, ...]:
    """In-place (A+B) mod 2^n into ``b``, no carry qubit.

    The top bit of ``b`` stands in for the carry-out: the plain adder runs on
    the low n-1 bits and a final CNOT folds in the top bits.
    """
    _check_same_width(a, b)
    _check_disjoint([a, b])
    n = a.width
    if n == 1:
        return (cnot(a.bit(0), b.bit(0)),)
    low_a, low_b = a.slice(n - 1), b.slice(n - 1)
    return build_adder(low_a, low_b, b.bit(n - 1)) + (cnot(a.bit(n - 1), b.bit(n - 1)),)


@_memoize
def build_controlled_modular_adder(
    ctrl: int, a: RegisterRef, b: RegisterRef
) -> tuple[Gate, ...]:
    """Controlled (A+B) mod 2^n; the workhorse of the oracle compiler.

    Derived from ``build_modular_adder`` as the controlled adder is from
    ``build_adder``: the gates that write ``b`` gain the extra control.
    """
    _check_same_width(a, b)
    _check_disjoint([a, b], [ctrl])
    return _controlled(build_modular_adder(a, b), ctrl, a.bits)


@_memoize
def build_subtractor(a: RegisterRef, b: RegisterRef, high: int) -> tuple[Gate, ...]:
    """In-place (B-A) mod 2^n into ``b`` via complement-add-complement.

    ``high`` is XORed with the borrow: it ends 1 exactly when A > B.
    """
    _check_same_width(a, b)
    _check_disjoint([a, b], [high])
    complement_b = tuple(x(q) for q in b.bits)
    return complement_b + build_adder(a, b, high) + complement_b


def _carry_chain(a: RegisterRef, b: RegisterRef, target: int) -> list[Gate]:
    """Adder prefix after which ``target`` is XORed with carry(A+B).

    Leaves a and b scrambled; every gate is self-inverse, so reversing the
    non-target gates restores them.
    """
    n = a.width
    if n == 1:
        return [toffoli(a.bit(0), b.bit(0), target)]
    gates = _carry_prefix(a, b, target)
    gates.append(toffoli(a.bit(n - 1), b.bit(n - 1), target))
    return gates


@_memoize
def build_comparator(a: RegisterRef, b: RegisterRef, flag: int) -> tuple[Gate, ...]:
    """Strict unsigned less-than: flag ^= [A < B]; ``a`` and ``b`` restored.

    Complements ``a``, rides only the carry chain of the adder into ``flag``
    (carry(A'+B) = 1 iff A < B), then uncomputes the chain.
    """
    _check_same_width(a, b)
    _check_disjoint([a, b], [flag])
    complement_a = [x(q) for q in a.bits]
    chain = _carry_chain(a, b, flag)
    unchain = [g for g in reversed(chain) if flag not in g.qubits]
    return tuple(complement_a + chain + unchain + complement_a)


@_memoize
def build_signed_comparator(a: RegisterRef, b: RegisterRef, flag: int) -> tuple[Gate, ...]:
    """Two's-complement less-than: flag ^= [A < B] for signed A, B.

    Flipping both sign bits converts to the order-preserving biased
    (offset-binary) form, after which the unsigned comparator applies.
    """
    _check_same_width(a, b)
    _check_disjoint([a, b], [flag])
    bias = (x(a.sign_bit), x(b.sign_bit))
    return bias + build_comparator(a, b, flag) + bias


@_memoize
def build_load_constant(value: int, reg: RegisterRef) -> tuple[Gate, ...]:
    """X gates writing ``value`` into a zeroed register; self-inverse."""
    if value < 0 or value >= (1 << reg.width):
        raise ValueError(
            f"constant {value} does not fit in {reg.width}-bit register {reg.name!r}"
        )
    return tuple(x(reg.bit(i)) for i in range(reg.width) if (value >> i) & 1)


@_memoize
def build_controlled_negate(ctrl: int, f: RegisterRef) -> tuple[Gate, ...]:
    """Two's-complement negation of ``f`` when ``ctrl`` is |1>.

    Complement all bits, then add one: bit k flips when every bit below it
    is 1, from the top bit down. Every gate of that negation gains the
    extra control. Negating the most negative value -2^(p-1) wraps to
    itself, the standard two's complement behaviour.
    """
    _check_disjoint([f], [ctrl])
    complement = tuple(x(q) for q in f.bits)
    increment = tuple(controlled_x(f.bits[:k], f.bit(k)) for k in range(f.width - 1, 0, -1))
    return _controlled(complement + increment + (x(f.bit(0)),), ctrl, ())
