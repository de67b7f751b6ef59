"""Reversible/unitary gate circuits and their action on basis indices.

Conventions used throughout the package:

* Basis states are integers; qubit ``k`` is bit ``k`` of the basis index
  (little-endian). Human-readable bitstrings elsewhere are rendered
  most-significant-first and never leak into this module.

Gate set: X, H, CNOT, TOFFOLI, MCX (multi-controlled X), PERES and its
adjoint, and a phase flip on the all-zero subspace of a qubit list (the
phase core of the inversion-about-average operator). All of them except H
and the phase flip permute basis states; ``permute_indices`` runs a circuit
of those as an integer map on int64 basis indices, with no amplitudes. It
runs bit-sliced: one Python int per qubit holds that qubit's bit of every
index (a bit plane), so a gate costs one or two big-int operations however
many indices there are. Basis indices are int64 throughout, so no register
may exceed ``MAX_INDEX_QUBITS`` qubits; that is the only width limit, since
nothing in the package allocates ``2**qubits`` amplitudes. The search works
from the oracle's marks in closed form (``grover``); the gate-by-gate state
vector engine it is checked against lives with the tests.

Gates are frozen values and a GateSequence is a tuple of them, so both can
be shared freely: the permutation-gate factories intern their gates (see
the factory section below) and the arithmetic builders cache whole
sequences.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Widest register whose basis indices and bit masks fit int64 arithmetic.
MAX_INDEX_QUBITS = 62


class CapacityError(Exception):
    """A register is wider than int64 basis indices can address."""


class IntegrityError(Exception):
    """A state failed a runtime consistency check (norm or uncompute)."""


class GateKind(enum.Enum):
    X = "X"
    H = "H"
    CNOT = "CNOT"
    TOFFOLI = "TOFFOLI"
    PERES = "PERES"
    PERES_INV = "PERES_INV"
    MCX = "MCX"
    CPHASE_FLIP_ZERO = "CPHASE_FLIP_ZERO"


# The plane kernel dispatches on these: a global is cheaper than an enum lookup.
_X, _CNOT, _TOFFOLI, _MCX = GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX
_PERES, _PERES_INV = GateKind.PERES, GateKind.PERES_INV


# Operand-count rule (targets, controls) of each gate kind.
_OPERAND_RULES = {
    GateKind.X: lambda nt, nc: nt == 1 and nc == 0,
    GateKind.H: lambda nt, nc: nt == 1 and nc == 0,
    GateKind.CNOT: lambda nt, nc: nt == 1 and nc == 1,
    GateKind.TOFFOLI: lambda nt, nc: nt == 1 and nc == 2,
    GateKind.MCX: lambda nt, nc: nt == 1 and nc >= 1,
    GateKind.PERES: lambda nt, nc: nt == 3 and nc == 0,
    GateKind.PERES_INV: lambda nt, nc: nt == 3 and nc == 0,
    GateKind.CPHASE_FLIP_ZERO: lambda nt, nc: nt >= 1 and nc == 0,
}


@dataclass(frozen=True, slots=True)
class Gate:
    """One primitive gate addressed by qubit index.

    ``targets`` for PERES/PERES_INV is the ordered operand triple (a, b, c);
    PERES maps basis bits (a, b, c) -> (a, a XOR b, (a AND b) XOR c).
    CPHASE_FLIP_ZERO multiplies the amplitude by -1 on basis states where
    every listed operand qubit is 0.
    """

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        targets = tuple(map(int, self.targets))
        controls = tuple(map(int, self.controls))
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        operands = targets + controls
        if not operands or min(operands) < 0:
            raise ValueError(f"{self.kind.value}: bad operand list {operands!r}")
        if len(set(operands)) != len(operands):
            raise ValueError(f"{self.kind.value}: duplicate qubit in {operands!r}")
        nt, nc = len(targets), len(controls)
        if not _OPERAND_RULES[self.kind](nt, nc):
            raise ValueError(
                f"{self.kind.value}: invalid operand counts "
                f"(targets={nt}, controls={nc})"
            )

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def inverse(self) -> "Gate":
        """Adjoint gate. Everything except PERES is self-inverse."""
        kind = self.kind
        if kind is _PERES:
            return peres_inv(*self.targets)
        if kind is _PERES_INV:
            return peres(*self.targets)
        return self


# Gate factories. The permutation-gate factories are interned: a Gate is
# frozen, so one object per distinct gate can be shared by every sequence
# that uses it, and its checks run once, on first construction. An invalid
# gate raises on every call, since lru_cache stores no exceptions. Each
# cache holds at most _GATE_CACHE_SIZE gates (a demo prepare has 93
# distinct gates among its 290).
_GATE_CACHE_SIZE = 2048
_intern = functools.lru_cache(maxsize=_GATE_CACHE_SIZE)


@_intern
def x(target: int) -> Gate:
    return Gate(GateKind.X, (target,))


def h(target: int) -> Gate:
    return Gate(GateKind.H, (target,))


@_intern
def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (target,), (control,))


@_intern
def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (target,), (control_a, control_b))


def mcx(controls: Sequence[int], target: int) -> Gate:
    return _mcx(tuple(controls), target)


@_intern
def _mcx(controls: tuple[int, ...], target: int) -> Gate:
    return Gate(GateKind.MCX, (target,), controls)


def controlled_x(controls: Sequence[int], target: int) -> Gate:
    """X on ``target`` controlled on all of ``controls``, as the narrowest kind."""
    controls = tuple(controls)
    if len(controls) == 0:
        return x(target)
    if len(controls) == 1:
        return cnot(controls[0], target)
    if len(controls) == 2:
        return toffoli(controls[0], controls[1], target)
    return mcx(controls, target)


@_intern
def peres(a: int, b: int, c: int) -> Gate:
    return Gate(GateKind.PERES, (a, b, c))


@_intern
def peres_inv(a: int, b: int, c: int) -> Gate:
    return Gate(GateKind.PERES_INV, (a, b, c))


def cphase_flip_zero(qubits: Sequence[int]) -> Gate:
    return Gate(GateKind.CPHASE_FLIP_ZERO, tuple(qubits))


class GateSequence:
    """Ordered, immutable list of gates (the circuit IR)."""

    __slots__ = ("gates", "_reverse")

    def __init__(self, gates: Iterable[Gate] = ()) -> None:
        self.gates: tuple[Gate, ...] = tuple(gates)
        self._reverse: GateSequence | None = None

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, i: int) -> Gate:
        return self.gates[i]

    def __add__(self, other: "GateSequence | Iterable[Gate]") -> "GateSequence":
        other_gates = other.gates if isinstance(other, GateSequence) else tuple(other)
        return GateSequence(self.gates + other_gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateSequence):
            return NotImplemented
        return self.gates == other.gates

    def reverse(self) -> "GateSequence":
        """The inverse sequence: reversed order, each gate replaced by its adjoint.

        Built on the first call and returned as the same object afterwards.
        """
        if self._reverse is None:
            self._reverse = GateSequence(map(Gate.inverse, reversed(self.gates)))
        return self._reverse

    def qubits(self) -> frozenset[int]:
        """All qubit indices any gate touches."""
        return frozenset(q for g in self.gates for q in g.qubits)


def check_index_width(num_qubits: int) -> None:
    """Raise CapacityError if int64 basis indices cannot address ``num_qubits``."""
    if num_qubits > MAX_INDEX_QUBITS:
        raise CapacityError(
            f"{num_qubits} qubits exceeds the {MAX_INDEX_QUBITS}-qubit limit "
            f"of int64 basis indices"
        )


def permute_indices(indices: np.ndarray, gates: Iterable[Gate]) -> np.ndarray:
    """Images of int64 basis indices under permutation gates applied in order.

    X, CNOT, TOFFOLI, MCX, PERES and PERES_INV send every basis state to one
    basis state, so a circuit of them is an integer map on basis indices.
    The indices are transposed once into bit planes (one Python int per
    qubit; its bit i is that qubit's bit of ``indices[i]``). Each gate XORs
    its target plane with all ones (X) or with the AND of its control planes
    (PERES: a Toffoli then a CNOT, PERES_INV the reverse), and the planes are
    transposed back once. Returns a new int64 array. Raises ValueError on H
    or CPHASE_FLIP_ZERO, which do not permute the basis, and CapacityError
    when a gate qubit or an index bit is above ``MAX_INDEX_QUBITS`` (the
    next bit is int64's sign).
    """
    out = np.ascontiguousarray(indices, dtype="<i8")
    n = out.size
    # Bit k of indices[i] becomes bit k*n + i of ``big``: plane k is the n-bit
    # slice at k*n. Plane 63, the int64 sign bit, must stay empty.
    bits = np.unpackbits(out.view(np.uint8), bitorder="little").reshape(n, 64)
    big = int.from_bytes(np.packbits(bits.T.ravel(), bitorder="little").tobytes(), "little")
    ones = (1 << n) - 1
    p = [(big >> (k * n)) & ones for k in range(MAX_INDEX_QUBITS + 1)]
    if big >> ((MAX_INDEX_QUBITS + 1) * n):
        check_index_width(MAX_INDEX_QUBITS + 1)
    try:
        for gate in gates:
            kind = gate.kind
            if kind is _TOFFOLI:
                c0, c1 = gate.controls
                p[gate.targets[0]] ^= p[c0] & p[c1]
            elif kind is _CNOT:
                p[gate.targets[0]] ^= p[gate.controls[0]]
            elif kind is _X:
                p[gate.targets[0]] ^= ones
            elif kind is _MCX:
                controls = gate.controls
                fire = p[controls[0]]
                for c in controls[1:]:
                    fire &= p[c]
                p[gate.targets[0]] ^= fire
            elif kind is _PERES:
                a, b, c = gate.targets
                p[c] ^= p[a] & p[b]
                p[b] ^= p[a]
            elif kind is _PERES_INV:
                a, b, c = gate.targets
                p[b] ^= p[a]
                p[c] ^= p[a] & p[b]
            else:
                raise ValueError(f"{kind.value} does not permute basis states")
    except IndexError:  # a qubit past the last plane
        check_index_width(max(gate.qubits))
        raise
    big = 0
    for plane in reversed(p):
        big = (big << n) | plane
    bits = np.unpackbits(np.frombuffer(big.to_bytes(8 * n, "little"), np.uint8), bitorder="little")
    image = np.packbits(bits.reshape(64, n).T.ravel(), bitorder="little").view("<i8")
    return image.reshape(out.shape)
