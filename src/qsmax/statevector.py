"""Reversible/unitary gate circuits and their action on basis states.

Conventions used throughout the package:

* Basis states are integers; qubit ``k`` is bit ``k`` of the basis index
  (little-endian). Human-readable bitstrings elsewhere are rendered
  most-significant-first and never leak into this module.

Gate set: X, H, CNOT, TOFFOLI, MCX (multi-controlled X), PERES and its
adjoint, and a phase flip on the all-zero subspace of a qubit list (the
phase core of the inversion-about-average operator). All of them except H
and the phase flip permute basis states; ``permute_planes`` runs a circuit
of those as an integer map on a set of basis states, with no amplitudes.
The states are held bit-sliced: one Python int per qubit holds that qubit's
bit of every state (a bit plane), so a gate costs one or two big-int
operations however many states there are. A register may be any width,
since nothing in the package allocates ``2**qubits`` amplitudes. The search
works from the oracle's marks in closed form (``grover``); the gate-by-gate
state vector engine it is checked against lives with the tests.

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


def permute_planes(planes: Sequence[int], gates: Iterable[Gate], size: int) -> list[int]:
    """Images of ``size`` basis states under permutation gates applied in order.

    The states are given as bit planes: ``planes[k]`` is one Python int whose
    bit i is qubit k's bit of state i, one plane per qubit. X, CNOT,
    TOFFOLI, MCX, PERES and PERES_INV send every basis state to one basis
    state, so each gate XORs its target plane with all ``size`` ones (X) or
    with the AND of its control planes (PERES: a Toffoli then a CNOT,
    PERES_INV the reverse): one or two big-int operations per gate, whatever
    ``size`` is. Returns a new list; planes no gate touches are the input's
    own ints. Raises ValueError on H or CPHASE_FLIP_ZERO, which do not
    permute the basis, and IndexError on a qubit past the last plane.
    """
    p = list(planes)
    ones = (1 << size) - 1
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
    return p
