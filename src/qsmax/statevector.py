"""Reversible/unitary gate circuits and their action on basis states.

Conventions used throughout the package:

* Basis states are integers; qubit ``k`` is bit ``k`` of the basis index
  (little-endian). Human-readable bitstrings elsewhere are rendered
  most-significant-first and never leak into this module.

Gate set: X, H, CNOT, TOFFOLI, MCX (multi-controlled X) and a phase flip
on the all-zero subspace of a qubit list (the phase core of the
inversion-about-average operator). Every gate is its own inverse. All of
them except H and the phase flip permute basis states; ``permute_planes``
runs a circuit of those as an integer map on a set of basis states, with
no amplitudes.
The states are held bit-sliced: one Python int per qubit holds that qubit's
bit of every state (a bit plane), so a gate costs one or two big-int
operations however many states there are. A register may be any width,
since nothing in the package allocates ``2**qubits`` amplitudes. The search
works from the oracle's marks in closed form (``grover``); the gate-by-gate
state vector engine it is checked against lives with the tests.

A circuit is a plain tuple of frozen Gates, so both can be shared freely;
the arithmetic builders cache whole circuits, and ``inverse`` derives a
circuit's adjoint, its gates in reverse order, where it is run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence


class IntegrityError(Exception):
    """A state failed a runtime consistency check (norm or uncompute)."""


class GateKind(enum.Enum):
    X = "X"
    H = "H"
    CNOT = "CNOT"
    TOFFOLI = "TOFFOLI"
    MCX = "MCX"
    CPHASE_FLIP_ZERO = "CPHASE_FLIP_ZERO"


# The plane kernel dispatches on these: a global is cheaper than an enum lookup.
_X, _CNOT, _TOFFOLI, _MCX = GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX


# Operand-count rule (targets, controls) of each gate kind.
_OPERAND_RULES = {
    GateKind.X: lambda nt, nc: nt == 1 and nc == 0,
    GateKind.H: lambda nt, nc: nt == 1 and nc == 0,
    GateKind.CNOT: lambda nt, nc: nt == 1 and nc == 1,
    GateKind.TOFFOLI: lambda nt, nc: nt == 1 and nc == 2,
    GateKind.MCX: lambda nt, nc: nt == 1 and nc >= 1,
    GateKind.CPHASE_FLIP_ZERO: lambda nt, nc: nt >= 1 and nc == 0,
}


@dataclass(frozen=True, slots=True)
class Gate:
    """One primitive gate addressed by qubit index.

    X, H, CNOT, TOFFOLI and MCX act on their one target. CPHASE_FLIP_ZERO
    multiplies the amplitude by -1 on basis states where every listed
    operand qubit is 0.
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


def x(target: int) -> Gate:
    return Gate(GateKind.X, (target,))


def h(target: int) -> Gate:
    return Gate(GateKind.H, (target,))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (target,), (control,))


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (target,), (control_a, control_b))


def mcx(controls: Sequence[int], target: int) -> Gate:
    return Gate(GateKind.MCX, (target,), tuple(controls))


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


def cphase_flip_zero(qubits: Sequence[int]) -> Gate:
    return Gate(GateKind.CPHASE_FLIP_ZERO, tuple(qubits))


def inverse(gates: Sequence[Gate]) -> tuple[Gate, ...]:
    """The adjoint circuit: every gate is self-inverse, so the reversed order."""
    return tuple(reversed(gates))


def permute_planes(planes: Sequence[int], gates: Iterable[Gate], size: int) -> list[int]:
    """Images of ``size`` basis states under permutation gates applied in order.

    The states are given as bit planes: ``planes[k]`` is one Python int whose
    bit i is qubit k's bit of state i, one plane per qubit. X, CNOT,
    TOFFOLI and MCX send every basis state to one basis state, so each gate
    XORs its target plane with all ``size`` ones (X) or with the AND of its
    control planes: one or two big-int operations per gate, whatever
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
        else:
            raise ValueError(f"{kind.value} does not permute basis states")
    return p
