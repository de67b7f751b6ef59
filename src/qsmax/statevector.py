"""Dense statevector simulation of reversible/unitary gate circuits.

Conventions used throughout the package:

* Basis states are integers; qubit ``k`` is bit ``k`` of the basis index
  (little-endian). Human-readable bitstrings elsewhere are rendered
  most-significant-first and never leak into this module.
* Amplitudes live in one dense ``complex128`` array of length
  ``2**num_qubits``. Alongside the array each state keeps a private
  *active index set*: a sorted superset of the indices that may hold a
  nonzero amplitude (entries outside it are exactly ``0.0``). Circuits that
  keep the state close to computational-basis form (like the oracle circuits
  built by this package) then cost O(active) per gate instead of
  O(2**num_qubits). Once the active set grows past a quarter of the full
  space the state silently switches to plain whole-array kernels. Both
  code paths implement identical gate semantics and are cross-checked by
  the test suite.
* Tolerance ladder: 1e-12 for algebraic identities, 1e-10 for
  sequence-level checks, 1e-6 for measurement integrity.

Gate set: X, H, CNOT, TOFFOLI, MCX (multi-controlled X), PERES and its
adjoint, and a phase flip on the all-zero subspace of a qubit list (the
phase core of the inversion-about-average operator). All of them except H
and the phase flip permute basis states; ``permute_indices`` runs a circuit
of those as an integer map on int64 basis indices, with no amplitudes. It
runs bit-sliced: one Python int per qubit holds that qubit's bit of every
index (a bit plane), so a gate costs one or two big-int operations however
many indices there are. Basis indices are int64 throughout, so no state may
exceed ``MAX_INDEX_QUBITS`` qubits.

Gates are frozen values and a GateSequence is a tuple of them, so both can
be shared freely: the permutation-gate factories intern their gates (see
the factory section below) and the arithmetic builders cache whole
sequences.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_QUBIT_CAP = 26

# Widest register whose basis indices and bit masks fit int64 arithmetic.
MAX_INDEX_QUBITS = 62

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Active sets larger than 2**n // _DENSE_FRACTION trigger the whole-array path.
_DENSE_FRACTION = 4
_MIN_SPARSE_LIMIT = 8


class CapacityError(Exception):
    """Requested state size exceeds the configured qubit cap."""


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


class StateVector:
    """Dense array of complex amplitudes over ``2**num_qubits`` basis states."""

    __slots__ = ("num_qubits", "amplitudes", "_active")

    def __init__(
        self,
        num_qubits: int,
        amplitudes: np.ndarray,
        active: np.ndarray | None,
    ) -> None:
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes
        # Sorted superset of the indices with nonzero amplitude, or None once
        # the whole-array kernels have taken over.
        self._active = active

    @property
    def dimension(self) -> int:
        return 1 << self.num_qubits

    def copy(self) -> "StateVector":
        active = None if self._active is None else self._active.copy()
        return StateVector(self.num_qubits, self.amplitudes.copy(), active)


def check_index_width(num_qubits: int) -> None:
    """Raise CapacityError if int64 basis indices cannot address ``num_qubits``."""
    if num_qubits > MAX_INDEX_QUBITS:
        raise CapacityError(
            f"{num_qubits} qubits exceeds the {MAX_INDEX_QUBITS}-qubit limit "
            f"of int64 basis indices"
        )


def _check_qubit_count(num_qubits: int, qubit_cap: int | None) -> None:
    if num_qubits < 1:
        raise ValueError(f"need at least 1 qubit, got {num_qubits}")
    if qubit_cap is not None and num_qubits > qubit_cap:
        raise CapacityError(
            f"{num_qubits} qubits exceeds the simulator cap of {qubit_cap} "
            f"(2**{num_qubits} amplitudes = "
            f"{(1 << num_qubits) * 16 / 2**30:.1f} GiB)"
        )


def new_zero_state(num_qubits: int, *, qubit_cap: int | None = DEFAULT_QUBIT_CAP) -> StateVector:
    """All-qubits-|0> state. Raises CapacityError above ``qubit_cap`` qubits."""
    return new_basis_state(num_qubits, 0, qubit_cap=qubit_cap)


def new_basis_state(
    num_qubits: int, basis: int, *, qubit_cap: int | None = DEFAULT_QUBIT_CAP
) -> StateVector:
    """Computational basis state |basis>."""
    _check_qubit_count(num_qubits, qubit_cap)
    if not 0 <= basis < (1 << num_qubits):
        raise ValueError(f"basis index {basis} out of range for {num_qubits} qubits")
    amplitudes = np.zeros(1 << num_qubits, dtype=np.complex128)
    amplitudes[basis] = 1.0
    return StateVector(num_qubits, amplitudes, np.array([basis], dtype=np.int64))


def from_amplitudes(
    amplitudes: Sequence[complex] | np.ndarray, *, qubit_cap: int | None = DEFAULT_QUBIT_CAP
) -> StateVector:
    """Wrap an explicit amplitude vector (must be normalized to 1e-8)."""
    amps = np.array(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
        raise ValueError(f"amplitude count {amps.size} is not a power of two >= 2")
    num_qubits = amps.size.bit_length() - 1
    _check_qubit_count(num_qubits, qubit_cap)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"amplitudes not normalized (norm {norm:.3e})")
    return StateVector(num_qubits, amps, None)


# ---------------------------------------------------------------------------
# active-set kernels


def _sparse_limit(num_qubits: int) -> int:
    return max(_MIN_SPARSE_LIMIT, (1 << num_qubits) // _DENSE_FRACTION)


def _relocate(state: StateVector, new_index: np.ndarray) -> None:
    """Move active amplitudes under an injective index map."""
    active = state._active
    amps = state.amplitudes
    moved = new_index != active
    if moved.any():
        values = amps[active[moved]]
        amps[active[moved]] = 0.0
        amps[new_index[moved]] = values
        state._active = np.sort(new_index)


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


def _index_step(indices: np.ndarray, gate: Gate) -> np.ndarray:
    """``permute_indices`` of one gate, as numpy algebra on the index array.

    The active-set kernels move their indices with it; the tests use it as a
    reference independent of the plane kernel.
    """
    out = np.array(indices, dtype=np.int64)
    kind = gate.kind
    if kind is GateKind.X:
        out ^= 1 << gate.targets[0]
    elif kind is GateKind.TOFFOLI or kind is GateKind.CNOT or kind is GateKind.MCX:
        cmask = sum(1 << c for c in gate.controls)
        out ^= ((out & cmask) == cmask) * (1 << gate.targets[0])
    elif kind is GateKind.PERES or kind is GateKind.PERES_INV:
        a, b, c = gate.targets
        abit = (out >> a) & 1
        bbit = (out >> b) & 1
        if kind is GateKind.PERES_INV:
            bbit ^= abit  # its CNOT runs first, so its Toffoli reads a XOR b
        out ^= (abit << b) ^ ((abit & bbit) << c)
    else:
        raise ValueError(f"{kind.value} does not permute basis states")
    return out


def _sparse_apply(state: StateVector, gate: Gate) -> None:
    active = state._active
    amps = state.amplitudes
    kind = gate.kind
    if kind is GateKind.CPHASE_FLIP_ZERO:
        zmask = 0
        for q in gate.targets:
            zmask |= 1 << q
        hit = active[(active & zmask) == 0]
        amps[hit] = -amps[hit]
    elif kind is GateKind.H:
        bit = 1 << gate.targets[0]
        union = np.union1d(active, active ^ bit)
        lo = union[(union & bit) == 0]
        hi = lo | bit
        a0 = amps[lo]
        a1 = amps[hi]
        amps[lo] = (a0 + a1) * _INV_SQRT2
        amps[hi] = (a0 - a1) * _INV_SQRT2
        state._active = union[amps[union] != 0]
    else:
        _relocate(state, _index_step(active, gate))
    if state._active is not None and len(state._active) > _sparse_limit(state.num_qubits):
        state._active = None


# ---------------------------------------------------------------------------
# whole-array kernels


def _tensor(state: StateVector) -> np.ndarray:
    return state.amplitudes.reshape((2,) * state.num_qubits)


def _pin(state: StateVector, assignment: dict[int, int]) -> tuple:
    """Index tuple fixing qubit -> bit; reshaped axis of qubit q is n-1-q."""
    index: list = [slice(None)] * state.num_qubits
    for qubit, bitval in assignment.items():
        index[state.num_qubits - 1 - qubit] = bitval
    return tuple(index)


def _dense_apply(state: StateVector, gate: Gate) -> None:
    tens = _tensor(state)
    kind = gate.kind
    if kind is GateKind.X:
        t = gate.targets[0]
        i0, i1 = _pin(state, {t: 0}), _pin(state, {t: 1})
        tmp = tens[i0].copy()
        tens[i0] = tens[i1]
        tens[i1] = tmp
    elif kind in (GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX):
        t = gate.targets[0]
        on = {c: 1 for c in gate.controls}
        i0, i1 = _pin(state, {**on, t: 0}), _pin(state, {**on, t: 1})
        tmp = tens[i0].copy()
        tens[i0] = tens[i1]
        tens[i1] = tmp
    elif kind is GateKind.H:
        t = gate.targets[0]
        i0, i1 = _pin(state, {t: 0}), _pin(state, {t: 1})
        a0 = tens[i0].copy()
        a1 = tens[i1].copy()
        tens[i0] = (a0 + a1) * _INV_SQRT2
        tens[i1] = (a0 - a1) * _INV_SQRT2
    elif kind in (GateKind.PERES, GateKind.PERES_INV):
        a, b, c = gate.targets
        blocks = {
            (bb, cb): tens[_pin(state, {a: 1, b: bb, c: cb})].copy()
            for bb in (0, 1)
            for cb in (0, 1)
        }
        if kind is GateKind.PERES:
            # (b, c) -> (NOT b, b XOR c) on the a=1 half.
            mapping = {(1, 0): (0, 0), (0, 1): (1, 0), (1, 1): (0, 1), (0, 0): (1, 1)}
        else:
            mapping = {(1, 1): (0, 0), (0, 0): (1, 0), (1, 0): (0, 1), (0, 1): (1, 1)}
        for dst, src in mapping.items():
            tens[_pin(state, {a: 1, b: dst[0], c: dst[1]})] = blocks[src]
    elif kind is GateKind.CPHASE_FLIP_ZERO:
        idx = _pin(state, {q: 0 for q in gate.targets})
        tens[idx] = -tens[idx]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown gate kind {kind}")


# ---------------------------------------------------------------------------
# public operations


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    for q in gate.qubits:
        if q >= state.num_qubits:
            raise ValueError(
                f"{gate.kind.value}: qubit {q} out of range for "
                f"{state.num_qubits}-qubit state"
            )
    if state._active is None:
        _dense_apply(state, gate)
    else:
        _sparse_apply(state, gate)
    return state


def apply_sequence(state: StateVector, sequence: GateSequence) -> StateVector:
    """Apply all gates in order; errors carry the offending gate position."""
    for position, gate in enumerate(sequence):
        try:
            apply_gate(state, gate)
        except ValueError as err:
            raise ValueError(f"gate {position} ({gate.kind.value}): {err}") from None
    return state


def norm_squared(state: StateVector) -> float:
    if state._active is None:
        return float(np.sum(np.abs(state.amplitudes) ** 2))
    return float(np.sum(np.abs(state.amplitudes[state._active]) ** 2))


def subspace_probability(state: StateVector, qubits: Sequence[int], bits: int) -> float:
    """Total probability of basis states where ``qubits[j]`` equals bit j of ``bits``."""
    qubits = tuple(qubits)
    if not qubits:
        return norm_squared(state)
    for q in qubits:
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"qubit {q} out of range")
    if state._active is None:
        view = _tensor(state)[_pin(state, {q: (bits >> j) & 1 for j, q in enumerate(qubits)})]
        return float(np.sum(np.abs(view) ** 2))
    mask = 0
    pattern = 0
    for j, q in enumerate(qubits):
        mask |= 1 << q
        pattern |= ((bits >> j) & 1) << q
    active = state._active
    hit = active[(active & mask) == pattern]
    return float(np.sum(np.abs(state.amplitudes[hit]) ** 2))


def get_amplitude(state: StateVector, basis: int) -> complex:
    """Read one stored amplitude."""
    if not 0 <= basis < state.dimension:
        raise ValueError(f"basis index {basis} out of range for {state.num_qubits} qubits")
    return complex(state.amplitudes[basis])


def measure_all(state: StateVector, rng: np.random.Generator) -> int:
    """Sample a basis index with probability |amplitude|^2; does not collapse.

    The caller re-prepares states between samples, so collapse semantics are
    intentionally absent. Raises IntegrityError if the norm has drifted by
    more than 1e-6.
    """
    if state._active is None:
        return sample_basis(state.dimension, np.abs(state.amplitudes) ** 2, rng)
    active = state._active
    return sample_basis(active, np.abs(state.amplitudes[active]) ** 2, rng)


def sample_basis(
    indices: np.ndarray | int, probs: np.ndarray, rng: np.random.Generator
) -> int:
    """Draw one of ``indices`` (sorted; an int n means range(n)) with ``probs``.

    Raises IntegrityError if the probabilities sum more than 1e-6 away from
    1 in norm.
    """
    total = float(probs.sum())
    if abs(math.sqrt(total) - 1.0) > 1e-6:
        raise IntegrityError(f"state norm drifted to {math.sqrt(total)!r}; refusing to sample")
    return int(rng.choice(indices, p=probs / total))


def _densify(state: StateVector) -> StateVector:
    """Force the whole-array code path (used by tests)."""
    state._active = None
    return state
