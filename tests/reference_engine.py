"""Gate-by-gate reference engine: the state vector the fused paths are checked against.

A ``SparseState`` holds the sorted int64 indices of the basis states that
carry amplitude and their complex128 amplitudes; every other amplitude is
exactly 0. There is one kernel per kind of gate action and no dense array,
so a state costs memory in proportion to its support rather than to
``2**num_qubits``: the oracle circuits keep a search state at 2N entries for
N candidates, whatever the register width. Permutation gates move the
indices with ``index_step``, numpy algebra on the index array that is
independent of the bit-plane kernel ``qsmax.statevector.permute_planes``.
``sample_basis`` is the ``Generator.choice`` sampler whose draws the fused
measurement replays.

Tolerances: 1e-12 for algebraic identities and uncompute hygiene, 1e-10 for
sequence-level checks, 1e-6 for measurement integrity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qsmax.grover import PreparedFrame
from qsmax.statevector import (
    Gate,
    GateKind,
    IntegrityError,
    h,
    inverse,
    x,
)

ANCILLA_TOLERANCE = 1e-12

# Widest register whose basis indices and bit masks fit int64 arithmetic.
MAX_INDEX_QUBITS = 62

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class SparseState:
    """Amplitudes on ``indices`` (sorted, distinct int64); zero everywhere else."""

    num_qubits: int
    indices: np.ndarray
    values: np.ndarray


def new_basis_state(num_qubits: int, basis: int) -> SparseState:
    """Computational basis state |basis>."""
    if num_qubits < 1:
        raise ValueError(f"need at least 1 qubit, got {num_qubits}")
    if num_qubits > MAX_INDEX_QUBITS:
        raise ValueError(
            f"{num_qubits} qubits exceeds the {MAX_INDEX_QUBITS}-qubit limit "
            f"of int64 basis indices"
        )
    if not 0 <= basis < (1 << num_qubits):
        raise ValueError(f"basis index {basis} out of range for {num_qubits} qubits")
    return SparseState(num_qubits, np.array([basis], dtype=np.int64), np.ones(1, dtype=np.complex128))


def new_zero_state(num_qubits: int) -> SparseState:
    """All-qubits-|0> state."""
    return new_basis_state(num_qubits, 0)


def from_amplitudes(amplitudes: Sequence[complex] | np.ndarray) -> SparseState:
    """State holding an explicit amplitude vector (must be normalized to 1e-8)."""
    amps = np.array(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
        raise ValueError(f"amplitude count {amps.size} is not a power of two >= 2")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"amplitudes not normalized (norm {norm:.3e})")
    support = np.flatnonzero(amps)
    return SparseState(amps.size.bit_length() - 1, support.astype(np.int64), amps[support])


def amplitude_vector(state: SparseState) -> np.ndarray:
    """All ``2**num_qubits`` amplitudes as one array: a read-out for small registers."""
    out = np.zeros(1 << state.num_qubits, dtype=np.complex128)
    out[state.indices] = state.values
    return out


def _lookup(state: SparseState, indices: np.ndarray) -> np.ndarray:
    """Amplitudes at arbitrary basis indices, 0 where the state holds none."""
    if not state.indices.size:
        return np.zeros(len(indices), dtype=np.complex128)
    at = np.minimum(np.searchsorted(state.indices, indices), state.indices.size - 1)
    return np.where(state.indices[at] == indices, state.values[at], 0.0)


# ---------------------------------------------------------------------------
# kernels


def index_step(indices: np.ndarray, gate: Gate) -> np.ndarray:
    """Images of basis indices under one permutation gate, as numpy algebra.

    The reference for ``permute_planes``, which runs on bit planes instead.
    """
    out = np.array(indices, dtype=np.int64)
    kind = gate.kind
    if kind is GateKind.X:
        out ^= 1 << gate.targets[0]
    elif kind is GateKind.TOFFOLI or kind is GateKind.CNOT or kind is GateKind.MCX:
        cmask = sum(1 << c for c in gate.controls)
        out ^= ((out & cmask) == cmask) * (1 << gate.targets[0])
    else:
        raise ValueError(f"{kind.value} does not permute basis states")
    return out


def _permute(state: SparseState, gate: Gate) -> None:
    moved = index_step(state.indices, gate)
    order = np.argsort(moved)
    state.indices, state.values = moved[order], state.values[order]


def _hadamard(state: SparseState, gate: Gate) -> None:
    bit = 1 << gate.targets[0]
    lo = np.unique(state.indices & ~bit)
    hi = lo | bit
    a0, a1 = _lookup(state, lo), _lookup(state, hi)
    indices = np.concatenate((lo, hi))
    values = np.concatenate(((a0 + a1) * _INV_SQRT2, (a0 - a1) * _INV_SQRT2))
    keep = np.flatnonzero(values)
    order = np.argsort(indices[keep])
    state.indices, state.values = indices[keep][order], values[keep][order]


def _phase_flip_zero(state: SparseState, gate: Gate) -> None:
    zmask = sum(1 << q for q in gate.targets)
    state.values = np.where((state.indices & zmask) == 0, -state.values, state.values)


_KERNELS = {
    GateKind.X: _permute,
    GateKind.CNOT: _permute,
    GateKind.TOFFOLI: _permute,
    GateKind.MCX: _permute,
    GateKind.H: _hadamard,
    GateKind.CPHASE_FLIP_ZERO: _phase_flip_zero,
}


# ---------------------------------------------------------------------------
# operations


def apply_gate(state: SparseState, gate: Gate) -> SparseState:
    """Apply one gate in place and return the state."""
    for q in gate.qubits:
        if q >= state.num_qubits:
            raise ValueError(
                f"{gate.kind.value}: qubit {q} out of range for "
                f"{state.num_qubits}-qubit state"
            )
    _KERNELS[gate.kind](state, gate)
    return state


def apply_sequence(state: SparseState, sequence: Sequence[Gate]) -> SparseState:
    """Apply all gates in order; errors carry the offending gate position."""
    for position, gate in enumerate(sequence):
        try:
            apply_gate(state, gate)
        except ValueError as err:
            raise ValueError(f"gate {position} ({gate.kind.value}): {err}") from None
    return state


def norm_squared(state: SparseState) -> float:
    return float(np.sum(np.abs(state.values) ** 2))


def subspace_probability(state: SparseState, qubits: Sequence[int], bits: int) -> float:
    """Total probability of basis states where ``qubits[j]`` equals bit j of ``bits``."""
    mask = pattern = 0
    for j, q in enumerate(qubits):
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"qubit {q} out of range")
        mask |= 1 << q
        pattern |= ((bits >> j) & 1) << q
    hit = (state.indices & mask) == pattern
    return float(np.sum(np.abs(state.values[hit]) ** 2))


def get_amplitude(state: SparseState, basis: int) -> complex:
    """Read one amplitude."""
    if not 0 <= basis < (1 << state.num_qubits):
        raise ValueError(f"basis index {basis} out of range for {state.num_qubits} qubits")
    return complex(_lookup(state, np.array([basis], dtype=np.int64))[0])


def measure_all(state: SparseState, rng: np.random.Generator) -> int:
    """Sample a basis index with probability |amplitude|^2; does not collapse."""
    return sample_basis(state.indices, np.abs(state.values) ** 2, rng)


def sample_basis(indices: np.ndarray, probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one of ``indices`` (sorted) with ``probs``, by ``Generator.choice``.

    Raises IntegrityError if the probabilities sum more than 1e-6 away from
    1 in norm.
    """
    total = float(probs.sum())
    if abs(math.sqrt(total) - 1.0) > 1e-6:
        raise IntegrityError(f"state norm drifted to {math.sqrt(total)!r}; refusing to sample")
    return int(rng.choice(indices, p=probs / total))


# ---------------------------------------------------------------------------
# Grover iteration, gate by gate


def ancilla_qubits(frame: PreparedFrame) -> tuple[int, ...]:
    """Every qubit that is neither a candidate bit nor the kickback."""
    q_bits = set(frame.q_register.bits)
    return tuple(
        q for q in range(frame.num_qubits) if q not in q_bits and q != frame.kickback_qubit
    )


def prepare_search_state(frame: PreparedFrame) -> SparseState:
    """Zero state with the kickback qubit in |-> and q in uniform superposition."""
    state = new_zero_state(frame.num_qubits)
    return apply_sequence(
        state,
        [x(frame.kickback_qubit), h(frame.kickback_qubit)]
        + [h(bit) for bit in frame.q_register.bits],
    )


def grover_iteration(
    state: SparseState, frame: PreparedFrame, mark: Sequence[Gate], diffusion: Sequence[Gate]
) -> SparseState:
    """One oracle application (prepare, mark, prepare reversed) plus diffusion.

    More than 1e-12 probability on states with an ancilla left at 1 means a
    broken uncompute and raises IntegrityError.
    """
    apply_sequence(state, frame.prepare)
    apply_sequence(state, mark)
    apply_sequence(state, inverse(frame.prepare))
    apply_sequence(state, diffusion)
    ancillas = ancilla_qubits(frame)
    if ancillas:
        contamination = norm_squared(state) - subspace_probability(state, ancillas, 0)
        if contamination > ANCILLA_TOLERANCE:
            raise IntegrityError(f"ancilla contamination {contamination:.3e} after uncompute")
    return state
