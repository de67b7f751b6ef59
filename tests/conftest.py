"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import reference_engine as ref
from qsmax import arithmetic as ar
from qsmax import statevector as sv
from qsmax.knapsack import KnapsackInstance, _classical_columns, _compiled, plan_registers

# Property tests draw the same examples on every run (no example database,
# no wall-clock deadline), so Tier-1 stays deterministic on a loaded host.
settings.register_profile(
    "qsmax", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("qsmax")

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_INSTANCE_FILE = REPO_ROOT / "instances" / "knapsack4.txt"

# Four-item demo instance: weights (7, 4, 2, 3), values (4, 10, 5, 3),
# capacity 10. Best packing is items 2+3+4: fitness 18, weight 9.
DEMO_ITEMS = ((7, 4), (4, 10), (2, 5), (3, 3))
DEMO_CAPACITY = 10
DEMO_BEST_CANDIDATE = "0111"
DEMO_BEST_FITNESS = 18


@pytest.fixture(autouse=True)
def cold_search_memo():
    """Every test starts with nothing compiled for ``maximize`` and no
    brute-force reference built, so what a test counts or patches does not
    depend on the tests run before it."""
    _compiled.cache_clear()
    _classical_columns.cache_clear()


@pytest.fixture
def demo_instance() -> KnapsackInstance:
    return KnapsackInstance(DEMO_ITEMS, DEMO_CAPACITY)


def apply_to_basis(num_qubits: int, sequence, basis: int) -> int:
    """Send one basis state through a permutation circuit on the reference engine."""
    state = ref.apply_sequence(ref.new_basis_state(num_qubits, basis), sequence)
    out = ref.measure_all(state, np.random.default_rng(0))
    assert abs(abs(ref.get_amplitude(state, out)) - 1.0) < 1e-12, "not a basis state"
    return out


def push_states(states, gates, num_qubits: int) -> list[int]:
    """Basis states (ints of any width) through ``permute_planes`` and back.

    The states are transposed into one bit plane per qubit, and the images
    back, bit by bit in plain Python, independently of the kernel.
    """
    states = [int(s) for s in states]
    planes = [sum(((s >> k) & 1) << i for i, s in enumerate(states)) for k in range(num_qubits)]
    image = sv.permute_planes(planes, gates, len(states))
    return [sum(((p >> i) & 1) << k for k, p in enumerate(image)) for i in range(len(states))]


def operand_registers(n: int) -> tuple[ar.RegisterRef, ar.RegisterRef, int, int]:
    """Two n-bit registers plus a high/flag qubit and a control qubit."""
    a = ar.RegisterRef("a", 0, n)
    b = ar.RegisterRef("b", n, n)
    return a, b, 2 * n, 2 * n + 1


_PERMUTATION_KINDS = (
    sv.GateKind.X,
    sv.GateKind.CNOT,
    sv.GateKind.TOFFOLI,
    sv.GateKind.MCX,
)
_ALL_KINDS = _PERMUTATION_KINDS + (sv.GateKind.H, sv.GateKind.CPHASE_FLIP_ZERO)


def random_gate(rng: np.random.Generator, num_qubits: int, kinds=_ALL_KINDS) -> sv.Gate:
    kind = kinds[rng.integers(0, len(kinds))]
    if kind in (sv.GateKind.X, sv.GateKind.H):
        return sv.Gate(kind, (int(rng.integers(0, num_qubits)),))
    if kind is sv.GateKind.CNOT:
        c, t = rng.choice(num_qubits, size=2, replace=False)
        return sv.cnot(int(c), int(t))
    if kind is sv.GateKind.TOFFOLI and num_qubits >= 3:
        c1, c2, t = rng.choice(num_qubits, size=3, replace=False)
        return sv.toffoli(int(c1), int(c2), int(t))
    if kind is sv.GateKind.MCX and num_qubits >= 2:
        k = int(rng.integers(1, min(4, num_qubits)))
        qubits = rng.choice(num_qubits, size=k + 1, replace=False)
        return sv.mcx([int(q) for q in qubits[:-1]], int(qubits[-1]))
    if kind is sv.GateKind.CPHASE_FLIP_ZERO:
        k = int(rng.integers(1, min(4, num_qubits) + 1))
        qubits = rng.choice(num_qubits, size=k, replace=False)
        return sv.cphase_flip_zero([int(q) for q in qubits])
    return sv.x(int(rng.integers(0, num_qubits)))


def random_sequence(
    rng: np.random.Generator, num_qubits: int, length: int, kinds=_ALL_KINDS
) -> tuple[sv.Gate, ...]:
    return tuple(random_gate(rng, num_qubits, kinds) for _ in range(length))


def permutation_kinds():
    return _PERMUTATION_KINDS


def random_instance(
    rng: np.random.Generator, n: int, qubit_budget: int = 24
) -> KnapsackInstance:
    """Random instance with weights/values <= 15 that fits the qubit budget.

    Field magnitudes shrink with the item count so register totals stay
    simulable; oversized draws are rejected and retried.
    """
    hi = {1: 15, 2: 15, 3: 15, 4: 9, 5: 5}[n]
    while True:
        weights = rng.integers(0, hi + 1, size=n)
        values = rng.integers(0, hi + 1, size=n)
        capacity = int(rng.integers(0, int(weights.sum()) + 2))
        instance = KnapsackInstance(
            tuple((int(w), int(v)) for w, v in zip(weights, values)), capacity
        )
        if plan_registers(instance).total_qubits <= qubit_budget:
            return instance
