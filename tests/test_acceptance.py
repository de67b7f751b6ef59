"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the statistical criteria use fixed seeds and are fully deterministic.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from conftest import (
    DEMO_INSTANCE_FILE,
    apply_to_basis,
    operand_registers,
    random_instance,
)
from qsmax import cli
from qsmax.arithmetic import (
    SignedEncoding,
    build_adder,
    build_comparator,
    build_controlled_adder,
    build_controlled_negate,
    build_modular_adder,
    build_subtractor,
)
from qsmax.grover import build_diffusion, iteration_count
from qsmax.knapsack import (
    KnapsackInstance,
    all_candidates,
    candidate_to_index,
    classical_max,
    compile_frame,
    compile_oracle,
    enumerate_table,
    estimate_resources,
    maximize,
    plan_registers,
    verify_instance,
)
from qsmax.statevector import inverse
from reference_engine import apply_sequence, get_amplitude, norm_squared, prepare_search_state

DEMO = KnapsackInstance(((7, 4), (4, 10), (2, 5), (3, 3)), 10)

# Ground-truth candidate table for the demo instance, in display order:
# (currency fitness, weight, valid). Circuit fitness is in tenths of these
# currency units.
GROUND_TRUTH = {
    "0000": (0, 0, True),
    "0001": (30, 3, True),
    "0010": (50, 2, True),
    "0011": (80, 5, True),
    "0100": (100, 4, True),
    "0101": (130, 7, True),
    "0110": (150, 6, True),
    "0111": (180, 9, True),
    "1000": (40, 7, True),
    "1001": (70, 10, True),
    "1010": (90, 9, True),
    "1011": (120, 12, False),
    "1100": (140, 11, False),
    "1101": (170, 14, False),
    "1110": (190, 13, False),
    "1111": (220, 16, False),
}


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_1_candidate_table_reproduction(capsys):
    """verify on the bundled instance; all 16 rows exact; < 10 s."""
    start = time.perf_counter()
    rows = enumerate_table(DEMO)
    exact = all(
        (row.fitness * 10, row.weight, row.valid) == GROUND_TRUTH[row.candidate]
        for row in rows
    )
    code = cli.main(["verify", str(DEMO_INSTANCE_FILE)])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(
            1,
            "candidate table reproduction",
            exact and code == 0 and "OK (16 candidates checked)" in out,
            f"16 rows exact, verify exit {code}, {elapsed:.2f}s",
        )
        _report(1, "candidate table runtime", elapsed < 10.0, f"{elapsed:.2f}s < 10s")


def test_criterion_2_worked_amplitude_example():
    """Threshold 13: marked phase -1 at 1/4; diffusion to 5/8 vs 1/8; p=0.390625; < 5 s."""
    start = time.perf_counter()
    plan = plan_registers(DEMO)
    oracle = compile_oracle(plan, compile_frame(DEMO, plan), 13)
    state = prepare_search_state(oracle)
    apply_sequence(state, oracle.frame.prepare)
    apply_sequence(state, oracle.mark)
    apply_sequence(state, inverse(oracle.frame.prepare))

    marked = ("0110", "0111")
    sqrt2 = math.sqrt(2.0)
    # q-subspace amplitude of candidate c is sqrt(2) * the r=0 amplitude
    def q_amp(c: str) -> complex:
        return get_amplitude(state, candidate_to_index(c, 4) << plan.q.offset) * sqrt2

    post_mark_ok = all(
        abs(abs(q_amp(c)) - 0.25) < 1e-10 for c in GROUND_TRUTH
    ) and all((q_amp(c) / q_amp("0000")).real < 0 for c in marked)

    apply_sequence(state, build_diffusion(plan.q))
    magnitudes_ok = True
    probability_ok = True
    for c in GROUND_TRUTH:
        expected = 5 / 8 if c in marked else 1 / 8
        magnitudes_ok &= abs(abs(q_amp(c)) - expected) < 1e-10
    for c in marked:
        i = candidate_to_index(c, 4) << plan.q.offset
        p = abs(get_amplitude(state, i)) ** 2 + abs(
            get_amplitude(state, i | (1 << plan.r))
        ) ** 2
        probability_ok &= abs(p - 0.390625) < 1e-10
    elapsed = time.perf_counter() - start

    _report(2, "post-mark relative phase and magnitude", post_mark_ok)
    _report(2, "post-diffusion magnitudes 5/8 and 1/8", magnitudes_ok)
    _report(2, "marked candidate probability 0.390625", probability_ok)
    _report(2, "worked example runtime", elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def test_criterion_3_maximization_success_rate():
    """100 seeded runs: >= 99 reach 0111/18; median iterations <= 30; < 10 min."""
    start = time.perf_counter()
    hits = 0
    iteration_totals = []
    for seed in range(100):
        trace = maximize(DEMO, seed=seed)
        if trace.final_candidate == "0111" and trace.final_fitness == 18:
            hits += 1
        iteration_totals.append(trace.total_grover_iterations)
    elapsed = time.perf_counter() - start
    median_iterations = statistics.median(iteration_totals)
    _report(3, "maximization success rate", hits >= 99, f"{hits}/100 runs found 0111")
    _report(
        3,
        "median total Grover iterations",
        median_iterations <= 30,
        f"median {median_iterations}",
    )
    _report(3, "maximization runtime", elapsed < 600.0, f"{elapsed:.1f}s < 600s")


def _exhaustive_arithmetic_violations() -> list[str]:
    bad: list[str] = []
    for n in (2, 3, 4, 5):
        a, b, high, ctrl = operand_registers(n)
        size = 1 << n
        mask = size - 1
        adder = build_adder(a, b, high)
        c_adder = build_controlled_adder(ctrl, a, b, high)
        subtractor = build_subtractor(a, b, high)
        comparator = build_comparator(a, b, high)
        modular = build_modular_adder(a, b)
        for av in range(size):
            for bv in range(size):
                basis = av | (bv << n)
                out = apply_to_basis(2 * n + 1, adder, basis)
                if (out & mask, (out >> n) & mask, out >> (2 * n)) != (
                    av,
                    (av + bv) & mask,
                    (av + bv) >> n,
                ):
                    bad.append(f"adder n={n} A={av} B={bv}")
                if apply_to_basis(2 * n + 2, c_adder, basis) != basis:
                    bad.append(f"controlled adder (off) n={n} A={av} B={bv}")
                got = apply_to_basis(2 * n + 2, c_adder, basis | (1 << ctrl))
                if got != (apply_to_basis(2 * n + 1, adder, basis) | (1 << ctrl)):
                    bad.append(f"controlled adder (on) n={n} A={av} B={bv}")
                out = apply_to_basis(2 * n + 1, subtractor, basis)
                if (out & mask, (out >> n) & mask, out >> (2 * n)) != (
                    av,
                    (bv - av) % size,
                    int(av > bv),
                ):
                    bad.append(f"subtractor n={n} A={av} B={bv}")
                out = apply_to_basis(2 * n + 1, comparator, basis)
                if (out & mask, (out >> n) & mask, out >> (2 * n)) != (
                    av,
                    bv,
                    int(av < bv),
                ):
                    bad.append(f"comparator n={n} A={av} B={bv}")
                out = apply_to_basis(2 * n, modular, basis)
                if (out & mask, out >> n) != (av, (av + bv) & mask):
                    bad.append(f"modular adder n={n} A={av} B={bv}")
        f = a.slice(n)
        negate = build_controlled_negate(2 * n, f.slice(n))
        for cv in (0, 1):
            for fv in range(size):
                out = apply_to_basis(2 * n + 1, negate, fv | (cv << (2 * n)))
                expected = ((-fv) % size) if cv else fv
                if out != (expected | (cv << (2 * n))):
                    bad.append(f"controlled negate p={n} ctrl={cv} f={fv}")
    return bad


def test_criterion_4_arithmetic_exhaustiveness():
    """All six builders match integer semantics on every basis input, widths 2-5."""
    start = time.perf_counter()
    violations = _exhaustive_arithmetic_violations()
    elapsed = time.perf_counter() - start
    _report(
        4,
        "arithmetic exhaustiveness",
        not violations,
        violations[0] if violations else f"widths 2-5 all exact, {elapsed:.1f}s",
    )
    _report(4, "arithmetic runtime", elapsed < 120.0, f"{elapsed:.1f}s < 120s")


def test_criterion_5_uncompute_hygiene():
    """Post-oracle probability mass outside the q (x) |0..0> (x) |-> frame < 1e-12."""
    plan = plan_registers(DEMO)
    oracle = compile_oracle(plan, compile_frame(DEMO, plan), 13)
    state = prepare_search_state(oracle)
    apply_sequence(state, oracle.frame.prepare)
    apply_sequence(state, oracle.mark)
    apply_sequence(state, inverse(oracle.frame.prepare))
    frame_mass = 0.0
    for candidate in all_candidates(4):
        base = candidate_to_index(candidate, 4) << plan.q.offset
        a0 = get_amplitude(state, base)
        a1 = get_amplitude(state, base | (1 << plan.r))
        frame_mass += abs(a0 - a1) ** 2 / 2  # |-> aligned component
    stray = norm_squared(state) - frame_mass
    _report(5, "uncompute hygiene", stray < 1e-12, f"stray mass {stray:.2e}")


def test_criterion_6_iteration_count_spot_checks():
    """Exact values of the known-count iteration formula."""
    checks = {
        (16, 2): 3,
        (4, 1): 2,
        (16, 16): 1,
    }
    ok = all(iteration_count(n, m) == k for (n, m), k in checks.items())
    _report(6, "iteration count spot checks", ok, "(16,2)->3 (4,1)->2 (16,16)->1")


def test_criterion_7_random_instance_equivalence():
    """20 random instances: solve matches brute force >= 95%, verify 100%."""
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    solve_matches = 0
    verify_passes = 0
    for index in range(20):
        n = (3, 4, 5)[index % 3]
        instance = random_instance(rng, n)
        best = classical_max(instance)
        trace = maximize(instance, seed=index)
        if trace.final_fitness == best.fitness:
            solve_matches += 1
        if verify_instance(instance).ok:
            verify_passes += 1
    elapsed = time.perf_counter() - start
    _report(
        7,
        "random-instance solve equivalence",
        solve_matches >= 19,
        f"{solve_matches}/20 optimal",
    )
    _report(
        7,
        "random-instance verification",
        verify_passes == 20,
        f"{verify_passes}/20 verified",
    )
    _report(7, "random-instance runtime", elapsed < 900.0, f"{elapsed:.1f}s < 900s")


def test_criterion_8_resource_estimate(capsys):
    """estimate reports exactly 23 qubits for the bundled instance."""
    estimate = estimate_resources(DEMO)
    code = cli.main(["estimate", str(DEMO_INSTANCE_FILE)])
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(
            8,
            "resource estimate",
            estimate.qubits == 23 and code == 0 and "qubits: 23" in out,
            f"qubits={estimate.qubits}",
        )
