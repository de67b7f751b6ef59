"""Function maximization with iterative Grover search over reversible-arithmetic
oracles, demonstrated on the 0/1 knapsack problem.

The package splits into five modules: ``statevector`` (the gate IR and the
bit-plane basis-state map circuits run on), ``arithmetic`` (reversible
integer circuits), ``grover`` (oracle marks, closed-form amplitude amplification
and the unknown-count schedule), ``knapsack`` (problem model, oracle
compiler, maximization driver, brute-force cross-checks), and ``cli`` (the
command-line front end).
"""

from .arithmetic import (
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
from .grover import (
    BoyerResult,
    BoyerStep,
    boyer_search,
    build_diffusion,
    iteration_count,
)
from .knapsack import (
    CandidateEvaluation,
    CapacityError,
    KnapsackInstance,
    RegisterPlan,
    ResourceEstimate,
    SearchTrace,
    TraceStep,
    VerifyReport,
    classical_evaluate,
    classical_max,
    compile_frame,
    compile_oracle,
    enumerate_table,
    estimate_resources,
    maximize,
    plan_registers,
    verify_instance,
)
from .statevector import (
    Gate,
    GateKind,
    IntegrityError,
)

__version__ = "0.1.0"

__all__ = [
    "BoyerResult",
    "BoyerStep",
    "CandidateEvaluation",
    "CapacityError",
    "Gate",
    "GateKind",
    "IntegrityError",
    "KnapsackInstance",
    "RegisterPlan",
    "RegisterRef",
    "ResourceEstimate",
    "SearchTrace",
    "SignedEncoding",
    "TraceStep",
    "VerifyReport",
    "boyer_search",
    "build_adder",
    "build_comparator",
    "build_controlled_adder",
    "build_controlled_modular_adder",
    "build_controlled_negate",
    "build_diffusion",
    "build_load_constant",
    "build_modular_adder",
    "build_signed_comparator",
    "build_subtractor",
    "classical_evaluate",
    "classical_max",
    "compile_frame",
    "compile_oracle",
    "enumerate_table",
    "estimate_resources",
    "iteration_count",
    "maximize",
    "plan_registers",
    "verify_instance",
]
