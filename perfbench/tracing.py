"""In-memory span tracer that wraps qsmax's public functions from outside.

Each wrapper replaces a function at the module attribute its callers look it
up under (``qsmax.grover.apply_sequence`` is the name ``grover_iteration``
calls), so nothing under ``src/`` changes. A wrapped call records one span:
name, start, end, parent span, op id, and the minor page faults and system
CPU time that ``getrusage`` reports across it. Gate applications
(``statevector.apply_gate``) are too many to keep one by one; they are summed
per gate kind, and their time still counts as child time of the enclosing
span, so self times stay exact.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

_perf = time.perf_counter
_RUSAGE_SELF = resource.RUSAGE_SELF
_getrusage = resource.getrusage

GATE_KINDS = ("X", "H", "CNOT", "TOFFOLI", "PERES", "PERES_INV", "MCX", "CPHASE_FLIP_ZERO")
STAGES = ("prepare", "mark", "unprepare", "diffusion")

# (module, attribute) pairs wrapped as spans. The span is named after the
# lookup site; its layer is the module that defines the function.
SPAN_SITES = (
    ("cli", "maximize"),
    ("cli", "verify_instance"),
    ("cli", "enumerate_table"),
    ("cli", "classical_max"),
    ("knapsack", "compile_oracle"),
    ("knapsack", "boyer_search"),
    ("knapsack", "apply_sequence"),
    ("knapsack", "new_basis_state"),
    ("knapsack", "measure_all"),
    ("knapsack", "get_amplitude"),
    ("knapsack", "norm_squared"),
    ("knapsack", "build_load_constant"),
    ("knapsack", "build_controlled_modular_adder"),
    ("knapsack", "build_comparator"),
    ("knapsack", "build_controlled_negate"),
    ("knapsack", "build_signed_comparator"),
    ("grover", "grover_iteration"),
    ("grover", "prepare_search_state"),
    ("grover", "apply_sequence"),
    ("grover", "new_zero_state"),
    ("grover", "measure_all"),
    ("grover", "norm_squared"),
    ("grover", "subspace_probability"),
    ("statevector", "new_basis_state"),
)


class Span:
    __slots__ = ("id", "name", "layer", "op", "parent", "start", "end", "child", "minflt", "stime", "info")

    def __init__(self, index, name, layer, op, parent, start, minflt, stime):
        self.id = index
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.minflt = minflt
        self.stime = stime
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Keeps spans in memory; ``install`` patches modules, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self.gate_calls: Counter[str] = Counter()
        self.gate_seconds: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, layer: str) -> Span:
        usage = _getrusage(_RUSAGE_SELF)
        parent = self.stack[-1] if self.stack else None
        span = Span(
            len(self.spans), name, layer, self.op, parent,
            _perf(), usage.ru_minflt, usage.ru_stime,
        )
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = _perf()
        usage = _getrusage(_RUSAGE_SELF)
        span.minflt = usage.ru_minflt - span.minflt
        span.stime = usage.ru_stime - span.stime
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    # -- wrapping ----------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        for site, attr in SPAN_SITES:
            module = modules[site]
            original = getattr(module, attr, None)
            if original is not None:
                self._patch(module, attr, self._span_wrapper(f"{site}.{attr}", original))
        statevector = modules["statevector"]
        original = getattr(statevector, "apply_gate", None)
        if original is not None:
            self._patch(statevector, "apply_gate", self._gate_wrapper(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, name, original):
        layer = original.__module__.rsplit(".", 1)[-1]
        tracer = self
        staged = name == "grover.apply_sequence"
        iteration = name == "grover.grover_iteration"

        def traced(*args, **kwargs):
            span = tracer.begin(name, layer)
            if staged:
                span.info = _stage_of(span.parent, args)
            elif iteration:
                span.info = _stage_ids(args)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if not staged and not iteration:
                span.info = _result_info(name, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _gate_wrapper(self, original):
        calls = self.gate_calls
        seconds = self.gate_seconds
        stack = self.stack

        def traced_gate(state, gate):
            start = _perf()
            try:
                return original(state, gate)
            finally:
                elapsed = _perf() - start
                kind = gate.kind.value
                calls[kind] += 1
                seconds[kind] += elapsed
                if stack:
                    stack[-1].child += elapsed

        traced_gate.__wrapped__ = original
        return traced_gate

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """One tab-separated line per span, times in microseconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tlayer\top\tparent\tstart_us\tend_us\tself_us\tminflt\tstime_us\tinfo\n")
            for s in self.spans:
                out.write(
                    f"{s.id}\t{s.name}\t{s.layer}\t{s.op}\t"
                    f"{'' if s.parent is None else s.parent.id}\t"
                    f"{(s.start - origin) * 1e6:.1f}\t{(s.end - origin) * 1e6:.1f}\t"
                    f"{s.self_seconds * 1e6:.1f}\t{s.minflt}\t{s.stime * 1e6:.0f}\t"
                    f"{'' if isinstance(s.info, dict) or s.info is None else s.info}\n"
                )


def _stage_ids(args) -> dict[int, str]:
    """Map the identities of one grover_iteration's sequences to stage names."""
    oracle = args[1] if len(args) > 1 else None
    diffusion = args[2] if len(args) > 2 else None
    ids = {id(getattr(oracle, stage, None)): stage for stage in STAGES[:3]}
    ids[id(diffusion)] = "diffusion"
    ids.pop(id(None), None)
    return ids


def _stage_of(parent: Span | None, args) -> str:
    if parent is None or parent.name != "grover.grover_iteration" or len(args) < 2:
        return "other"
    return parent.info.get(id(args[1]), "other")


def _result_info(name: str, args, result):
    """What the layer metrics need from a call's arguments or result."""
    if name == "knapsack.boyer_search":
        steps = getattr(result, "steps", ())
        return (len(steps), sum(1 for s in steps if s.passed))
    if name == "cli.maximize":
        steps = getattr(result, "steps", ())
        return (len(steps), sum(1 for s in steps if s.accepted))
    if name.startswith("knapsack.build_"):
        return len(result)
    if name.endswith("new_basis_state") and args:
        return int(args[0])  # qubits of the allocated state
    return None


def layer_metrics(tracer: Tracer, ops: int, commands: int, solves: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    ``ops`` are the traced workload operations, ``commands`` the CLI calls
    among them and ``solves`` the ``solve`` calls.
    """
    calls: Counter[str] = Counter()
    secs: defaultdict[str, float] = defaultdict(float)
    self_secs: defaultdict[str, float] = defaultdict(float)
    faults: Counter[str] = Counter()
    info_sums: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0])
    sv_wall = sv_sys = 0.0
    sv_faults = 0
    alloc_bytes = 0
    for s in tracer.spans:
        key = s.name
        if key == "grover.apply_sequence":
            key = f"grover.stage.{s.info}"
        calls[key] += 1
        secs[key] += s.seconds
        self_secs[key] += s.self_seconds
        faults[key] += s.minflt
        if isinstance(s.info, tuple):
            info_sums[key][0] += s.info[0]
            info_sums[key][1] += s.info[1]
        elif isinstance(s.info, int) and key.startswith("knapsack.build_"):
            info_sums["gates_emitted"][0] += s.info
        if key.endswith("new_basis_state") and isinstance(s.info, int):
            alloc_bytes += (1 << s.info) * 16
        if s.layer == "statevector" and (s.parent is None or s.parent.layer != "statevector"):
            sv_wall += s.seconds
            sv_sys += s.stime
            sv_faults += s.minflt

    def per(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    builds = [k for k in calls if k.startswith("knapsack.build_")]
    compiles = calls["knapsack.compile_oracle"]
    iterations = calls["grover.grover_iteration"]
    allocs = calls["knapsack.new_basis_state"] + calls["statevector.new_basis_state"]
    basis_keys = ("knapsack.new_basis_state", "knapsack.apply_sequence", "knapsack.measure_all",
                  "knapsack.get_amplitude", "knapsack.norm_squared")
    main_self = sum(s.self_seconds for s in tracer.spans if s.name == "cli.main")
    measured, accepted = info_sums["cli.maximize"]
    boyer_steps, passed = info_sums["knapsack.boyer_search"]

    m: dict[str, tuple[float, str]] = {
        "cli.self_ms": (per(main_self, commands, 1e3), "ms"),
        "knapsack.maximize_ms": (per(secs["cli.maximize"], solves, 1e3), "ms"),
        "knapsack.rounds_per_solve": (per(calls["knapsack.boyer_search"], solves), "count"),
        "knapsack.accepted_ratio": (per(accepted, measured), "ratio"),
        "knapsack.compile_oracle_ms": (per(secs["knapsack.compile_oracle"], compiles, 1e3), "ms"),
        "knapsack.compile_oracle_calls": (per(compiles, ops), "count"),
        "knapsack.compile_oracle_self_ms": (per(self_secs["knapsack.compile_oracle"], compiles, 1e3), "ms"),
        "knapsack.basis_runs": (per(calls["knapsack.new_basis_state"], ops), "count"),
        "knapsack.basis_run_us": (per(sum(secs[k] for k in basis_keys), calls["knapsack.new_basis_state"], 1e6), "us"),
        "arithmetic.build_ms": (per(sum(secs[k] for k in builds), compiles, 1e3), "ms"),
        "arithmetic.gates_emitted": (per(info_sums["gates_emitted"][0], compiles), "count"),
        "grover.iterations_per_solve": (per(iterations, solves), "count"),
        "grover.iteration_us": (per(secs["grover.grover_iteration"], iterations, 1e6), "us"),
    }
    for stage in STAGES:
        m[f"grover.stage_us.{stage}"] = (per(secs[f"grover.stage.{stage}"], iterations, 1e6), "us")
    for stage in STAGES:
        m[f"grover.stage_faults.{stage}"] = (per(faults[f"grover.stage.{stage}"], iterations), "count")
    m.update({
        "grover.ancilla_check_us": (
            per(secs["grover.norm_squared"] + secs["grover.subspace_probability"], iterations, 1e6), "us"),
        "grover.search_state_us": (
            per(secs["grover.prepare_search_state"], calls["grover.prepare_search_state"], 1e6), "us"),
        "grover.measure_us": (per(secs["grover.measure_all"], calls["grover.measure_all"], 1e6), "us"),
        "grover.measurements_per_solve": (per(calls["grover.measure_all"], solves), "count"),
        "grover.success_ratio": (per(passed, boyer_steps), "ratio"),
    })
    for kind in GATE_KINDS:
        m[f"statevector.gate_us.{kind}"] = (
            per(tracer.gate_seconds[kind], tracer.gate_calls[kind], 1e6), "us")
    for kind in GATE_KINDS:
        m[f"statevector.gates.{kind}"] = (per(tracer.gate_calls[kind], ops), "count")
    m.update({
        "statevector.allocs": (per(allocs, ops), "count"),
        "statevector.alloc_us": (
            per(secs["knapsack.new_basis_state"] + secs["statevector.new_basis_state"], allocs, 1e6), "us"),
        "statevector.alloc_mib_computed": (per(alloc_bytes, ops, 1 / 2**20), "MiB"),
        "statevector.minor_faults": (per(sv_faults, ops), "count"),
        "statevector.sys_cpu_share": (per(sv_sys, sv_wall), "ratio"),
    })
    return m
