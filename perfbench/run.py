"""End-to-end and per-layer benchmark of the qsmax command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` and
driven in-process through ``qsmax.cli.main`` with stdout captured: one
closed-loop client, one command at a time, one process, no extra threads.

Workloads (inputs are drawn from ``--seed``; see BENCHMARK.json):

* ``demo-solve``: ``solve --format machine --confirmations 2`` on
  ``instances/knapsack4.txt`` (23 qubits) over consecutive solve seeds
  ``1000 * seed + i``. The second confirmation adds a final exhausted round:
  about 30 Boyer steps and 27 Grover iterations per solve, against about 18
  and 14 with the default one, so an operation takes about twice as long as
  a default solve.
* ``n6-verify``: ``verify`` then ``table`` on generated 6-item instances
  with 22 qubits, a different instance per operation.
* ``n8-solve``: the same solve over consecutive solve seeds on one generated
  8-item instance with 25 qubits (a 512 MiB state, larger than L3). It is
  not in BENCHMARK.json: one solve takes 20-27 s on a 2-core Xeon, so a
  45-s run holds one or two solves (with one confirmation, 10-12 s and two
  or three solves per 30 s, whose median moved 20% between seeds). Run it
  with a longer ``--seconds`` by hand.

An operation is one ``solve``, or one ``verify`` plus one ``table``.
Generated instances draw weights and values from 1..3, set the capacity to
half the total weight, and are redrawn until the bit lengths of the weight
and value sums give the workload's qubit count under the default cap.
Set-up (``setup_s``) imports qsmax, writes the generated instance files and
parses every instance file with ``cli.parse_instance``, qsmax re-imported
each time. It runs ``SETUP_REPEATS`` times before the timed loop and, with
``--trace 0``, again between operations until set-up time is
``SETUP_SHARE`` of operation time, outside the measured window, so that its
samples see the same host load as the operations; ``setup_s`` is the median
of all of them. Drawing the instances and computing the references below are
not timed.

Every output is checked: a solve must exit 0 with ``final_fitness`` equal to
``classical_max``; a verify must print ``OK``; a table's rows must match
``classical_evaluate`` with the ``classical_max`` row starred. On
``demo-solve`` the trace of solve seed 1 is also compared byte for byte
with ``tests/data/solve_seed1_machine.golden``, after the timed loop.

``--trace 0`` times the commands untraced and reports the end-to-end
metrics. ``--trace 1`` runs each operation twice on the same input, once
untraced and once with the wrappers of ``tracing.py`` installed (the order
alternates), and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and a
per-operation record are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / "perfbench" / "out"
DEMO_INSTANCE = ROOT / "instances" / "knapsack4.txt"
GOLDEN = ROOT / "tests" / "data" / "solve_seed1_machine.golden"
GOLDEN_SEED = 1
SETUP_REPEATS = 9
SETUP_SHARE = 0.05
N6_INSTANCES = 16
# A solve stops after two exhausted rounds instead of one. With the default
# one, 1 of the first 605 demo solves ended below the optimum (solve seed
# 4001 returns fitness 3): within the documented 99% success rate, but a
# failed operation here.
SOLVE_FLAGS = ["--format", "machine", "--confirmations", "2"]

# name -> (items, weight-sum bit length, value-sum bit length); None = demo file.
WORKLOADS = {
    "demo-solve": None,
    "n8-solve": (8, 5, 4),
    "n6-verify": (6, 4, 4),
}

# ---------------------------------------------------------------------------
# set-up


def import_qsmax(fresh: bool) -> dict:
    """Import the package from src/; ``fresh`` drops it from sys.modules first."""
    if fresh:
        for name in [n for n in sys.modules if n == "qsmax" or n.startswith("qsmax.")]:
            del sys.modules[name]
    package = importlib.import_module("qsmax")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"qsmax imported from {package.__file__}, not from {ROOT / 'src'}")
    return {name: importlib.import_module(f"qsmax.{name}")
            for name in ("cli", "knapsack", "grover", "statevector", "arithmetic")}


def draw_instance(rng: random.Random, n: int, w_bits: int, v_bits: int, knapsack) -> list[tuple[int, int]]:
    while True:
        items = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
        if (sum(w for w, _ in items).bit_length() != w_bits
                or sum(v for _, v in items).bit_length() != v_bits):
            continue
        instance = knapsack.KnapsackInstance(tuple(items), sum(w for w, _ in items) // 2)
        try:
            knapsack.plan_registers(instance)
        except knapsack.CapacityError:
            continue
        return items


def write_instance(path: Path, items: list[tuple[int, int]]) -> None:
    lines = [f"capacity {sum(w for w, _ in items) // 2}"] + [f"item {w} {v}" for w, v in items]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Case:
    """One instance file with the references its outputs are checked against."""

    def __init__(self, path: Path, instance, modules: dict) -> None:
        knapsack = modules["knapsack"]
        self.path = path
        self.instance = instance
        self.qubits = knapsack.plan_registers(instance).total_qubits
        self.best = knapsack.classical_max(instance)
        self.rows = [knapsack.classical_evaluate(instance, c) for c in knapsack.all_candidates(instance.n)]


def draw_instances(workload: str, seed: int, knapsack) -> list[tuple[Path, list[tuple[int, int]]]]:
    """Paths and items of the workload's instance files; none for the demo file."""
    spec = WORKLOADS[workload]
    if spec is None:
        return []
    n, w_bits, v_bits = spec
    count = N6_INSTANCES if workload == "n6-verify" else 1
    return [(OUT / "instances" / f"{workload}-{seed}-{i}.txt",
             draw_instance(random.Random(f"{workload}/{seed}/{i}"), n, w_bits, v_bits, knapsack))
            for i in range(count)]


def set_up(drawn: list[tuple[Path, list[tuple[int, int]]]]) -> tuple[dict, list[tuple[Path, object]]]:
    """The timed set-up: re-import qsmax, write the instance files, parse every file."""
    modules = import_qsmax(fresh=True)
    if not drawn:
        return modules, [(DEMO_INSTANCE, modules["cli"].parse_instance(str(DEMO_INSTANCE)))]
    (OUT / "instances").mkdir(parents=True, exist_ok=True)
    for path, items in drawn:
        write_instance(path, items)
    return modules, [(path, modules["cli"].parse_instance(str(path))) for path, _ in drawn]


# ---------------------------------------------------------------------------
# environment


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _l3_mib() -> float:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level").strip() == "3":
            size = _read(index / "size").strip()  # e.g. "307200K"
            digits = size.rstrip("KM")
            scale = {"K": 2**10, "M": 2**20}.get(size[len(digits):], 1)
            return int(digits) * scale / 2**20 if digits.isdigit() else 0.0
    return 0.0


def environment() -> dict:
    """Machine facts printed with the metrics; /proc and /sys are only read."""
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    thp = _read("/sys/kernel/mm/transparent_hugepage/enabled").strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "l3_mib": _l3_mib(),
        "thp": thp.split("[", 1)[1].split("]", 1)[0] if "[" in thp else thp or "unknown",
    }


# ---------------------------------------------------------------------------
# operations


def call_cli(cli, argv: list[str], tracer=None) -> tuple[int | str, str, float]:
    """Run one command; return (exit code or exception, stdout, seconds)."""
    buffer = io.StringIO()
    span = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            if tracer is not None:
                span = tracer.begin("cli.main", "cli")
            try:
                code = cli.main(argv)
            finally:
                if span is not None:
                    tracer.end(span)
    except Exception as err:  # a failed operation is counted, and the loop goes on
        code = f"{type(err).__name__}: {err}"
    return code, buffer.getvalue(), time.perf_counter() - start


def machine_field(text: str, key: str) -> int | None:
    lines = text.strip().splitlines()
    for field in (lines[-1].split() if lines else ()):
        name, _, value = field.partition("=")
        if name == key:
            try:
                return int(value)
            except ValueError:
                return None
    return None


def check_table(text: str, case: Case) -> bool:
    lines = text.splitlines()
    if len(lines) != len(case.rows) + 1 or lines[0].split() != ["candidate", "fitness", "weight", "validity"]:
        return False
    for line, row in zip(lines[1:], case.rows):
        fields = line.split()
        starred = fields[-1:] == ["*"]
        if starred:
            fields = fields[:-1]
        expected = [row.candidate, str(row.fitness), str(row.weight), "valid" if row.valid else "invalid"]
        if fields != expected or starred != (row.candidate == case.best.candidate):
            return False
    return True


class Workload:
    """Runs operations, checks their outputs and keeps samples and per-op records."""

    def __init__(self, name: str, seed: int, modules: dict, cases: list[Case]) -> None:
        self.seed = seed
        self.cli = modules["cli"]
        self.cases = cases
        self.solve = name.endswith("-solve")
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {"op": [], "verify": [], "table": []}
        self.iterations: list[int] = []
        self.records: list[dict] = []
        self.digest = hashlib.sha256()

    def op_input(self, i: int) -> tuple[Case, int | None]:
        if self.solve:
            return self.cases[0], 1000 * self.seed + i
        return self.cases[i % len(self.cases)], None

    def run(self, i: int, tracer=None, keep: bool = True) -> float:
        """Run operation ``i``; returns its wall time. ``keep`` adds it to the samples."""
        case, solve_seed = self.op_input(i)
        record: dict = {"op": i, "traced": tracer is not None}
        if tracer is not None:
            gates_before = dict(tracer.gate_calls)
            spans_before = len(tracer.spans)
        if self.solve:
            code, out, seconds = self.command(["solve", str(case.path), "--seed", str(solve_seed)] + SOLVE_FLAGS, tracer)
            iterations = machine_field(out, "total_grover_iterations")
            self.verdict(code == 0 and machine_field(out, "final_fitness") == case.best.fitness,
                         f"solve seed {solve_seed}: exit {code!r}, output {out[-200:]!r}")
            record.update(seed=solve_seed, iterations=iterations, sha256=_sha(out))
            if keep:
                self.iterations.append(iterations or 0)
                self.digest.update(out.encode())
            parts = {"op": seconds}
        else:
            code, out, verify_s = self.command(["verify", str(case.path)], tracer)
            self.verdict(code == 0 and out.startswith("OK"), f"verify {case.path.name}: exit {code!r}, {out!r}")
            code2, out2, table_s = self.command(["table", str(case.path)], tracer)
            self.verdict(code2 == 0 and check_table(out2, case), f"table {case.path.name}: exit {code2!r}")
            record.update(instance=case.path.name, sha256=_sha(out + out2))
            if keep:
                self.digest.update((out + out2).encode())
            parts = {"op": verify_s + table_s, "verify": verify_s, "table": table_s}
        if tracer is not None:
            record["gates"] = {k: v - gates_before.get(k, 0) for k, v in tracer.gate_calls.items()}
            names = [span.name for span in tracer.spans[spans_before:]]
            record["rounds"] = names.count("knapsack.boyer_search")
            record["measurements"] = names.count("grover.measure_all")
        record["seconds"] = parts["op"]
        self.records.append(record)
        if keep:
            for key, value in parts.items():
                self.samples[key].append(value)
        return parts["op"]

    def command(self, argv, tracer):
        self.attempted += 1
        return call_cli(self.cli, argv, tracer)

    def verdict(self, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(detail)
            print(f"FAILED {detail}", file=sys.stderr)

    def golden_check(self, golden: str) -> None:
        """Byte-for-byte comparison of solve seed 1 on the demo, default flags (untimed)."""
        code, out, _ = self.command(
            ["solve", str(DEMO_INSTANCE), "--seed", str(GOLDEN_SEED), "--format", "machine"], None)
        self.verdict(code == 0 and out == golden,
                     f"golden seed {GOLDEN_SEED}: exit {code!r}, trace differs from {GOLDEN.name}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed_loop(seconds: float, run_op, between=lambda: None) -> float:
    """Closed loop: start operations until the next one would end past the deadline.

    ``between`` runs after each operation; its time is left out of the window.
    """
    start = time.perf_counter()
    paused = 0.0
    durations: list[float] = []
    i = 0
    while not durations or time.perf_counter() - paused + statistics.median(durations) <= start + seconds:
        durations.append(run_op(i))
        i += 1
        mark = time.perf_counter()
        between()
        paused += time.perf_counter() - mark
    return time.perf_counter() - start - paused


# ---------------------------------------------------------------------------
# reporting


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, and its value."""
    k = len(samples)
    if k < 11:
        return None
    ordered = sorted(samples)
    p = 100 * (k - 10) // k
    index = max(0, math.ceil(p * k / 100) - 1)
    return p, ordered[index]


def report(name: str, value, unit: str, base: str) -> None:
    print(f"metric {name} = {value} {unit} ({base})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(ROOT / "src"))
    setup_times = []

    def timed_set_up():
        start = time.perf_counter()
        result = set_up(drawn)
        setup_times.append(time.perf_counter() - start)
        return result

    try:
        start = time.perf_counter()
        modules = import_qsmax(fresh=False)
        cold_import_s = time.perf_counter() - start
        drawn = draw_instances(args.workload, args.seed, modules["knapsack"])
        for _ in range(SETUP_REPEATS):
            modules, parsed = timed_set_up()
        cases = [Case(path, instance, modules) for path, instance in parsed]
        golden = GOLDEN.read_text(encoding="utf-8") if args.workload == "demo-solve" else None
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (ImportError, OSError) as err:
        print(f"perfbench: cannot set up {args.workload}: {err}", file=sys.stderr)
        return 2

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env {json.dumps(env)}")
    for case in cases:
        state_mib = (1 << case.qubits) * 16 / 2**20
        fits = "fits in" if state_mib <= env["l3_mib"] else "exceeds"
        print(f"instance {case.path.relative_to(ROOT)} items={list(case.instance.items)} "
              f"capacity={case.instance.capacity} qubits={case.qubits} "
              f"state_mib_computed={state_mib:g} ({fits} L3 {env['l3_mib']:g} MiB)")

    work = Workload(args.workload, args.seed, modules, cases)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        paired = {"traced": 0.0, "untraced": 0.0}

        def run_pair(i: int) -> float:
            total = 0.0
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = i
                    tracer.install(modules)
                try:
                    seconds = work.run(i, tracer if traced else None, keep=traced)
                finally:
                    tracer.uninstall()
                paired["traced" if traced else "untraced"] += seconds
                total += seconds
            return total

        window = timed_loop(args.seconds, run_pair)
    else:
        def set_up_between() -> None:
            if sum(setup_times) < SETUP_SHARE * sum(work.samples["op"]):
                while sum(setup_times) < SETUP_SHARE * sum(work.samples["op"]):
                    timed_set_up()  # the operations keep the modules they started with
                gc.collect()  # the replaced modules' cycles, not on the next operation's clock

        window = timed_loop(args.seconds, work.run, set_up_between)
    if golden is not None:
        work.golden_check(golden)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = len(work.samples["op"])
    commands = ops if work.solve else 2 * ops
    print(f"window_s = {window:.3f} (ops={ops}, closed loop, 1 client)")
    report("failed_ratio", f"{len(work.failures) / work.attempted:.6g}", "ratio",
         f"{len(work.failures)} failed of {work.attempted} commands")
    print(f"trace_sha256 = {work.digest.hexdigest()} (over {ops} operations' stdout)")
    if not args.trace:
        op_p50 = statistics.median(work.samples["op"])
        measured = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s_p50": (op_p50, "s"),
            "ops_per_s": (ops / window, "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        report("setup_s", f"{measured['setup_s'][0]:.6f}", "s",
             f"median of n={len(setup_times)}; cold first import {cold_import_s:.6f} s, not timed")
        report("op_s_p50", f"{op_p50:.6f}", "s", f"n={ops}")
        report("ops_per_s", f"{ops / window:.6f}", "1/s", f"n={ops} in {window:.3f} s")
        report("peak_rss_mib", f"{peak_rss_mib:.1f}", "MiB", "n=1, ru_maxrss of the process")
        if work.solve:
            report("solve_s_p50", f"{op_p50:.6f}", "s", f"n={ops}")
            t = tail(work.samples["op"])
            report("solve_s_tail", "n/a" if t is None else f"{t[1]:.6f}", "s",
                 f"n={ops}, needs >= 11" if t is None else f"p{t[0]}, n={ops}")
            report("solves_per_s", f"{ops / window:.6f}", "1/s", f"n={ops}")
            report("grover_iterations_per_solve", f"{statistics.mean(work.iterations):.4f}", "count",
                 f"mean, n={ops}, total {sum(work.iterations)}")
        else:
            report("verify_s", f"{statistics.median(work.samples['verify']):.6f}", "s", f"median, n={ops}")
            report("table_s", f"{statistics.median(work.samples['table']):.6f}", "s", f"median, n={ops}")
    else:
        layers = layer_metrics(tracer, ops, commands, ops if work.solve else 0)
        overhead = 100 * (paired["traced"] / paired["untraced"] - 1)
        layers["trace.overhead_pct"] = (overhead, "%")
        print(f"traced_op_s = {paired['traced'] / ops:.6f} untraced_op_s = {paired['untraced'] / ops:.6f} "
              f"(same {ops} inputs each)")
        for name, (value, unit) in layers.items():
            report(name, f"{value:.6g}", unit, f"traced ops={ops}")
        measured = layers
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")

    (OUT / f"ops-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "records": work.records, "failures": work.failures}, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not work.failures,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": measured[m["name"]][1]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
