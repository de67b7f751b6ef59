"""Steadiness check: run the benchmark twice over the same seeds and compare.

    python3 perfbench/steady.py [--workloads a,b] [--seconds S]

Run from the repository root. Each of two sets runs ``BENCHMARK.json``'s
command once per workload and seed 1..10 (``--trace 0``), one process at a
time, and then one traced run per workload on seed 1. For each end-to-end
metric, ``setup_s`` included, it prints the spread of each set,
(Q3 - Q1) / median over the seeds as ``statistics.quantiles(values, n=4)``
gives them, against the metric's bound, and how far the second set's median
moved from the first's in either direction. It flags
every exact count that does not repeat between two runs of the same seed:
per operation, the stdout hash and the Grover iterations of a solve, and in
traced runs the gate counts by kind, rounds and measurements.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
EXACT_KEYS = ("sha256", "iterations", "gates", "rounds", "measurements")
SEEDS = range(1, 11)
SETS = 2


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[dict]]:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    ops = json.loads((OUT / f"ops-{workload}-{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    print(f"  {workload} seed={seed} trace={trace} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if trace == 0),
          flush=True)
    return result, ops["records"]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_records(first: list[dict], second: list[dict]) -> list[str]:
    """Differences in exact per-operation counts between two runs of one seed."""
    second_by_op = {(r["op"], r["traced"]): r for r in second}
    problems = []
    for record in first:
        other = second_by_op.get((record["op"], record["traced"]))
        if other is None:
            continue
        for key in EXACT_KEYS:
            if key in record and key in other and record[key] != other[key]:
                problems.append(f"op {record['op']} traced={record['traced']} {key}: {record[key]} != {other[key]}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    # values[workload][metric][set] -> list over seeds; records[(workload, seed, trace)][set]
    values = {w: {m: [[] for _ in range(SETS)] for m in bounds} for w in workloads}
    records: dict[tuple, list] = {}
    incorrect = 0
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        for workload in workloads:
            for seed in SEEDS:
                result, ops = run_once(spec, workload, seed, args.seconds, 0)
                incorrect += not result["correct"]
                for name in bounds:
                    values[workload][name][s].append(result["metrics"][name]["value"])
                records.setdefault((workload, seed, 0), []).append(ops)
            result, ops = run_once(spec, workload, SEEDS[0], args.seconds, 1)
            incorrect += not result["correct"]
            records.setdefault((workload, SEEDS[0], 1), []).append(ops)

    verdict = 0
    for workload in workloads:
        print(f"workload {workload}")
        for name, metric in bounds.items():
            bound = metric["bound"]
            sets = values[workload][name]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            sign = 1 if metric["better"] == "lower" else -1
            worse = [sign * (m / medians[0] - 1) for m in medians[1:]]
            spread_ok = all(x <= bound for x in spreads)
            steady = all(x < bound / 3 for x in spreads)
            moved_ok = all(abs(x) <= bound for x in worse)
            flag = "FAIL" if not (spread_ok and moved_ok) else "ok" if steady else "WARN (spread over bound/3)"
            verdict |= flag == "FAIL"
            print(f"  {name} [{metric['unit']}, bound {bound}]: "
                  + " | ".join(f"set{i + 1} median {m:.6g} spread {x:.1%}" for i, (m, x) in enumerate(zip(medians, spreads)))
                  + "".join(f" | set{i + 2} worse by {x:+.1%}" for i, x in enumerate(worse))
                  + f"  {flag}")
        for (w, seed, trace), runs in sorted(records.items()):
            if w != workload:
                continue
            problems = [p for other in runs[1:] for p in compare_records(runs[0], other)]
            print(f"  exact counts seed={seed} trace={trace}: {len(runs[0])} ops in run 1, "
                  f"{'all repeat' if not problems else f'{len(problems)} DIFFER'}")
            for problem in problems[:10]:
                print(f"    {problem}")
            verdict |= bool(problems)
    if incorrect:
        print(f"{incorrect} runs reported correct=false")
    return 1 if verdict or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
