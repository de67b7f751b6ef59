"""Command-line front end: solve / verify / table / estimate.

Instance file grammar (line oriented; ``#`` starts a comment to the end of its line):

    capacity <uint>          exactly once
    item <weight> <value>    one line per item, in item order

Every field is a ``<uint>``: one or more ASCII decimal digits.

Exit codes: 0 success; 1 parse, I/O or command-line usage error (including a
flag value not in ASCII digits or out of range: ``--seed`` below 0,
``--max-rounds`` or ``--confirmations`` below 1, an ``--initial-threshold``
the fitness register cannot hold); 2 instance too big to run (more than 12
items: the oracle frame holds 2^(n+1) basis states; register width never
refuses one); 3 quantum/classical verification mismatch or a failed integrity
check (an oracle whose uncompute leaves an ancilla dirty). Errors are reported
on stderr in a line containing ``error:``; a verification mismatch prints a
``MISMATCH:`` line on stdout instead. Any other exception is a bug and is not
mapped to a code: it propagates out of ``main`` as a traceback.

Candidate bitstrings are printed most-significant-item-first (item 1 is the
leftmost character). Machine-format output is line-oriented ``key=value``
pairs, deterministic byte-for-byte for a given instance file and seed; the
human format adds a wall-time line.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import NoReturn

from .knapsack import (
    CapacityError,
    KnapsackInstance,
    SearchTrace,
    classical_max,
    enumerate_table,
    estimate_resources,
    maximize,
    plan_registers,
    verify_instance,
)
from .statevector import GateKind, IntegrityError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_MISMATCH = 3


class InstanceParseError(Exception):
    """Malformed instance file; the message names the offending line."""


class UsageError(Exception):
    """A flag value that parses but does not fit the instance."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors with EXIT_INPUT; argparse's own code 2 means capacity here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def parse_instance(path: str) -> KnapsackInstance:
    """Parse an instance file; errors carry the line number."""
    capacity: int | None = None
    items: list[tuple[int, int]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as err:
        raise InstanceParseError(str(err)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "capacity":
            if capacity is not None:
                raise InstanceParseError(f"line {lineno}: duplicate capacity")
            if len(fields) != 2:
                raise InstanceParseError(
                    f"line {lineno}: expected 'capacity <uint>', got {line!r}"
                )
            capacity = _parse_uint(fields, 1, lineno, "capacity")
        elif fields[0] == "item":
            if len(fields) != 3:
                raise InstanceParseError(
                    f"line {lineno}: expected 'item <weight> <value>', got {line!r}"
                )
            weight = _parse_uint(fields, 1, lineno, "item weight")
            value = _parse_uint(fields, 2, lineno, "item value")
            items.append((weight, value))
        else:
            raise InstanceParseError(f"line {lineno}: unknown directive {fields[0]!r}")
    if capacity is None:
        raise InstanceParseError("missing capacity line")
    if not items:
        raise InstanceParseError("no item lines")
    try:
        return KnapsackInstance(tuple(items), capacity)
    except ValueError as err:
        raise InstanceParseError(str(err)) from None


def _parse_uint(fields: list[str], position: int, lineno: int, what: str) -> int:
    text = fields[position]
    # ASCII digits only: int() would also take "1_0", "+5", "-0" and non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise InstanceParseError(
            f"line {lineno}: {what} must be an unsigned integer, got {text!r}"
        )
    return int(text)


def _emit_machine(trace: SearchTrace, seed: int, out) -> None:
    lines = [
        f"seed={seed} qubits={trace.total_qubits} "
        f"initial_threshold={trace.initial_threshold} "
        f"initial_candidate={trace.initial_candidate or '-'}"
    ]
    lines += [
        f"round={s.round} m={s.m:.6f} j={s.j} "
        f"grover_iterations_cumulative={s.grover_iterations_cumulative} "
        f"measured_candidate={s.measured_candidate} "
        f"measured_fitness={s.measured_fitness} "
        f"valid={int(s.valid)} accepted={int(s.accepted)} "
        f"threshold_after={s.threshold_after}"
        for s in trace.steps
    ]
    lines.append(
        f"final_candidate={trace.final_candidate or '-'} "
        f"final_fitness={trace.final_fitness} rounds={trace.rounds} "
        f"total_grover_iterations={trace.total_grover_iterations}"
    )
    out.write("\n".join(lines) + "\n")


def _emit_human(trace: SearchTrace, elapsed: float, out) -> None:
    print(
        f"search over {trace.total_qubits} qubits, "
        f"initial threshold {trace.initial_threshold}"
        + (
            f" (from candidate {trace.initial_candidate})"
            if trace.initial_candidate
            else ""
        ),
        file=out,
    )
    for s in trace.steps:
        verdict = "accepted" if s.accepted else "rejected"
        validity = "valid" if s.valid else "invalid"
        print(
            f"round {s.round:2d}  m={s.m:6.2f}  j={s.j}  "
            f"measured {s.measured_candidate}  fitness {s.measured_fitness:4d}  "
            f"{validity:7s}  {verdict:8s}  threshold {s.threshold_after}",
            file=out,
        )
    print(
        f"result: candidate {trace.final_candidate or '-'}  "
        f"fitness {trace.final_fitness}  rounds {trace.rounds}  "
        f"grover iterations {trace.total_grover_iterations}  "
        f"time {elapsed:.2f}s",
        file=out,
    )


def cmd_solve(
    path: str, *, seed: int = 0, max_rounds: int = 100, initial_threshold: int | None = None,
    confirmation_count: int = 1, output_format: str = "human", out=None,
) -> int:
    """Run the maximization and emit the trace."""
    out = out or sys.stdout
    instance = parse_instance(path)
    if initial_threshold is not None:
        enc = plan_registers(instance).fitness_encoding
        if not enc.min_value <= initial_threshold <= enc.max_value:
            raise UsageError(
                f"initial threshold {initial_threshold} not representable "
                f"in {enc.width} signed bits"
            )
    start = time.perf_counter()
    trace = maximize(
        instance,
        seed=seed,
        max_rounds=max_rounds,
        initial_threshold=initial_threshold,
        confirmation_count=confirmation_count,
    )
    elapsed = time.perf_counter() - start
    if output_format == "machine":
        _emit_machine(trace, seed, out)
    else:
        _emit_human(trace, elapsed, out)
    return EXIT_OK


def cmd_verify(path: str, out=None) -> int:
    """Run the quantum/classical agreement suite on one instance."""
    out = out or sys.stdout
    instance = parse_instance(path)
    report = verify_instance(instance)
    if report.ok:
        print(f"OK ({report.candidates_checked} candidates checked)", file=out)
        return EXIT_OK
    print(f"MISMATCH: {report.mismatch}", file=out)
    return EXIT_MISMATCH


def cmd_table(path: str, out=None) -> int:
    """Print every candidate's fitness/weight/validity, best row starred."""
    out = out or sys.stdout
    instance = parse_instance(path)
    rows = enumerate_table(instance)
    best = classical_max(instance)
    out.write("candidate  fitness  weight  validity\n" + "".join(
        "%9s  %7d  %6d  %s%s\n" % (
            row.candidate, row.fitness, row.weight, "valid" if row.valid else "invalid",
            "  *" if row.candidate == best.candidate else "",
        )
        for row in rows
    ))
    return EXIT_OK


def cmd_estimate(path: str, out=None) -> int:
    """Print the gate-level cost of one oracle application plus diffusion."""
    out = out or sys.stdout
    instance = parse_instance(path)
    estimate = estimate_resources(instance)
    print(f"qubits: {estimate.qubits}", file=out)
    print("gate_counts:", file=out)
    for kind in GateKind:
        if kind.value in estimate.gate_counts:
            print(f"  {kind.value}: {estimate.gate_counts[kind.value]}", file=out)
    print(f"toffoli_equivalent: {estimate.toffoli_equivalent}", file=out)
    print(f"grover_iterations_m1: {estimate.grover_iterations_expected}", file=out)
    return EXIT_OK


def _ascii_int(minimum: int | None = None):
    """argparse ``type``: ASCII digits after an optional ``-`` (``int()`` also takes
    "1_0", "+3", " 4" and non-ASCII digits), at least ``minimum`` if given."""

    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(text)
        if minimum is not None and (int(text) < minimum or digits != text):
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qsmax",
        description=(
            "Maximize 0/1 knapsack value with iterative Grover search, "
            "simulated exactly from the oracle's integer map."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the maximization search")
    solve.add_argument("instance", help="instance file path")
    solve.add_argument(
        "--seed", type=_ascii_int(0), default=0, help="run seed (default 0)"
    )
    solve.add_argument("--max-rounds", type=_ascii_int(1), default=100)
    solve.add_argument(
        "--initial-threshold",
        type=_ascii_int(),
        default=None,
        help="override the randomly drawn starting threshold",
    )
    solve.add_argument(
        "--confirmations",
        type=_ascii_int(1),
        default=1,
        help="consecutive exhausted rounds required to stop (default 1)",
    )
    solve.add_argument("--format", choices=("human", "machine"), default="human")

    verify = sub.add_parser("verify", help="cross-check the oracle against brute force")
    verify.add_argument("instance")

    table = sub.add_parser("table", help="print all candidate evaluations")
    table.add_argument("instance")

    estimate = sub.add_parser("estimate", help="print gate and qubit counts")
    estimate.add_argument("instance")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(
                args.instance,
                seed=args.seed,
                max_rounds=args.max_rounds,
                initial_threshold=args.initial_threshold,
                confirmation_count=args.confirmations,
                output_format=args.format,
            )
        if args.command == "verify":
            return cmd_verify(args.instance)
        if args.command == "table":
            return cmd_table(args.instance)
        if args.command == "estimate":
            return cmd_estimate(args.instance)
        raise AssertionError(f"unhandled command {args.command!r}")
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except IntegrityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InstanceParseError, UsageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
