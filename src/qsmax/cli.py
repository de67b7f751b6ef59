"""Command-line front end: solve / verify / table / estimate.

Instance file grammar (line oriented; ``#`` starts a comment to the end of its line):

    capacity <uint>          exactly once
    item <weight> <value>    one line per item, in item order

Every field is a ``<uint>``: one or more ASCII decimal digits, at most
``sys.get_int_max_str_digits()`` of them (4,300 by default; 0 lifts the
limit), and the total weight and the total value may not have more digits
than that either, as the outputs print them in decimal.

Exit codes: 0 success; 1 parse, I/O or command-line usage error (including a
number past the digit limit above, a flag value not in ASCII digits or out
of range: ``--seed`` below 0, ``--max-rounds`` or ``--confirmations`` below
1, an ``--initial-threshold`` the fitness register cannot hold); 2 instance
too big to run (more than 12 items: the oracle frame holds 2^n basis
states; register width never refuses one); 3 quantum/classical
verification mismatch or a failed integrity check (an oracle whose
uncompute leaves an ancilla dirty). Errors are reported on stderr in a line
containing ``error:``; a verification mismatch prints a ``MISMATCH:`` line
on stdout instead. Any other exception is a bug and is not
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
    _best_row,
    _table_columns,
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
    """Parse an instance file; errors carry the line number.

    The file is read in one unbuffered binary ``read`` and decoded as UTF-8
    (an undecodable byte is a parse error that gives its offset from the
    start of the file). Lines end as in text mode's universal newlines:
    at LF, CRLF or a lone CR, and nowhere else, so a form feed, NEL or
    LINE SEPARATOR inside a line is whitespace within it, where
    ``str.splitlines`` would split."""
    capacity: int | None = None
    items: list[tuple[int, int]] = []
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    except UnicodeDecodeError as err:
        raise InstanceParseError(str(err)) from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
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
        instance = KnapsackInstance(tuple(items), capacity)
    except ValueError as err:
        raise InstanceParseError(str(err)) from None
    # Python's int-string limit also binds the outputs, which print weights
    # and fitness values up to the totals in decimal. Below 2^(3 limit) <
    # 10^limit a total has at most ``limit`` digits, so only a total that
    # wide pays for 10**limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    for what, total in zip(("weight", "value"), map(sum, zip(*items))):
        if limit and total.bit_length() > 3 * limit and total >= 10**limit:
            raise InstanceParseError(
                f"total {what} has more than {limit} digits, past Python's int-string limit"
            )
    return instance


def _parse_uint(fields: list[str], position: int, lineno: int, what: str) -> int:
    text = fields[position]
    # ASCII digits only: int() would also take "1_0", "+5", "-0" and non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise InstanceParseError(
            f"line {lineno}: {what} must be an unsigned integer, got {text!r}"
        )
    try:
        return int(text)
    except ValueError:  # on ASCII digits, only Python's int-string limit refuses
        raise InstanceParseError(
            f"line {lineno}: {what} has {len(text)} digits, past Python's "
            f"{sys.get_int_max_str_digits()}-digit int-string limit"
        ) from None


def _emit_machine(trace: SearchTrace, seed: int, out) -> None:
    lines = [
        f"seed={seed} qubits={trace.total_qubits} "
        f"initial_threshold={trace.initial_threshold} "
        f"initial_candidate={trace.initial_candidate or '-'}"
    ]
    step = (
        "round=%d m=%.6f j=%d grover_iterations_cumulative=%d measured_candidate=%s "
        "measured_fitness=%d valid=%d accepted=%d threshold_after=%d"
    )
    lines += [step % s for s in trace.steps]
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
    """Print every candidate's fitness/weight/validity, best row starred.

    The rows are the table-order columns (``_table_columns``), rendered by
    one ``%`` over the row template repeated once per row. The star is
    appended to the validity word of row ``_best_row``: the row of
    ``classical_max``'s candidate, read as a table index. At most
    2^``MAX_ITEMS`` = 4,096 rows, so the table is written as one string."""
    out = out or sys.stdout
    instance = parse_instance(path)
    candidates, weights, fitnesses, valids = _table_columns(instance)
    words = ["valid" if valid else "invalid" for valid in valids]
    words[_best_row(instance)] += "  *"
    fields = [None] * (4 * len(words))
    fields[0::4], fields[1::4], fields[2::4], fields[3::4] = candidates, fitnesses, weights, words
    out.write(
        "candidate  fitness  weight  validity\n"
        + ("%9s  %7d  %6d  %s\n" * len(words)) % tuple(fields)
    )
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


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser and each subcommand's parser, by command name."""
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

    return parser, sub.choices


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers ``main`` uses: built on its first call, not at import."""
    return _build_parsers()


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the top parser would. A known command is handed
    straight to its own parser, which is what the top parser does after
    reading the command name, with stray arguments reported by the top
    parser as it reports them; anything else (no arguments, ``-h``, an
    unknown command) goes through the top parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
