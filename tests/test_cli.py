"""Instance parsing, subcommands, output formats, and the exit-code contract."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import subprocess
import sys

import pytest

from conftest import DEMO_INSTANCE_FILE, REPO_ROOT
from qsmax import cli, grover, knapsack, statevector
from qsmax.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    InstanceParseError,
    parse_instance,
)
from qsmax.knapsack import (
    CapacityError,
    VerifyReport,
    all_candidates,
    classical_evaluate,
    classical_max,
    enumerate_table,
)

DEMO = str(DEMO_INSTANCE_FILE)
# Four items with fields near 2^70: a 224-qubit register plan.
WIDE = str(DEMO_INSTANCE_FILE.parent / "knapsack_wide.txt")
# 102 qubits: past the widest register int64 basis indices could address.
PAST_INT64_BODY = "capacity 1\nitem 1073741824 1073741824\nitem 1073741824 1073741824\n"
# Twelve items, generated from a seed: the largest frame the CLI accepts.
TWELVE = str(DEMO_INSTANCE_FILE.parent / "knapsack12.txt")
THIRTEEN_ITEMS_BODY = "capacity 5\n" + "item 1 1\n" * 13
# Tokens int() accepts that the <uint> grammar does not: a digit separator,
# a sign, a signed zero and an Arabic-Indic three.
NOT_UINT_TOKENS = ("1_0", "+5", "-0", "\u0663")


def write_instance(tmp_path, text, name="case.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def default_int_string_limit():
    """Python's default int-string limit, 4,300 digits, whatever the host sets."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def assert_table_is_brute_force(stdout, path):
    """``table`` rows equal the per-string reference, in table order."""
    instance = parse_instance(path)
    expected = [classical_evaluate(instance, c) for c in all_candidates(instance.n)]
    rows = [line.split() for line in stdout.splitlines()[1:]]
    assert [(r[0], int(r[1]), int(r[2]), r[3] == "valid") for r in rows] == [
        (e.candidate, e.fitness, e.weight, e.valid) for e in expected
    ]


def assert_solve_finds_brute_force_max(stdout, path):
    """A machine-format ``solve`` trace ends at the brute-force optimum."""
    best = classical_max(parse_instance(path))
    last = dict(field.split("=") for field in stdout.splitlines()[-1].split())
    assert (last["final_candidate"], int(last["final_fitness"])) == (best.candidate, best.fitness)


class TestParseInstance:
    def test_bundled_demo_file(self):
        instance = parse_instance(DEMO)
        assert instance.items == ((7, 4), (4, 10), (2, 5), (3, 3))
        assert instance.capacity == 10

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write_instance(
            tmp_path, "# header\n\ncapacity 5\n  # indented comment\nitem 1 2\n\n"
        )
        instance = parse_instance(path)
        assert instance.items == ((1, 2),) and instance.capacity == 5

    @pytest.mark.parametrize(
        "body",
        [
            "capacity 5 # the weight limit\nitem 1 2\n",
            "capacity 5\nitem 1 2# light\n",
            "#\ncapacity 5\n#\nitem 1 2\n   #\n",
        ],
        ids=["capacity", "item", "bare-hash"],
    )
    def test_trailing_comments_ignored(self, tmp_path, body):
        instance = parse_instance(write_instance(tmp_path, body))
        assert instance.items == ((1, 2),) and instance.capacity == 5

    def test_comment_is_not_part_of_an_error(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5\nitem 3 # weight only\n")
        with pytest.raises(InstanceParseError) as err:
            parse_instance(path)
        assert str(err.value) == "line 2: expected 'item <weight> <value>', got 'item 3'"

    def test_errors_without_comments_are_unchanged(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5\n  item 3\t\n")
        with pytest.raises(InstanceParseError) as err:
            parse_instance(path)
        assert str(err.value) == "line 2: expected 'item <weight> <value>', got 'item 3'"

    def test_missing_capacity(self, tmp_path):
        path = write_instance(tmp_path, "item 1 2\n")
        with pytest.raises(InstanceParseError, match="missing capacity"):
            parse_instance(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(InstanceParseError, match="missing capacity"):
            parse_instance(write_instance(tmp_path, ""))

    def test_duplicate_capacity_names_line(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5\nitem 1 1\ncapacity 6\n")
        with pytest.raises(InstanceParseError, match="line 3: duplicate"):
            parse_instance(path)

    def test_capacity_with_extra_tokens_rejected(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5 9\nitem 1 1\n")
        with pytest.raises(InstanceParseError, match="line 1"):
            parse_instance(path)

    def test_short_item_line_names_line(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5\nitem 3\n")
        with pytest.raises(InstanceParseError, match="line 2"):
            parse_instance(path)

    def test_non_integer_field(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5\nitem 1 x\n")
        with pytest.raises(InstanceParseError, match="line 2.*unsigned"):
            parse_instance(path)

    def test_negative_field(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5\nitem 1 -2\n")
        with pytest.raises(InstanceParseError, match="line 2"):
            parse_instance(path)

    def test_unknown_directive(self, tmp_path):
        path = write_instance(tmp_path, "capacity 5\nstuff 1 2\n")
        with pytest.raises(InstanceParseError, match="line 2: unknown"):
            parse_instance(path)

    def test_no_items(self, tmp_path):
        with pytest.raises(InstanceParseError, match="no item"):
            parse_instance(write_instance(tmp_path, "capacity 5\n"))

    # The demo instance behind a comment and a blank line, and three bodies
    # that fail on a later line, each with its message on "\n" line ends.
    LINE_END_BODIES = {
        "demo": ("# demo\ncapacity 10\n\nitem 7 4\nitem 4 10\nitem 2 5\nitem 3 3\n", None),
        "short-item": (
            "capacity 10\n\nitem 7 4\nitem 4\n",
            "line 4: expected 'item <weight> <value>', got 'item 4'",
        ),
        "duplicate": ("capacity 10\nitem 1 1\n\n\ncapacity 2\n", "line 5: duplicate capacity"),
        "unknown": ("# x\n\n\nwhat 1\n", "line 4: unknown directive 'what'"),
    }
    LINE_ENDS = {
        "crlf": lambda text: text.replace("\n", "\r\n"),
        "cr": lambda text: text.replace("\n", "\r"),
        # "\r\n", "\n" and "\r" in turn; no lone "\r" precedes a "\n", or
        # the two would be one CRLF.
        "mixed": lambda text: "".join(
            line + ("\r\n", "\n", "\r")[k % 3]
            for k, line in enumerate(text.split("\n")[:-1])
        ),
        "no-final-newline": lambda text: text[:-1],
    }

    @pytest.mark.parametrize("ends", LINE_ENDS)
    @pytest.mark.parametrize("body", LINE_END_BODIES)
    def test_line_ends_read_as_in_text_mode(self, tmp_path, body, ends):
        text, message = self.LINE_END_BODIES[body]
        lf = tmp_path / "lf.txt"
        lf.write_bytes(text.encode())
        other = tmp_path / "other.txt"
        other.write_bytes(self.LINE_ENDS[ends](text).encode())
        if message is None:
            assert parse_instance(str(other)) == parse_instance(str(lf)) == parse_instance(DEMO)
            return
        for path in (lf, other):
            with pytest.raises(InstanceParseError) as err:
                parse_instance(str(path))
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "char, shown",
        [("\x0b", "\\x0b"), ("\x0c", "\\x0c"), ("\x1c", "\\x1c"), ("\x85", "\\x85"),
         ("\u2028", "\\u2028")],
        ids=["vt", "ff", "fs", "nel", "line-separator"],
    )
    def test_other_line_breaks_stay_inside_their_line(self, tmp_path, char, shown):
        # str.splitlines would end a line at each of these; text mode does not.
        path = write_instance(tmp_path, f"capacity 5\nitem 1 1{char}item 2 2\n")
        with pytest.raises(InstanceParseError) as err:
            parse_instance(path)
        assert str(err.value) == (
            f"line 2: expected 'item <weight> <value>', got 'item 1 1{shown}item 2 2'"
        )
        # As whitespace they count no line: the short item is line 4.
        path = write_instance(tmp_path, f"capacity 5{char}\nitem 1 1\n{char}\nitem 1\n")
        with pytest.raises(InstanceParseError, match="^line 4: expected"):
            parse_instance(path)

    def test_too_many_items(self, tmp_path):
        with pytest.raises(CapacityError, match="item count 13"):
            parse_instance(write_instance(tmp_path, THIRTEEN_ITEMS_BODY))


class TestSolveCommand:
    def test_machine_output_finds_optimum(self):
        out = io.StringIO()
        assert cli.cmd_solve(DEMO, seed=1, output_format="machine", out=out) == EXIT_OK
        text = out.getvalue()
        assert "final_candidate=0111 final_fitness=18" in text
        assert "qubits=23" in text
        assert "time" not in text  # machine format stays wall-time free

    def test_machine_output_is_deterministic(self):
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            cli.cmd_solve(DEMO, seed=7, output_format="machine", out=out)
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    def test_different_seeds_change_the_trace(self):
        traces = []
        for seed in (1, 2):
            out = io.StringIO()
            cli.cmd_solve(DEMO, seed=seed, output_format="machine", out=out)
            traces.append(out.getvalue())
        assert traces[0] != traces[1]

    def test_human_output_has_summary_and_time(self):
        out = io.StringIO()
        cli.cmd_solve(DEMO, seed=1, out=out)
        text = out.getvalue()
        assert "result: candidate 0111" in text
        assert "grover iterations" in text
        assert "time" in text

    def test_machine_step_records_have_all_keys(self):
        out = io.StringIO()
        cli.cmd_solve(DEMO, seed=3, output_format="machine", out=out)
        step_lines = [l for l in out.getvalue().splitlines() if l.startswith("round=")]
        assert step_lines
        for key in (
            "round=",
            "m=",
            "j=",
            "grover_iterations_cumulative=",
            "measured_candidate=",
            "measured_fitness=",
            "valid=",
            "accepted=",
            "threshold_after=",
        ):
            assert all(key in line for line in step_lines)

    def test_forced_optimal_threshold(self):
        out = io.StringIO()
        code = cli.cmd_solve(DEMO, seed=1, initial_threshold=18, output_format="machine", out=out)
        assert code == EXIT_OK
        text = out.getvalue()
        assert "final_candidate=- final_fitness=18" in text
        assert "accepted=1" not in text

    def test_main_dispatch(self, capsys):
        code = cli.main(["solve", DEMO, "--seed", "1", "--format", "machine"])
        assert code == EXIT_OK
        assert "final_fitness=18" in capsys.readouterr().out


class TestExitCodes:
    def test_nonexistent_file(self, capsys):
        assert cli.main(["solve", "/does/not/exist.txt"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, "capacity 5\nitem 3\n")
        assert cli.main(["table", path]) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err
        # <uint> is ASCII decimal digits only, though int() takes all four.
        for token in NOT_UINT_TOKENS:
            path = write_instance(tmp_path, f"capacity 5\nitem {token} 3\n")
            assert cli.main(["table", path]) == EXIT_INPUT
            assert f"line 2: item weight must be an unsigned integer, got {token!r}" in (
                capsys.readouterr().err
            )

    @pytest.mark.parametrize(
        "body, message",
        [
            # A field int() refuses to convert.
            ("capacity 10\nitem %s 1\nitem 1 2\n" % ("9" * 5000), "error: line 2: item weight"),
            # Fields int() converts, whose total the outputs could not print.
            ("capacity 10\n" + "item 1 %s\n" % ("9" * 4300) * 2, "error: total value"),
        ],
        ids=["field", "total"],
    )
    @pytest.mark.usefixtures("default_int_string_limit")
    def test_numbers_past_the_int_string_limit(self, tmp_path, capsys, body, message):
        path = write_instance(tmp_path, body)
        machine = ["solve", "--format", "machine"]
        for args in (["solve"], machine, ["verify"], ["table"], ["estimate"]):
            assert cli.main([*args, path]) == EXIT_INPUT
            assert capsys.readouterr().err.startswith(message)

    @pytest.mark.usefixtures("default_int_string_limit")
    def test_totals_at_the_int_string_limit_parse(self, tmp_path):
        path = write_instance(tmp_path, "capacity 1\nitem 1 %s\nitem 1 0\n" % ("9" * 4300))
        assert str(sum(parse_instance(path).values)) == "9" * 4300

    def test_capacity_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, THIRTEEN_ITEMS_BODY)
        for command in ("solve", "verify", "table", "estimate"):
            assert cli.main([command, path]) == EXIT_CAPACITY
            assert "error: item count 13 exceeds 12" in capsys.readouterr().err

    def test_64_qubit_plan_exits_zero(self, tmp_path, capsys):
        # Twelve items, 64 qubits: register width alone never refuses a plan.
        body = "capacity 10\n" + "".join("item 5000 5000\n" for _ in range(12))
        path = write_instance(tmp_path, body)
        assert cli.main(["solve", path, "--format", "machine"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith("seed=0 qubits=64 ")
        assert_solve_finds_brute_force_max(stdout, path)
        assert cli.main(["table", path]) == EXIT_OK
        assert_table_is_brute_force(capsys.readouterr().out, path)

    def test_verify_mismatch_maps_to_exit_3(self, monkeypatch, capsys):
        fake = VerifyReport(
            ok=False,
            candidates_checked=16,
            thresholds_checked=(1,),
            mismatch="candidate 0110: fabricated disagreement",
        )
        monkeypatch.setattr(cli, "verify_instance", lambda *a, **k: fake)
        assert cli.main(["verify", DEMO]) == EXIT_MISMATCH
        assert "0110" in capsys.readouterr().out

    def test_bad_initial_threshold_is_input_error(self, capsys):
        code = cli.main(["solve", DEMO, "--initial-threshold", "99"])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_initial_threshold_is_checked_before_the_search(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "maximize", lambda *a, **k: pytest.fail("search ran"))
        code = cli.main(["solve", DEMO, "--initial-threshold", "-33"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: initial threshold -33 not representable in 6 signed bits\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--seed", "-1"), "argument --seed: must be >= 0, got -1"),
            (("--max-rounds", "0"), "argument --max-rounds: must be >= 1, got 0"),
            (("--confirmations", "0"), "argument --confirmations: must be >= 1, got 0"),
            (("--confirmations", "x"), "argument --confirmations: invalid int value: 'x'"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", DEMO, *flags])
        assert exc.value.code == EXIT_INPUT
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--seed", "--max-rounds", "--confirmations", "--initial-threshold"]
    )
    @pytest.mark.parametrize(
        "value", ["1_0", "+3", "\u0663", " 4"], ids=["separator", "plus", "arabic-indic", "space"]
    )
    def test_int_flags_take_ascii_digits_only(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", DEMO, flag, value])
        assert exc.value.code == EXIT_INPUT
        assert f"error: argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err

    def test_signed_zero_seed_is_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", DEMO, "--seed", "-0"])
        assert exc.value.code == EXIT_INPUT
        assert "error: argument --seed: must be >= 0, got -0" in capsys.readouterr().err

    def test_ascii_flag_values_parse(self, capsys):
        argv = ["solve", DEMO, "--format", "machine", "--seed", "007", "--max-rounds", "3",
                "--confirmations", "2", "--initial-threshold", "-3"]
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("seed=7 qubits=23 initial_threshold=-3 ")

    def test_undecodable_instance_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"capacity 5\n\xff\xfe\n")
        assert cli.main(["table", str(path)]) == EXIT_INPUT
        assert "can't decode byte 0xff" in capsys.readouterr().err

    def test_undecodable_byte_is_placed_from_the_start_of_the_file(self, tmp_path, capsys):
        # 11 + 10,000 bytes precede the bad one, past any 8 KiB read chunk.
        path = tmp_path / "late.txt"
        path.write_bytes(b"capacity 5\n" + b"#\n" * 5000 + b"\xff\n")
        assert cli.main(["verify", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "can't decode byte 0xff in position 10011" in err

    def test_internal_value_error_is_not_an_exit_code(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "verify_instance", broken)
        with pytest.raises(ValueError, match="internal bug"):
            cli.main(["verify", DEMO])


class TestVerifyCommand:
    def test_demo_instance_ok(self, capsys):
        assert cli.main(["verify", DEMO]) == EXIT_OK
        assert "OK (16 candidates checked)" in capsys.readouterr().out


class TestTableCommand:
    def test_rows_match_classical_reference(self, capsys):
        assert cli.main(["table", DEMO]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["candidate", "fitness", "weight", "validity"]
        instance = parse_instance(DEMO)
        assert len(lines) == 17
        for line in lines[1:]:
            fields = line.split()
            ev = classical_evaluate(instance, fields[0])
            assert int(fields[1]) == ev.fitness
            assert int(fields[2]) == ev.weight
            assert fields[3] == ("valid" if ev.valid else "invalid")

    def test_best_row_is_marked(self, capsys):
        cli.main(["table", DEMO])
        out = capsys.readouterr().out
        starred = [l for l in out.splitlines() if l.endswith("*")]
        assert len(starred) == 1 and starred[0].split()[0] == "0111"

    def test_two_row_table(self, tmp_path, capsys):
        path = write_instance(tmp_path, "capacity 1\nitem 2 3\n")
        assert cli.main(["table", path]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_tie_stars_the_first_row_in_table_order(self, tmp_path, capsys):
        # "01" and "10" tie at fitness 1; "10" is q value 1, "01" q value 2.
        path = write_instance(tmp_path, "capacity 1\nitem 1 1\nitem 1 1\n")
        assert cli.main(["table", path]) == EXIT_OK
        assert capsys.readouterr().out == (
            "candidate  fitness  weight  validity\n"
            "       00        0       0  valid\n"
            "       01        1       1  valid  *\n"
            "       10        1       1  valid\n"
            "       11        2       2  invalid\n"
        )


class TestTableStar:
    """Exactly one row is starred, ``classical_max``'s candidate, however
    many rows tie."""

    @staticmethod
    def bodies(n):
        rng = random.Random(f"star/{n}")
        weights = [rng.randint(0, 3) for _ in range(n)]
        item = (rng.randint(0, 3), rng.randint(0, 3))
        cases = {
            "zero-values": [(w, 0) for w in weights],
            "all-zero": [(0, 0)] * n,
            "duplicates": [item] * n,
            "two-values": [(w, rng.randint(0, 1)) for w in weights],
        }
        for name, items in cases.items():
            capacity = rng.randint(0, sum(w for w, _ in items))
            yield name, f"capacity {capacity}\n" + "".join(f"item {w} {v}\n" for w, v in items)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_one_star_on_the_classical_max_row(self, tmp_path, capsys, n):
        for name, body in self.bodies(n):
            path = write_instance(tmp_path, body, f"{name}.txt")
            best = classical_max(parse_instance(path)).candidate
            direct = io.StringIO()
            assert cli.cmd_table(path, out=direct) == EXIT_OK
            assert cli.main(["table", path]) == EXIT_OK
            out = capsys.readouterr().out
            assert out == direct.getvalue()
            starred = [line for line in out.splitlines() if line.endswith("  *")]
            assert len(starred) == 1 and out.count("*") == 1, name
            assert starred[0].split()[0] == best, name


class TestEstimateCommand:
    def test_demo_reports_23_qubits(self, capsys):
        assert cli.main(["estimate", DEMO]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("qubits: 23\n")
        assert "toffoli_equivalent:" in out
        assert "grover_iterations_m1: 4" in out

    def test_byte_identical_across_runs(self, capsys):
        cli.main(["estimate", DEMO])
        first = capsys.readouterr().out
        cli.main(["estimate", DEMO])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("path", [DEMO, WIDE], ids=["demo", "wide"])
    def test_counts_gates_without_pushing_states(self, path, monkeypatch, capsys):
        # Gate counts depend on the circuit only, so no frame is built.
        pushes = []
        for module in (grover, statevector):
            push = module.permute_planes
            monkeypatch.setattr(
                module, "permute_planes", lambda *args, push=push: pushes.append(args) or push(*args)
            )
        assert cli.main(["estimate", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith("qubits: ")
        assert pushes == []


class TestGoldenFiles:
    """Pinned byte-for-byte outputs, cross-validated against brute force."""

    def _golden(self, name):
        from conftest import REPO_ROOT

        return (REPO_ROOT / "tests" / "data" / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "path, options, name, best",
        [
            (DEMO, ["--seed", "1"], "solve_seed1_machine.golden", "0111 final_fitness=18"),
            (WIDE, [], "solve_wide_machine.golden", "0110 final_fitness=2007005755219599215828"),
            (
                WIDE,
                ["--confirmations", "3"],
                "solve_wide_confirm3_machine.golden",
                "0110 final_fitness=2007005755219599215828",
            ),
        ],
        ids=["demo-seed1", "wide", "wide-confirm3"],
    )
    def test_solve_machine_output(self, path, options, name, best):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", path, *options, "--format", "machine"]) == EXIT_OK
        golden = self._golden(name)
        assert out.getvalue() == golden
        # the pinned transcript must itself agree with the brute-force optimum
        final = golden.strip().splitlines()[-1]
        assert f"final_candidate={best} " in final

    @pytest.mark.parametrize(
        "path, name", [(DEMO, "table_demo.golden"), (WIDE, "table_wide.golden")], ids=["demo", "wide"]
    )
    def test_table_output(self, path, name):
        from conftest import REPO_ROOT

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["table", path]) == EXIT_OK
        assert out.getvalue().encode() == (REPO_ROOT / "tests" / "data" / name).read_bytes()

    @pytest.mark.parametrize("path, count", [(DEMO, 16), (WIDE, 16), (TWELVE, 4096)])
    def test_verify_ok_line(self, path, count, capsys):
        assert cli.main(["verify", path]) == EXIT_OK
        assert capsys.readouterr() == (f"OK ({count} candidates checked)\n", "")

    @pytest.mark.parametrize(
        "path, name", [(DEMO, "estimate.golden"), (WIDE, "estimate_wide.golden")], ids=["demo", "wide"]
    )
    def test_estimate_output(self, path, name):
        out = io.StringIO()
        cli.cmd_estimate(path, out=out)
        assert out.getvalue() == self._golden(name)


    def test_demo_trace_digest(self):
        # SHA-256 of the machine traces of demo solve seeds 1000-1039, with
        # --confirmations 1 and then 2, run in-process and concatenated.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for confirmations in ("1", "2"):
                for seed in range(1000, 1040):
                    argv = ["solve", DEMO, "--seed", str(seed),
                            "--confirmations", confirmations, "--format", "machine"]
                    assert cli.main(argv) == EXIT_OK
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "1c130d3cd122e0e96aaf1a73c9d46a44fa6847453697a29e873f3e49acaa69e0"


class TestRepeatedMain:
    """Several commands in one process share one parser."""

    @staticmethod
    def _solve(capsys, *args):
        assert cli.main(["solve", DEMO, "--format", "machine", *args]) == EXIT_OK
        return capsys.readouterr().out

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        build = cli._build_parsers
        monkeypatch.setattr(cli, "_build_parsers", lambda: built.append(1) or build())
        cli._parsers.cache_clear()
        cli.main(["estimate", DEMO])
        cli.main(["table", DEMO])
        capsys.readouterr()
        assert built == [1]

    def test_earlier_flags_do_not_leak(self, capsys):
        seed0 = self._solve(capsys, "--seed", "0")
        seed5 = self._solve(capsys, "--seed", "5")
        assert seed5.startswith("seed=5 ") and seed5 != seed0
        assert self._solve(capsys) == seed0

    def test_usage_error_then_valid_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--no-such-flag", DEMO])
        assert exc.value.code == EXIT_INPUT
        assert cli.main(["verify", DEMO]) == EXIT_OK
        assert capsys.readouterr().out.startswith("OK")

class TestSearchMemo:
    """Commands in one process share the last instance's compiled search;
    the output never shows it."""

    @staticmethod
    def _run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == EXIT_OK
        return out.getvalue()

    def test_warm_and_cold_output_are_byte_identical(self, monkeypatch):
        # 200 demo seeds, with a demo verify and table after every 5 and a
        # 12-item and a wide verify, solve and table after every 25, so the
        # one-instance memo is dropped and refilled by each command: first
        # in one warm pass, then each command again with the memo cleared
        # before it.
        commands = []
        for seed in range(200):
            flags = ["--seed", str(seed), "--format", "machine"]
            commands.append(["solve", DEMO, "--confirmations", "2", *flags])
            if seed % 25 == 24:
                commands += [
                    ["verify", TWELVE], ["solve", TWELVE, *flags], ["table", TWELVE],
                    ["table", WIDE], ["solve", WIDE, *flags], ["verify", WIDE],
                    ["verify", DEMO],
                ]
            elif seed % 5 == 4:
                commands += [["verify", DEMO], ["table", DEMO]]
        frames = []
        compile_frame = knapsack.compile_frame
        monkeypatch.setattr(
            knapsack, "compile_frame", lambda *args: frames.append(1) or compile_frame(*args)
        )
        warm = [self._run(argv) for argv in commands]
        changes = sum(1 for a, b in zip([None] + commands, commands) if a is None or a[1] != b[1])
        assert len(frames) == changes == 25  # a frame per change of instance
        cold = []
        for argv in commands:
            knapsack._compiled.cache_clear()
            cold.append(self._run(argv))
        assert len(frames) == changes + len(commands)
        assert warm == cold

    def test_verify_reports_a_faulty_mark_after_a_solve(self, monkeypatch, capsys):
        compile_clean = knapsack.compile_oracle
        monkeypatch.setattr(knapsack, "compile_oracle", lambda plan, t: compile_clean(plan, t + 1))
        assert cli.main(["solve", DEMO, "--seed", "1"]) == EXIT_OK
        capsys.readouterr()
        assert cli.main(["verify", DEMO]) == EXIT_MISMATCH
        assert capsys.readouterr().out.startswith("MISMATCH:")

    def test_verify_then_table_read_each_column_once(self, monkeypatch):
        read = []
        columns = grover.PreparedFrame.columns
        monkeypatch.setattr(
            grover.PreparedFrame, "columns", lambda *args: read.append(1) or columns(*args)
        )
        built = knapsack._classical_columns.cache_info
        first = [self._run([command, TWELVE]) for command in ("verify", "table")]
        assert len(read) == 1 and built().misses == 1
        second = [self._run([command, TWELVE]) for command in ("verify", "table")]
        assert len(read) == 1 and built().misses == 1
        assert second == first

    def test_a_faulty_circuit_column_is_a_mismatch_after_a_table(self, monkeypatch, capsys):
        # The table reads the faulty columns and builds the reference for
        # its star; verify then reads both caches and still disagrees, so
        # the reference is not derived from the circuit columns.
        circuit_clean = knapsack._circuit_columns

        def circuit_with_heavy_1100(plan, frame):
            weight, fitness, valid = circuit_clean(plan, frame)
            weight[3] += 1  # q value 3 is candidate "1100"
            return weight, fitness, valid

        monkeypatch.setattr(knapsack, "_circuit_columns", circuit_with_heavy_1100)
        assert cli.main(["table", DEMO]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[13] == "     1100       14      12  invalid"
        assert rows[8].endswith("0111       18       9  valid  *")
        assert cli.main(["verify", DEMO]) == EXIT_MISMATCH
        assert capsys.readouterr().out == (
            "MISMATCH: candidate 1100: circuit computed (weight=12, fitness=14, valid=False), "
            "classical reference (weight=11, fitness=14, valid=False)\n"
        )


def table_from_rows(instance) -> str:
    """The ``table`` output formatted from ``enumerate_table``'s rows, with
    the ``classical_max`` row starred."""
    best = classical_max(instance).candidate
    return "candidate  fitness  weight  validity\n" + "".join(
        "%9s  %7d  %6d  %s%s\n" % (
            row.candidate, row.fitness, row.weight, "valid" if row.valid else "invalid",
            "  *" if row.candidate == best else "",
        )
        for row in enumerate_table(instance)
    )


class TestTableFromColumns:
    """``table`` prints straight from the columns what formatting
    ``enumerate_table``'s rows prints."""

    @pytest.mark.parametrize("seed", range(12))
    def test_output_equals_the_formatted_rows(self, tmp_path, capsys, seed):
        # Even seeds draw fields from 0..3, so rows tie; odd seeds draw at
        # least two of them from 2 below to 1 above 2^63 or 2^64, so the
        # sums pass 2^63 and the columns hold Python ints.
        rng = random.Random(seed)
        n = rng.randint(1 + seed % 2, 8)
        base = rng.choice((1 << 63, 1 << 64)) - 2 if seed % 2 else 0
        items = [(base + rng.randint(0, 3), base + rng.randint(0, 3)) for _ in range(n)]
        capacity = rng.randint(0, sum(w for w, _ in items))
        body = f"capacity {capacity}\n" + "".join(f"item {w} {v}\n" for w, v in items)
        path = write_instance(tmp_path, body)
        assert cli.main(["table", path]) == EXIT_OK
        out = capsys.readouterr().out
        knapsack._compiled.cache_clear()
        assert out == table_from_rows(parse_instance(path))
        assert out.count("*") == 1


class TestDispatch:
    """``main`` hands a known command straight to its own parser. What it
    prints and returns is what the top parser's path prints and returns."""

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exit:
                code = exit.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["bogus"],
            ["solve"],
            ["solve", "-h"],
            ["solve", DEMO, "--seed", "-1"],
            ["solve", DEMO, "--conf", "2", "--format", "machine"],  # an abbreviation
            ["solve", DEMO, "--seed=3", "--format", "machine"],
            ["solve", DEMO, "extra", "--bogus"],
            ["verify", "a", "b"],
            ["table"],
        ],
        ids=" ".join,
    )
    def test_same_output_as_the_top_parser(self, monkeypatch, argv):
        direct = self._main(argv)
        parser, _ = cli._parsers()
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))  # no command is known
        assert self._main(argv) == direct

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (["verify", "a", "b"], "qsmax: error: unrecognized arguments: b\n"),
            (
                ["solve", DEMO, "extra", "--bogus"],
                "qsmax: error: unrecognized arguments: extra --bogus\n",
            ),
            (["table"], "qsmax table: error: the following arguments are required: instance\n"),
            (["bogus"], "qsmax: error: argument command: invalid choice: 'bogus' "
                        "(choose from 'solve', 'verify', 'table', 'estimate')\n"),
        ],
    )
    def test_error_text(self, argv, stderr):
        code, out, err = self._main(argv)
        usage = "usage: qsmax table [-h] instance\n" if argv == ["table"] else (
            "usage: qsmax [-h] {solve,verify,table,estimate} ...\n"
        )
        assert (code, out, err) == (EXIT_INPUT, "", usage + stderr)

    def test_a_known_command_skips_the_top_parser(self, monkeypatch, capsys):
        parser, _ = cli._parsers()

        def refuse(*args, **kwargs):
            raise AssertionError("the top parser parsed a known command")

        monkeypatch.setattr(parser, "parse_known_args", refuse)
        for command in ("verify", "table", "estimate"):
            assert cli.main([command, DEMO]) == EXIT_OK
        assert cli.main(["solve", DEMO, "--seed", "2", "--format", "machine"]) == EXIT_OK
        capsys.readouterr()



# Run in a fresh interpreter: replaces the oracle compiler with one whose
# mark stage leaks a candidate bit into the g register, then runs the CLI.
_DIRTY_ORACLE_MAIN = """
import sys
from qsmax import cli, knapsack
from qsmax.statevector import cnot

compile_clean = knapsack.compile_oracle

def compile_dirty(plan, threshold):
    return compile_clean(plan, threshold) + (cnot(plan.q.bit(0), plan.g.bit(0)),)

knapsack.compile_oracle = compile_dirty
sys.exit(cli.main(sys.argv[1:]))
"""


class TestExitCodeContract:
    """Every documented exit code, through a real process."""

    @staticmethod
    def _run(*args, main=None):
        entry = ["-c", main, *args] if main else ["-m", "qsmax", *args]
        return subprocess.run([sys.executable, *entry], capture_output=True, text=True)

    def test_success(self):
        assert self._run("table", DEMO).returncode == EXIT_OK

    def test_parse_error(self, tmp_path):
        result = self._run("table", write_instance(tmp_path, "capacity 5\nitem 3\n"))
        assert result.returncode == EXIT_INPUT
        assert "error: line 2" in result.stderr
        for token in NOT_UINT_TOKENS:
            result = self._run("table", write_instance(tmp_path, f"capacity {token}\nitem 1 3\n"))
            assert result.returncode == EXIT_INPUT
            assert "error: line 1: capacity must be an unsigned integer" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("table", "--no-such-flag", "f"),
            ("solve",),
            ("solve", DEMO, "--seed", "x"),
            ("frobnicate", DEMO),
            ("solve", DEMO, "--qubit-cap", "40"),  # width is not an option
        ],
    )
    def test_usage_error_is_input_error(self, args):
        result = self._run(*args)
        assert result.returncode == EXIT_INPUT
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_help_exits_zero(self):
        assert self._run("--help").returncode == EXIT_OK

    def test_wide_registers_verify_and_table(self, tmp_path):
        # 36 qubits but a four-entry frame: the width costs only gates
        path = write_instance(tmp_path, "capacity 1000\nitem 1000 1\nitem 1 1000\n")
        assert self._run("verify", path).returncode == EXIT_OK
        result = self._run("table", path)
        assert result.returncode == EXIT_OK
        assert_table_is_brute_force(result.stdout, path)

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_plan_past_int64_width_exits_zero(self, tmp_path, command):
        path = write_instance(tmp_path, PAST_INT64_BODY)
        if command == "solve":
            result = self._run(command, path, "--format", "machine")
            assert_solve_finds_brute_force_max(result.stdout, path)
        else:
            result = self._run(command, path)
            assert result.stdout == "OK (4 candidates checked)\n"
        assert result.returncode == EXIT_OK, result.stderr

    def test_too_many_items_is_capacity_error(self, tmp_path):
        result = self._run("solve", write_instance(tmp_path, THIRTEEN_ITEMS_BODY))
        assert result.returncode == EXIT_CAPACITY
        assert result.stderr == (
            "error: item count 13 exceeds 12: the oracle frame would hold 2^13 basis states\n"
        )

    def test_verify_mismatch(self):
        result = self._run("verify", DEMO, main=_DIRTY_ORACLE_MAIN)
        assert result.returncode == EXIT_MISMATCH
        assert result.stdout.startswith("MISMATCH:")

    def test_integrity_error(self):
        result = self._run("solve", DEMO, "--seed", "1", main=_DIRTY_ORACLE_MAIN)
        assert result.returncode == EXIT_MISMATCH
        assert result.stderr.startswith("error: ancilla contamination")
        assert "Traceback" not in result.stderr


class TestSubprocessEntry:
    """End-to-end through the installed module entry point."""

    def test_module_runs_and_is_deterministic(self):
        cmd = [
            sys.executable,
            "-m",
            "qsmax",
            "solve",
            DEMO,
            "--seed",
            "11",
            "--format",
            "machine",
        ]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert "final_candidate=0111" in first.stdout

    def test_verify_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "qsmax", "verify", DEMO],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "OK (16 candidates checked)" in result.stdout


class TestWideInstanceFile:
    """The checked-in 224-qubit instance runs like any other."""

    def test_solve_verify_and_table_agree_with_brute_force(self, capsys):
        assert cli.main(["solve", WIDE, "--format", "machine"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith("seed=0 qubits=224 ")
        assert_solve_finds_brute_force_max(stdout, WIDE)
        assert cli.main(["verify", WIDE]) == EXIT_OK
        assert capsys.readouterr().out == "OK (16 candidates checked)\n"
        assert cli.main(["table", WIDE]) == EXIT_OK
        assert_table_is_brute_force(capsys.readouterr().out, WIDE)


class TestTwelveItemFile:
    """The checked-in 12-item instance: a 4,096-entry frame, 4,096 rows."""

    # ``sha256sum -c`` lines for the stdout of ``table``, ``verify`` and
    # ``solve --format machine --seed 0`` on it.
    DIGESTS = REPO_ROOT / "tests" / "data" / "knapsack12.sha256"

    def digest(self, name):
        lines = self.DIGESTS.read_text(encoding="ascii").splitlines()
        return dict(reversed(line.split()) for line in lines)[name]

    def test_table_bytes(self, capsys):
        assert cli.main(["table", TWELVE]) == EXIT_OK
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == self.digest("table12.txt")

    def test_verify_bytes(self, capsys):
        assert cli.main(["verify", TWELVE]) == EXIT_OK
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == self.digest("verify12.txt")

    def test_solve_bytes(self, capsys):
        # A whole search over the 4,096-entry frame, where M reaches the hundreds.
        assert cli.main(["solve", TWELVE, "--format", "machine", "--seed", "0"]) == EXIT_OK
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == self.digest("solve12.txt")

    def test_table_agrees_with_brute_force(self, capsys):
        assert cli.main(["table", TWELVE]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert len(stdout.splitlines()) == 4097
        assert_table_is_brute_force(stdout, TWELVE)
        best = classical_max(parse_instance(TWELVE))
        assert [l.split()[0] for l in stdout.splitlines() if l.endswith("*")] == [best.candidate]
