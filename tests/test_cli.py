import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from datetime import datetime
from fractions import Fraction

import pytest
import sympy

from orbitint import cli, integrality, modp, ratmap
from orbitint.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_TRUNCATED, main
from orbitint.divisors import build_tower
from orbitint.mapexpr import parse_map
from orbitint.primes import factor_partial
from orbitint.ratmap import MAP_DEGREE_CAP

from conftest import CORPUS_EXPRS, unlimited_str
from test_divisors import serialize_reference


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBasicCommands:
    def test_analyze(self, capsys):
        code, out = run_cli(["--no-timestamp", "analyze", "--map", "x^2+1"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == "2.2"
        assert doc["body"]["degree"] == 2
        assert doc["body"]["polynomial"] is True
        assert doc["body"]["exceptional_points"] == ["[1:0]"]
        assert doc["body"]["powering"]["is_powering"] is False

    def test_orbit(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "orbit", "--map", "x^2+1", "--point", "1", "--n", "3"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["orbit"] == ["[1:1]", "[2:1]", "[5:1]", "[26:1]"]

    def test_pairs(self, capsys):
        code, out = run_cli(
            [
                "--no-timestamp",
                "pairs",
                "--map",
                "x^3",
                "--u",
                "2",
                "--w",
                "-2",
                "--S",
                "2",
                "--window",
                "4x4",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        got = [(p["m"], p["n"]) for p in doc["body"]["pairs"]]
        assert got == [(m, m) for m in range(5)]
        assert doc["body"]["coset_structure"]["cosets"] == [
            {"base": [0, 0], "generators": [[1, 1]]}
        ]

    def test_divisor(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "divisor", "--map", "x^2", "--n", "2"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["b_forms"][0] == "(1,0,0,1):1 (0,1,1,0):-1"
        assert doc["body"]["b_forms"][1] == "(1,0,0,1):1 (0,1,1,0):1"
        assert set(doc["body"]["diagonal_critical_intersections"]) == {
            "[0:1]",
            "[1:0]",
        }

    def test_certify(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "certify", "--map", "x^2-1", "--point", "0"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["result"]["kind"] == "preperiodic"
        assert doc["body"]["result"]["tail"] == 0
        assert doc["body"]["result"]["period"] == 2

    def test_powering(self, capsys):
        code, out = run_cli(
            [
                "--no-timestamp",
                "powering",
                "--map",
                "x^3",
                "--u",
                "2",
                "--w",
                "-2",
                "--S",
                "2",
                "--window",
                "3x3",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["tau_values"] == ["-2"]
        assert doc["body"]["tau_unit_checks_passed"] is True

    def test_exceptional(self, capsys):
        code, out = run_cli(
            [
                "--no-timestamp",
                "exceptional",
                "--map",
                "x^2",
                "--u",
                "1/2",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["enlarged_S"] == "2"
        assert "every (m, n) in N^2" in doc["body"]["note"]
        # the proof keeps the orbit off inf and f(inf) only: 3^(2^m) is 0 mod 3
        assert doc["body"]["note"].endswith("no f^m(u) reduces to inf or f(inf)")
        assert sorted(doc["body"]) == ["enlarged_S", "map", "note", "u"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--map", "x^3", "--u", "2", "--w", "-2", "--S", "2", "--window", "4x4"],
            ["--map", "2x^2", "--u", "1", "--w", "3", "--window", "3x3"],
            ["--map", "1/x^2", "--u", "2", "--w", "1/2", "--window", "3x3"],
            ["--map", "x^2/3", "--u", "3", "--w", "-5", "--window", "3x3"],
            ["--map", "-1/(2x^3)", "--u", "-30/7", "--w", "3", "--S", "5", "--window", "2x3"],
        ],
    )
    def test_powering_is_pairs_on_the_enlarged_set(self, capsys, args):
        code, out = run_cli(["--no-timestamp", "powering"] + args, capsys)
        assert code == EXIT_OK
        powering = json.loads(out)["body"]
        s = args.index("--S") if "--S" in args else len(args)
        pairs_args = args[:s] + args[s + 2:] + ["--S", powering["enlarged_S"]]
        code, out = run_cli(["--no-timestamp", "pairs"] + pairs_args, capsys)
        assert code == EXIT_OK
        pairs = json.loads(out)["body"]
        assert powering["pairs"] == pairs["pairs"]
        assert powering["tau_unit_checks_passed"] is True
        for key in ("enlarged_S", "tau_values", "tau_unit_checks_passed"):
            del powering[key]
        del pairs["coset_structure"]
        assert powering == pairs


class TestExitCodes:
    def test_precondition_error(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "analyze", "--map", "x + 1"], capsys
        )
        assert code == EXIT_PRECONDITION
        doc = json.loads(out)
        assert "degree below 2" in doc["error"]
        assert doc["status"] == EXIT_PRECONDITION

    def test_parse_error(self, capsys):
        # a superscript is a digit to str.isdigit, but not to int
        for text in ("x^2 @", "x^2+\u00b2"):
            code, out = run_cli(["--no-timestamp", "analyze", "--map", text], capsys)
            assert code == EXIT_PRECONDITION
            assert "position" in json.loads(out)["error"]

    def test_coefficient_format_checked_under_optimize(self):
        # python -O drops assert statements; the num=/den= check holds there too
        src = os.path.dirname(os.path.dirname(os.path.abspath(integrality.__file__)))
        run = subprocess.run(
            [sys.executable, "-O", "-m", "orbitint.cli", "--no-timestamp",
             "analyze", "--map", "num=1,0,1;xyz=1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert run.returncode == EXIT_PRECONDITION
        assert "cannot parse coefficient format" in json.loads(run.stdout)["error"]

    def test_truncation(self, capsys):
        code, out = run_cli(
            [
                "--no-timestamp",
                "--digit-budget",
                "50",
                "pairs",
                "--map",
                "x^2",
                "--u",
                "2",
                "--w",
                "3",
                "--window",
                "12x12",
            ],
            capsys,
        )
        assert code == EXIT_TRUNCATED
        doc = json.loads(out)
        assert doc["body"]["truncated"] is True
        assert "effective_window" in doc["body"]

    def test_orbit_truncated_by_digit_budget(self, capsys):
        # x^2+1 from 1: f^6(1) = 210066388901 has 12 digits, past the budget
        code, out = run_cli(
            ["--no-timestamp", "--digit-budget", "10", "orbit", "--map", "x^2+1",
             "--point", "1", "--n", "8"],
            capsys,
        )
        assert code == EXIT_TRUNCATED
        doc = json.loads(out)
        assert doc["status"] == EXIT_TRUNCATED
        assert doc["body"]["orbit"] == [
            "[1:1]", "[2:1]", "[5:1]", "[26:1]", "[677:1]", "[458330:1]"
        ]

    def test_digit_budget_keeps_a_point_of_exactly_budget_digits(self, capsys):
        # 65536 has 5 digits but 17 bits: a bits * log10(2) estimate (5.1) cuts it
        code, out = run_cli(
            ["--no-timestamp", "--digit-budget", "5", "orbit", "--map", "x^2",
             "--point", "2", "--n", "4"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["body"]["orbit"] == [
            "[2:1]", "[4:1]", "[16:1]", "[256:1]", "[65536:1]"
        ]
        code, out = run_cli(
            ["--no-timestamp", "--digit-budget", "4", "orbit", "--map", "x^2",
             "--point", "2", "--n", "4"],
            capsys,
        )
        assert code == EXIT_TRUNCATED
        assert json.loads(out)["body"]["orbit"][-1] == "[256:1]"

    @pytest.mark.parametrize(
        "args",
        [
            ["orbit", "--map", "x^2+1", "--point", "1", "--n", "3"],
            ["pairs", "--map", "x^2+1", "--u", "1", "--w", "3", "--window", "3x3"],
        ],
    )
    @pytest.mark.parametrize("budget", ["-1", "-50"])
    def test_negative_digit_budget_is_a_precondition_error(self, capsys, args, budget):
        code, out = run_cli(["--no-timestamp", "--digit-budget", budget] + args, capsys)
        assert code == EXIT_PRECONDITION
        doc = json.loads(out)
        assert doc["status"] == EXIT_PRECONDITION
        assert "--digit-budget" in doc["error"] and "body" not in doc

    def test_zero_denominator_is_a_precondition_error(self, capsys):
        for args in (["orbit", "--map", "x^2", "--point", "1/0"],
                     ["orbit", "--map", "num=1/0,1;den=1", "--point", "1"]):
            code, out = run_cli(["--no-timestamp"] + args, capsys)
            assert code == EXIT_PRECONDITION
            assert "zero denominator" in json.loads(out)["error"]

    def test_exceptional_computes_no_orbit(self, capsys):
        # x^2 from 3: f^6(3) = 3^64 has 31 digits, past the budget, but
        # exceptional builds S' from u and f(u) alone
        code, out = run_cli(
            ["--no-timestamp", "--digit-budget", "20", "exceptional", "--map", "x^2",
             "--u", "3"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["status"] == EXIT_OK
        assert doc["body"]["enlarged_S"] == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["--map", "(x+1)^2-1", "--u", "1", "--w", "3", "--S", "2,3,5,7",
             "--window", "3x3"],
            ["--map", "(x^2-3)/(2x)", "--u", "2", "--w", "3"],
        ],
    )
    def test_powering_pair_off_zero_and_infinity_refused(self, capsys, args):
        code, out = run_cli(["--no-timestamp", "powering"] + args, capsys)
        assert code == EXIT_PRECONDITION
        assert json.loads(out)["error"] == (
            "powering pair is not {0, inf}; change coordinates first"
        )

    def test_powering_cut_by_digit_budget(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "--digit-budget", "20", "powering", "--map", "x^2",
             "--u", "3", "--w", "2", "--window", "8x8"],
            capsys,
        )
        assert code == EXIT_TRUNCATED
        doc = json.loads(out)
        assert doc["status"] == EXIT_TRUNCATED
        assert doc["body"]["truncated"] is True

    @pytest.mark.parametrize(
        "args, cap",
        [
            (["divisor", "--map", "x^2+1", "--n", "13"], "form degree cap"),
            (["pairs", "--map", "x^2+1", "--u", "1", "--w", "2", "--window", "13x13"],
             "orbit cap"),
            (["pairs", "--map", "x^2+1", "--u", "1", "--w", "2", "--window", "13x2"],
             "window 13x2 exceeds the orbit cap 12"),
            (["divisor", "--map", "x^2", "--n", "15000"], "biform degree cap"),
            # x^2 fixes 0: a million points of 5 characters each
            (["orbit", "--map", "x^2", "--point", "0", "--n", "1000000"],
             "orbit length 1000000 exceeds the orbit length cap 10000"),
        ],
    )
    def test_cap_fails_by_name(self, capsys, args, cap):
        code, out = run_cli(["--no-timestamp"] + args, capsys)
        assert code == EXIT_PRECONDITION
        doc = json.loads(out)
        assert doc["status"] == EXIT_PRECONDITION and cap in doc["error"]

    @pytest.mark.parametrize("text", ["x^65+1", "x^300+1"])
    def test_map_degree_cap_checked_before_the_resultant(self, capsys, text):
        # the resultant alone of a degree-300 map takes seconds; the
        # expression reader refuses the power before RatMap sees it
        start = time.perf_counter()
        code, out = run_cli(["--no-timestamp", "analyze", "--map", text], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PRECONDITION
        degree = text[2:-2]
        assert json.loads(out)["error"] == (
            f"power at position 1 has degree {degree}, past the map degree cap {MAP_DEGREE_CAP}"
        )

    def test_map_degree_cap_of_the_coefficient_format(self, capsys):
        # the coefficient format reaches RatMap's own check
        text = "num=1," + "0," * 299 + "1;den=1"
        start = time.perf_counter()
        code, out = run_cli(["--no-timestamp", "analyze", "--map", text], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PRECONDITION
        assert json.loads(out)["error"] == (
            f"map degree 300 exceeds the map degree cap {MAP_DEGREE_CAP}"
        )

    @pytest.mark.parametrize(
        "text, n, error",
        [
            # a biform of degree 512 has 263169 coefficients: this tower
            # took 5.7 s and wrote a 117 MB report
            ("(x^2+2)/(2x+1)", "9", "biform degree 512 exceeds the biform degree cap 256"),
            ("x^2+1", "13", "biform degree 8192 exceeds the biform degree cap 256"),
            # 2^15000 has 4516 digits, past the int-to-str limit: the degree
            # is spelled as a power, and never built
            ("x^2", "15000", "biform degree 2^15000 exceeds the biform degree cap 256"),
            ("x^2", "100000000",
             "biform degree 2^100000000 exceeds the biform degree cap 256"),
        ],
    )
    def test_biform_degree_cap_before_any_form(self, capsys, text, n, error):
        start = time.perf_counter()
        code, out = run_cli(["--no-timestamp", "divisor", "--map", text, "--n", n], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PRECONDITION
        assert json.loads(out)["error"] == error

    @pytest.mark.parametrize("n", ["9", "15000", "100000000"])
    def test_biform_degree_cap_in_a_spawn(self, n):
        # building 2^(10^8) to compare it with the cap alone took 0.94 s
        src = os.path.dirname(os.path.dirname(os.path.abspath(integrality.__file__)))
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "orbitint.cli", "--no-timestamp", "divisor",
             "--map", "x^2", "--n", n],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert time.perf_counter() - start < 1.0
        assert run.returncode == EXIT_PRECONDITION
        error = json.loads(run.stdout)["error"]
        assert "biform degree cap" in error
        assert max(map(len, re.findall(r"[0-9]+", error))) <= 20

    @pytest.mark.parametrize(
        "args, error",
        [
            # parse_rational: Fraction(Decimal("1e10000000")) alone takes seconds
            (["pairs", "--map", "x^2+1", "--u", "1e99999999", "--w", "2",
              "--window", "1x1"],
             "exponent 99999999 of '1e99999999' is past the power digit cap 1000000"),
            # mapexpr, a constant power: 2^(10^8) has 30 million digits
            (["analyze", "--map", "2^100000000*x^2"],
             "power at position 1 has more than 1000000 digits"),
            # mapexpr, a power of x: x^30000 took 23 s to build
            (["analyze", "--map", "x^30000"],
             "power at position 1 has degree 30000, past the map degree cap 64"),
            # mapexpr, a product: refused by its degree before it is built,
            # as (x+1)^1024*(x+1)^1024 is, which took 2.8 s to reach RatMap
            (["analyze", "--map", "(x+1)^64*(x+1)^64"],
             "product at position 8 has degree 128, past the map degree cap 64"),
        ],
    )
    def test_huge_power_refused_before_it_is_built(self, capsys, args, error):
        start = time.perf_counter()
        code, out = run_cli(["--no-timestamp"] + args, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PRECONDITION
        assert json.loads(out)["error"] == error

    def test_unparsable_prime_names_the_set(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "pairs", "--map", "x^2+1", "--u", "1", "--w", "2",
             "--S", "2,,3"],
            capsys,
        )
        assert code == EXIT_PRECONDITION
        assert json.loads(out)["error"] == "cannot parse prime '' in '2,,3'"

    def test_recombination_cap_fails_by_name(self, capsys, monkeypatch):
        # the Wronskian of 3x^4 - 8x^3 - 6x^2 + 24x is, up to a constant,
        # x1^3 (x0 - 2x1)(x0 - x1)(x0 + x1): its three factors mod 5 are
        # recombined, and the first subset tried is past the cap (a quadratic
        # part splits by its discriminant, with no recombination)
        monkeypatch.setattr(modp, "RECOMBINATION_CAP", 0)
        code, out = run_cli(
            ["--no-timestamp", "analyze", "--map", "3x^4-8x^3-6x^2+24x"], capsys
        )
        assert code == EXIT_PRECONDITION
        assert json.loads(out)["error"].startswith("recombination cap: more than 0 subsets")

    def test_bad_window_format(self, capsys):
        # a negative bound is a well-formed window with a bad value: its
        # own message, not the parse error's
        for window, message in [
            ("nope", "cannot parse window 'nope'; expected MxN"),
            ("3", "cannot parse window '3'; expected MxN"),
            ("2x2x2", "cannot parse window '2x2x2'; expected MxN"),
            ("1x-2", "window bounds must be nonnegative"),
            ("-1x0", "window bounds must be nonnegative"),
        ]:
            code, out = run_cli(
                ["--no-timestamp", "pairs", "--map", "x^2", "--u", "1", "--w", "2",
                 "--window=" + window],
                capsys,
            )
            assert code == EXIT_PRECONDITION
            doc = json.loads(out)
            assert doc["error"] == message and "body" not in doc

    def test_negative_orbit_length_is_a_precondition_error(self, capsys):
        # each command names the option the user typed, with its own minimum
        for args, n, least in [
            (["orbit", "--map", "x^2+1", "--point", "1"], -1, 0),
            (["divisor", "--map", "x^2+1"], 0, 1),
            (["divisor", "--map", "x^2+1"], -1, 1),
            (["certify", "--map", "x^2+1", "--point", "1"], 0, 1),
        ]:
            code, out = run_cli(["--no-timestamp"] + args + ["--n", str(n)], capsys)
            assert code == EXIT_PRECONDITION
            doc = json.loads(out)
            assert doc["status"] == EXIT_PRECONDITION
            assert doc["error"] == f"--n must be at least {least}, not {n}"
            assert "body" not in doc


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = [
            "--no-timestamp",
            "pairs",
            "--map",
            "x^2+1",
            "--u",
            "1",
            "--w",
            "3",
            "--window",
            "4x4",
        ]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_timestamp_only_difference(self, capsys):
        base = ["analyze", "--map", "x^2"]
        _, with_ts = run_cli(base, capsys)
        _, without = run_cli(["--no-timestamp"] + base, capsys)
        doc_ts = json.loads(with_ts)
        doc_no = json.loads(without)
        assert "timestamp" in doc_ts and "timestamp" not in doc_no
        assert datetime.fromisoformat(doc_ts.pop("timestamp")).utcoffset().total_seconds() == 0
        assert doc_ts == doc_no

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(
            ["--no-timestamp", "--output", str(path), "analyze", "--map", "x^2"]
        )
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["body"]["degree"] == 2

    def test_unopenable_output_fails_before_the_command(self, tmp_path, capsys, monkeypatch):
        def refuse(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "_run_command", refuse)
        path = tmp_path / "missing" / "report.json"
        code, out = run_cli(
            ["--no-timestamp", "--output", str(path), "analyze", "--map", "x^2+1"], capsys
        )
        assert code == EXIT_PRECONDITION
        doc = json.loads(out)
        assert doc["status"] == EXIT_PRECONDITION and "--output" in doc["error"]
        assert not path.exists()

    def test_table_format(self, capsys):
        code, out = run_cli(
            [
                "--no-timestamp",
                "--format",
                "table",
                "pairs",
                "--map",
                "x^2",
                "--u",
                "2",
                "--w",
                "3",
                "--window",
                "2x2",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "m\tn\tverdict\tsmallest_violating_prime"
        assert len(lines) == 10  # header + 9 cells


class TestParserReuse:
    """``main`` builds its argument parser once per process: a run of calls
    in one process prints what separate processes print."""

    SEQUENCE = [
        ["--no-timestamp", "pairs", "--map", "(x^2+1)/x", "--u", "2", "--w", "3",
         "--window", "3x3"],
        ["--no-timestamp", "analyze", "--map", "x^2+1"],
        ["--no-timestamp", "pairs", "--map", "x^2", "--window", "2x2"],  # no --u
        ["--no-timestamp", "--format", "table", "pairs", "--map", "x^2-1", "--u",
         "0", "--w", "inf", "--window", "2x3"],
    ]

    def test_same_bytes_as_separate_processes(self, capsys):
        src = os.path.dirname(os.path.dirname(os.path.abspath(integrality.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        separate = []
        for argv in self.SEQUENCE:
            run = subprocess.run(
                [sys.executable, "-m", "orbitint.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            separate.append((run.returncode, run.stdout, run.stderr))
        for _ in range(2):
            for argv, expected in zip(self.SEQUENCE, separate):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                got = capsys.readouterr()
                assert (code, got.out, got.err) == expected, argv

    def test_bad_argv_exits_2_every_time(self, capsys):
        for _ in range(3):
            with pytest.raises(SystemExit) as exc:
                main(self.SEQUENCE[2])
            assert exc.value.code == EXIT_PRECONDITION
            assert "--u" in capsys.readouterr().err
            assert main(self.SEQUENCE[0]) == EXIT_OK
            capsys.readouterr()


class TestNegativeValues:
    """A value that starts with "-" may follow its option as a separate
    word: the report is the one the ``--opt=value`` spelling gives."""

    @pytest.mark.parametrize(
        "args, option, value",
        [
            (["exceptional", "--map", "x^2+1"], "--u", "-7/3"),
            (["analyze"], "--map", "-x^2+1"),
            (["pairs", "--map", "x^2+1", "--u", "1", "--window", "2x2"], "--w", "-5"),
            (["certify", "--map", "x^2-2"], "--point", "-1/2"),
            (["orbit", "--map", "x^2-2", "--n", "3"], "--point", "-1/2"),
            (["pairs", "--map", "x^2", "--u", "-1/3", "--w", "inf"], "--S", "-2"),
            (["pairs", "--map", "x^2+1", "--u", "1", "--w", "2"], "--window", "-1x2"),
            (["powering", "--map", "x^2", "--u", "3", "--w", "2"], "--window", "-1x2"),
        ],
    )
    def test_separate_word_equals_joined_spelling(self, capsys, args, option, value):
        joined = run_cli(["--no-timestamp", *args, f"{option}={value}"], capsys)
        separate = run_cli(["--no-timestamp", *args, option, value], capsys)
        assert separate == joined
        assert json.loads(separate[1])["status"] == separate[0]

    def test_negative_point_and_map_are_read(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "exceptional", "--map", "-x^2+1", "--u", "-7/3"], capsys
        )
        assert code == EXIT_OK
        body = json.loads(out)["body"]
        assert body["map"] == parse_map("-x^2+1").serialize_coefficients()
        assert body["u"] == "[-7:3]"

    def test_missing_value_still_fails_in_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--no-timestamp", "pairs", "--map", "--u", "3"])
        assert exc.value.code == EXIT_PRECONDITION
        assert "--map: expected one argument" in capsys.readouterr().err


class TestSnapshots:
    """sha256 of whole ``--no-timestamp`` reports, one per command: a refactor
    that changes any byte of them, or an exit status, fails here."""

    CASES = [
        (["analyze", "--map", "x^2+1"], EXIT_OK,
         "13d1c527ad655483a9baec14967d0a274c440240bb75f1d3b96947806d924875"),
        (["orbit", "--map", "(x^2+1)/x", "--point", "2", "--n", "6"], EXIT_OK,
         "6003e55e5c76b1839d80196f98775ba234848ec0bd64522100f46556f64bbaa9"),
        (["certify", "--map", "x^2-1", "--point", "0"], EXIT_OK,
         "56f9f43ebd2ed4e7cb51218d1d6a4b32725b970d2b6904b79910c546c01a2609"),
        (["divisor", "--map", "x^2", "--n", "2"], EXIT_OK,
         "4f1b74df861e1f58cc6073f04e7faf7eb78521a45ac8e9ad4547e10659d0985c"),
        (["divisor", "--map", "(x^2+2)/(2x+1)", "--n", "5"], EXIT_OK,
         "863dd9072be3dc4764b22c0e89479018a5852b849ee8ee06a098fd911d077eb9"),
        (["divisor", "--map", "2x^3+x+1", "--n", "4"], EXIT_OK,
         "6bdc3f6f4b36d78f70ff393d02e63ea9b9ababb8784d38c0b89b33e59a6bbb9d"),
        # a sparse polynomial tower: G_n is P_n(x) y1^D - x1^D P_n(y), and
        # most rows of every layer hold one term
        (["divisor", "--map", "x^2-2x+2", "--n", "6"], EXIT_OK,
         "5d201816abe3021cfe1a448f665e03b1a4a3e08e384f2e30175ea00cd5aa674e"),
        # G_1 and G_3 of 2(x^2+1)/x have content 2, so normalizing divides
        (["divisor", "--map", "(2x^2+2)/x", "--n", "3"], EXIT_OK,
         "a6b89e682e83fc740bc50776ccae4d10fd0512d131aa9011b88e448c9ebca054"),
        (["powering", "--map", "x^3", "--u", "2", "--w", "-2", "--S", "2",
          "--window", "4x4"], EXIT_OK,
         "5bc6f44d65050793aa2bde7422541aebd8ef4602ddcf8fe8f4935151f8fc2e8a"),
        (["exceptional", "--map", "x^2", "--u", "1/2"], EXIT_OK,
         "8a6e6e82c1197251e09b0c530012572cbf8098c77e65eac487b99673ae8a2a88"),
        (["pairs", "--map", "x^3", "--u", "2", "--w", "-2", "--S", "2",
          "--window", "6x6"], EXIT_OK,
         "4a240d4e7837aa97c57ebae28d7b78b85f432ea58053c062c18e57b8da253994"),
        (["--format", "table", "pairs", "--map", "x^2+1", "--u", "1", "--w", "3",
          "--window", "3x3"], EXIT_OK,
         "82ba425d36970da36b2a771cc4c4a06227a1787fb62b3f7757c06c662c950a30"),
        (["--digit-budget", "50", "pairs", "--map", "x^2", "--u", "2", "--w", "3",
          "--window", "12x12"], EXIT_TRUNCATED,
         "eac4da39f8065ce7e9d9ee56c0d25331684fbbd72233629660fe37644082c17b"),
        # 49 integral cells that share 7 witnesses: w = inf is fixed
        (["pairs", "--map", "x^2+1", "--u", "1/2", "--w", "inf", "--S", "2",
          "--window", "6x6"], EXIT_OK,
         "7d316abe9009483c9022adcf2cbfb59910a17093295ddd90b2dd0bfc5593e226"),
        # a conjugate pair of totally ramified points, reported as its tag
        (["analyze", "--map", "(x^2-3)/(2x)"], EXIT_OK,
         "c36ffaaf8d14218249a0a3f98833e785b4ee01def605a289dc6dad548ebef4e3"),
        # the totally ramified points 0 and inf, swapped
        (["analyze", "--map", "1/x^2"], EXIT_OK,
         "cd6ba5fbf9f678a289fb71ca265f1c958f2dbd0a013e599dce3cff5c599f4561"),
        # no rational point on the diagonal of B_1
        (["divisor", "--map", "(x^2-3)/(2x)", "--n", "2"], EXIT_OK,
         "98e78e93f8b3a2a8df82a32cbe312c5ebb3304b5de44815b9d8c2cbda16a1ee3"),
        # diagonal roots [1:0], [-1:1], [1:1]
        (["divisor", "--map", "x^3-3x", "--n", "1"], EXIT_OK,
         "52840798f62663b328c93961940356b84f0f69e853c4dd106938fe0568521042"),
    ]

    def test_report_digests(self, capsys):
        for args, status, digest in self.CASES:
            code, out = run_cli(["--no-timestamp"] + args, capsys)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (status, digest), args


class TestLazyWitness:
    ARGS = ["pairs", "--map", "x^2+1", "--u", "1", "--w", "3", "--window", "8x8"]

    def test_json_report_never_factors(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factored")

        with monkeypatch.context() as patch:
            patch.setattr(integrality, "factor_partial", refuse)
            code, out = run_cli(["--no-timestamp"] + self.ARGS, capsys)
        assert code == EXIT_OK
        assert [(p["m"], p["n"]) for p in json.loads(out)["body"]["pairs"]] == [(1, 0)]
        assert run_cli(["--no-timestamp"] + self.ARGS, capsys) == (code, out)

    def test_json_report_never_reads_the_diagnosis(self, capsys, monkeypatch):
        # a JSON report lists integral witnesses only, whose diagnosis is a
        # constant: it writes the constant and leaves the witness unread
        def refuse(wit):
            raise AssertionError(f"read the diagnosis of {wit!r}")

        monkeypatch.setattr(integrality.IntegralityWitness, "_diagnosis", property(refuse))
        cases = [case for case in TestSnapshots.CASES if "--format" not in case[0]
                 and ("pairs" in case[0] or "powering" in case[0])]
        assert len(cases) == 4
        for args, status, digest in cases:
            code, out = run_cli(["--no-timestamp"] + args, capsys)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (status, digest), args

    def test_table_lists_smallest_violating_primes(self, capsys):
        code, out = run_cli(["--no-timestamp", "--format", "table"] + self.ARGS, capsys)
        assert code == EXIT_OK

        def orbit(x):
            points = [x]
            for _ in range(8):
                points.append(points[-1] ** 2 + 1)
            return points

        expected = ["m\tn\tverdict\tsmallest_violating_prime"]
        for m, um in enumerate(orbit(1)):
            for n, wn in enumerate(orbit(3)):
                cross = um - wn
                found = sorted(factor_partial(cross, rho_iters=1 << 12)[0]) if cross else []
                smallest = found[0] if found else None
                expected.append(f"{m}\t{n}\t{abs(cross) == 1}\t{smallest}")
        assert out.splitlines() == expected


    def test_table_factors_each_distinct_pair_once(self, capsys, monkeypatch):
        # x^2-1 from 0 repeats 0, -1; from 2 it wanders: 2, 3, 8, 63, ...
        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return factor_partial(n, **kwargs)

        monkeypatch.setattr(integrality, "factor_partial", counting)
        code, out = run_cli(
            ["--no-timestamp", "--format", "table", "pairs", "--map", "x^2-1",
             "--u", "0", "--w", "2", "--window", "6x6"],
            capsys,
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + 7 * 7
        w_orbit = [2]
        for _ in range(6):
            w_orbit.append(w_orbit[-1] ** 2 - 1)
        non_units = sorted(abs(a - b) for a in (0, -1) for b in w_orbit if abs(a - b) > 1)
        assert sorted(abs(n) for n in calls) == non_units


class TestExceptionalOnce:
    @pytest.mark.parametrize("args", [
        ["pairs", "--map", "(x^2+1)/x", "--u", "2", "--w", "3", "--window", "3x3"],
        ["analyze", "--map", "(x^2-3)/(2x)"],
    ])
    def test_totally_ramified_points_found_once(self, capsys, monkeypatch, args):
        # the hypotheses read the exceptional set twice: directly and
        # through is_powering_conjugate
        calls = []
        found = ratmap._totally_ramified

        def counting(f):
            calls.append(f)
            return found(f)

        monkeypatch.setattr(ratmap, "_totally_ramified", counting)
        code, _ = run_cli(["--no-timestamp"] + args, capsys)
        assert (code, len(calls)) == (EXIT_OK, 1)


def _plain_form(coeffs: list[int], d: int) -> list[int]:
    """Descending coefficients of an affine polynomial, as a degree-d form:
    [c_d, ..., c_0] with c_k the coefficient of x0^k x1^(d-k)."""
    return [0] * (d + 1 - len(coeffs)) + coeffs


def _plain_eval(form: list[int], a0: int, a1: int) -> int:
    d = len(form) - 1
    return sum(c * a0 ** (d - i) * a1**i for i, c in enumerate(form))


def _plain_cofactor_max(p: list[int], q: list[int], res: int) -> int:
    """Largest absolute coefficient (at least 1) of the forms g1, g2, h1,
    h2 of degree d-1 with g1*P + g2*Q = res * x0^(2d-1) and
    h1*P + h2*Q = res * x1^(2d-1), solved for in exact rationals."""
    d = len(p) - 1
    columns = []  # the coefficients of x0^(d-1-i) x1^i * P, then of Q
    for form in (p, q):
        for i in range(d):
            columns.append([0] * i + form + [0] * (d - 1 - i))
    m = sympy.Matrix(columns).T
    cofactors = []
    for target in (0, 2 * d - 1):
        rhs = sympy.Matrix([res if k == target else 0 for k in range(2 * d)])
        cofactors += list(m.LUsolve(rhs))
    assert all(c.is_integer for c in cofactors)
    return max(1, max(abs(int(c)) for c in cofactors))


class TestCertificatesInPlainInts:
    """Every wandering certificate that ``certify`` and ``pairs`` write over
    the corpus is checked from the report alone, with plain ints and an
    independent resultant: no orbitint arithmetic."""

    POINTS = ["0", "3", "1/2", "-2", "inf"]

    def certificates(self, capsys):
        """(map text, start point text, certificate) for each certificate."""
        out = []
        for expr in CORPUS_EXPRS:
            for point in self.POINTS:
                code, text = run_cli(
                    ["--no-timestamp", "certify", "--map", expr, "--point", point], capsys
                )
                assert code == EXIT_OK
                body = json.loads(text)["body"]
                cert = body["result"].get("certificate")
                if cert is not None:
                    out.append((body["map"], body["point"], cert))
            for u, w, s in (("1", "2", ""), ("1/2", "inf", "2")):
                code, text = run_cli(
                    ["--no-timestamp", "pairs", "--map", expr, "--u", u, "--w", w,
                     "--S", s, "--window", "2x2"],
                    capsys,
                )
                assert code == EXIT_OK
                body = json.loads(text)["body"]
                for key in ("u", "w"):
                    cert = body["hypotheses"][key].get("certificate")
                    if cert is not None:
                        out.append((body["map"], body[key], cert))
        return out

    def test_every_certificate_checks(self, capsys):
        certificates = self.certificates(capsys)
        assert len(certificates) >= 100
        for map_text, point, cert in certificates:
            num, den = (
                [int(c) for c in part.split("=")[1].split(",")] for part in map_text.split(";")
            )
            d = max(len(num), len(den)) - 1
            p, q = _plain_form(num, d), _plain_form(den, d)
            if point.startswith("["):
                a0, a1 = (int(c) for c in point[1:-1].split(":"))
            elif point == "inf":
                a0, a1 = 1, 0
            else:
                a0, _, a1 = point.partition("/")
                a0, a1 = int(a0), int(a1 or 1)
            heights = []
            for _ in range(cert["achieved_at"] + 4):
                g = math.gcd(a0, a1)
                a0, a1 = a0 // g, a1 // g
                heights.append(max(abs(a0), abs(a1)))
                a0, a1 = _plain_eval(p, a0, a1), _plain_eval(q, a0, a1)
            at = cert["achieved_at"]
            height, bound = int(cert["height"]), int(cert["escape_bound"])
            assert heights[at] == height, (map_text, point)
            assert height ** (d - 1) > bound, (map_text, point)
            x = sympy.Symbol("x")
            pa, qa = sympy.Poly(num, x), sympy.Poly(den, x)
            res = abs(int(sympy.resultant(pa, qa)))
            if pa.degree() < d:  # the form P has a root at infinity
                res *= abs(den[0]) ** (d - pa.degree())
            elif qa.degree() < d:
                res *= abs(num[0]) ** (d - qa.degree())
            assert bound == 2 ** (d - 1) * res * 2 * d * _plain_cofactor_max(p, q, res)
            assert heights[at] < heights[at + 1] < heights[at + 2] < heights[at + 3]


class TestHugeCrossTerms:
    def test_cross_term_past_int_str_limit(self, capsys):
        # f^9(2/3) has denominator 3^(3^9), 9392 digits
        code, out = run_cli(
            ["--no-timestamp", "pairs", "--map=x^3+x-2", "--u=2/3", "--w=inf",
             "--S=3", "--window=9x9"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        x = Fraction(2, 3)
        for _ in range(9):
            x = x**3 + x - 2
        # cross term of [a:b] against [1:0] is -b
        digits = unlimited_str(-x.denominator)
        h = hashlib.sha256(digits.encode()).hexdigest()[:16]
        body = digits.lstrip("-")
        expected = f"-{body[:12]}...[{len(body)} digits, sha256:{h}]"
        witnesses = {(p["m"], p["n"]): p["witness"] for p in doc["body"]["pairs"]}
        assert len(witnesses) == 100
        assert witnesses[(9, 4)]["cross_term"] == expected


class TestIntStrLimit:
    """Integers past Python's 4300-digit int-to-str limit never reach
    ``str(int)`` unguarded."""

    def test_map_coefficient_past_limit(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "pairs", "--map", "x^2+10^4400", "--u", "1", "--w", "2",
             "--window", "1x1"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["map"] == "num=1,0,1" + "0" * 4400 + ";den=1"

    @pytest.mark.parametrize(
        "args, error",
        [
            (["analyze", "--map", "(x^2+1)/(10^2200)"], "resultant has 4401 digits"),
            # the critical factor 3x^2 + 10^5000
            (["analyze", "--map", "x^3+10^5000x"], "factor has 5001 digits"),
            # the powering pair (and exceptional quadratic factor) x^2 - 3*10^5000
            (["pairs", "--map", "(x^2+3*10^5000)/(2x)", "--u", "1", "--w", "2",
              "--window", "1x1"], "pair has 5001 digits"),
        ],
        ids=["resultant", "critical-factor", "powering-pair"],
    )
    def test_resultant_past_limit_is_a_precondition_error(self, capsys, args, error):
        code, out = run_cli(["--no-timestamp", *args], capsys)
        assert code == EXIT_PRECONDITION
        doc = json.loads(out)
        assert "body" not in doc
        assert doc["error"].startswith(error)

    def test_literal_past_limit(self, capsys):
        literal = "3" * 4400
        code, out = run_cli(
            ["--no-timestamp", "orbit", "--map", f"x^2+{literal}", "--point", "0", "--n", "1"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["map"] == f"num=1,0,{literal};den=1"

    def test_coefficient_format_reads_back_past_limit(self, capsys):
        big = "1" + "0" * 4400
        text = f"num=1,0,{big};den=1"
        code, out = run_cli(
            ["--no-timestamp", "orbit", "--map", text, "--point", "0", "--n", "1"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["body"]["map"] == text

    def test_divisor_form_past_limit(self, capsys):
        code, out = run_cli(
            ["--no-timestamp", "divisor", "--map", "x^2/(x+10^4400)", "--n", "1"], capsys
        )
        assert code == EXIT_OK
        # G_1 = x0^2 y1 (y0 + N y1) - y0^2 x1 (x0 + N x1), N = 10^4400
        g1 = json.loads(out)["body"]["g_forms"][0]
        assert f"(2,0,0,2):1{'0' * 4400} " in g1

    def test_divisor_tower_past_limit(self, capsys):
        # the tower of x^2 + 10^2200 holds coefficients of up to 6601 digits
        expr = "x^2+10^2200"
        code, out = run_cli(["--no-timestamp", "divisor", "--map", expr, "--n", "3"], capsys)
        assert code == EXIT_OK
        body = json.loads(out)["body"]
        tower = build_tower(parse_map(expr), 3)
        assert body["g_forms"] == [serialize_reference(g) for g in tower.g_forms]
        assert body["b_forms"] == [serialize_reference(b) for b in tower.b_forms]
        terms = " ".join(body["g_forms"] + body["b_forms"]).split()
        assert max(len(t.split(":")[1].lstrip("-")) for t in terms) == 6601

    def test_point_past_limit(self, capsys):
        big = "7" * 4400
        code, out = run_cli(
            ["--no-timestamp", "pairs", "--map", "x^2+1", f"--u=-{big}/3", "--w", "2",
             "--window", "1x1"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["body"]["u"] == f"[-{big}:3]"


# one command of each kind; analyze and divisor factor the Wronskian
COMMANDS = {
    "analyze": ["analyze", "--map", "(x^2+2)/(2x+1)"],
    "orbit": ["orbit", "--map", "x^2+1", "--point", "1/2", "--n", "5"],
    "pairs": ["pairs", "--map", "(x^2+1)/x", "--u", "2", "--w", "3", "--window", "3x3"],
    "divisor": ["divisor", "--map", "x^2-2x+2", "--n", "6"],
    "certify": ["certify", "--map", "x^2+1", "--point", "2"],
    "powering": ["powering", "--map", "x^3", "--u", "2", "--w", "-2", "--S", "2",
                 "--window", "4x4"],
    "exceptional": ["exceptional", "--map", "x^2", "--u", "1/2"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_never_imports_sympy(command):
    """No command imports sympy, and only the two that factor import the
    factorizer (``modp``), on their first factorization."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(integrality.__file__)))
    code = (
        "import os, sys\n"
        "from orbitint import cli\n"
        "assert 'orbitint.modp' not in sys.modules\n"
        f"argv = ['--no-timestamp', '--output', os.devnull] + {COMMANDS[command]!r}\n"
        "assert cli.main(argv) == 0\n"
        "print('sympy' in sys.modules, 'orbitint.modp' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    factors = command in ("analyze", "divisor")
    assert run.stdout.split() == ["False", str(factors)]


def test_import_loads_only_what_a_spawn_needs():
    """``import orbitint.cli`` builds no dataclass and imports no typing, and
    hashlib, datetime and argparse load only in the branches that use them
    (an elided number, a timestamp, an argv that the spec reader refuses):
    every CLI answer is a spawn that pays for them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(integrality.__file__)))
    code = (
        "import sys, orbitint.cli\n"
        "print(*(m for m in ('dataclasses', 'inspect', 'typing', 'hashlib', 'datetime',"
        " 'argparse') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    # -S: a .pth file that site runs may import typing itself
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == []


def test_well_formed_call_imports_no_argparse():
    """A well-formed argv is read from the option spec: a ``pairs`` call
    through ``main`` neither imports argparse nor builds its parser, and a
    malformed one still gets argparse's usage error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(integrality.__file__)))
    code = (
        "import os, sys\n"
        "from orbitint import cli\n"
        "argv = ['--no-timestamp', '--output', os.devnull, 'pairs', '--map', 'x^2+1',"
        " '--u', '2', '--w=-3', '--window', '3x3']\n"
        "assert cli.main(argv) == 0\n"
        "print('argparse' in sys.modules)\n"
        "try:\n"
        "    cli.main(['pairs', '--map', '--u', '3'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["False", "2", "True"]
    assert "argument --map: expected one argument" in run.stderr
