"""Byte-identity corpus: a fixed, seeded list of CLI argvs, each run through
``orbitint.cli.main`` in process.

For each argv it prints one line: the exit status, a sha256 prefix of
stdout, a sha256 prefix of stderr, and the argv.  A ``SystemExit`` gives the
status; any other exception counts as status 1, and its type and message
end the line.  The last line is one digest of all the lines before it.  Two
trees answer every argv alike exactly when they print the same lines:

    PYTHONPATH=src python tests/corpus.py > a.txt
    PYTHONPATH=/path/to/other/src python tests/corpus.py > b.txt
    cmp a.txt b.txt

It takes no options, and pytest does not collect it (its name does not
start with ``test_``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from conftest import (  # noqa: E402
    CORPUS_EXPRS,
    LONG_INPUT_ARGVS,
    NONPOLY_EXPRS,
    POLY_DEG2_EXPRS,
    POLY_DEG3_EXPRS,
)
from orbitint import cli  # noqa: E402
from orbitint.mapexpr import parse_map  # noqa: E402

SEEDS = (1, 2, 3)
# the op list of one pass of `perfbench/run.py --seconds 30`, which splits
# its seconds over two passes
BENCH_SECONDS = 15
GRID_MAPS = POLY_DEG2_EXPRS[:5] + POLY_DEG3_EXPRS[:5] + NONPOLY_EXPRS
GRID_POINTS = ("0", "1", "-1", "2", "-3", "1/2", "-2/3", "3/5", "inf")
GRID_S = ("", "2", "2,3")
SHOWN_WORD = 60  # longer argv words are shown by their head and length


def _accepts(text: str) -> bool:
    try:
        parse_map(text)
    except ValueError:
        return False
    return True


def bench_argvs() -> list[list[str]]:
    out = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            stream = workloads.OpStream(name, seed, _accepts)
            out += [op["argv"] for op in stream.take(workloads.fixed_count(name, BENCH_SECONDS))]
    return out


def command_argvs() -> list[list[str]]:
    out = []
    for fmt in ("json", "table"):
        for expr in CORPUS_EXPRS:
            head = ["--no-timestamp", "--format", fmt]
            out += [
                [*head, "analyze", "--map", expr],
                [*head, "divisor", "--map", expr, "--n", "3"],
                [*head, "orbit", "--map", expr, "--point", "1/2"],
                [*head, "certify", "--map", expr, "--point", "2"],
                [*head, "exceptional", "--map", expr, "--u", "1/3"],
                [*head, "powering", "--map", expr, "--u", "2", "--w", "3", "--window", "3x3"],
            ]
    return out


def grid_argvs() -> list[list[str]]:
    return [["--no-timestamp", "pairs", "--map", expr, "--u", u, "--w", w, "--S", s,
             "--window", "6x5"]
            for expr in GRID_MAPS for u in GRID_POINTS for w in GRID_POINTS for s in GRID_S]


def edge_argvs() -> list[list[str]]:
    """The inputs the no-sympy CI job runs (caps, deep nesting, the
    int-to-str limit, digit budgets), an elided certificate, maps of degree
    below 2, negative values as separate words, and two argvs that argparse
    answers with a usage error."""
    lines = """
    pairs --map (x^2+1)/x --u 2 --w 3 --window 4x4
    pairs --map x^2+1 --u 1/2 --w inf --S 2 --window 6x6
    pairs --map x^2-1 --u 1 --w -1 --window 6x6
    --format table pairs --map x^2+1 --u 1/2 --w inf --S 2 --window 6x6
    --format table powering --map x^3 --u 2 --w -2 --S 2 --window 4x4
    orbit --map x^2+1 --point 1/2 --n 5
    certify --map x^2-1 --point 0
    certify --map x^2+1 --point 2
    certify --map x^2+10^100 --point 1
    powering --map x^3 --u 2 --w -2 --S 2 --window 4x4
    powering --map x^2 --u 30/7 --w 2 --window 6x6
    powering --map 2x^2 --u 1 --w 3 --window 3x3
    powering --map (x+1)^2-1 --u 1 --w 3 --S 2,3,5,7 --window 3x3
    exceptional --map x^2 --u 1/2
    exceptional --map 2+1/(x-2)^2 --u 5/3
    exceptional --map x^2 --u 0
    divisor --map x^2-2x+2 --n 6
    divisor --map (x^2+2)/(2x+1) --n 5
    divisor --map (x^2-3)/(2x) --n 6
    divisor --map x^3-3x --n 1
    divisor --map x^2+10^2200 --n 3
    analyze --map (x^2+2)/(2x+1)
    analyze --map (x^2-3)/(2x)
    divisor --map (x^2+2)/(2x+1) --n 9
    analyze --map (x+1)^2048
    divisor --map x^2+1 --n 13
    divisor --map x^2 --n 15000
    orbit --map x^2 --point 0 --n 1000000
    --digit-budget 20 powering --map x^2 --u 3 --w 2 --window 8x8
    --digit-budget 20 exceptional --map x^2 --u 3
    analyze --map num=1,0,1;xyz=1
    analyze --map x
    analyze --map 5
    analyze --map num=1,0;den=1
    analyze --map (x^2)/(x)
    analyze --map x^2+²
    pairs --map (x^2+3*10^5000)/(2x) --u 1 --w 2 --window 1x1
    orbit --map x^2-1 --point -1 --n 5
    certify --map x^2-2 --point -2
    exceptional --map x^2 --u -1/2
    pairs --map x^2-2 --u -1 --w -2 --S 2 --window 4x4
    pairs --map x^2+1 --u 1 --w 2 --window -1x2
    pairs --map --u 3
    divisor --map x^2 --n two
    """
    out = [["--no-timestamp", *line.split()] for line in lines.strip().splitlines()]
    for text in ("(" * 300 + "x^2" + ")" * 300, "x^2+" + "-" * 1200 + "1"):
        out.append(["--no-timestamp", "analyze", "--map", text])
    out.append(["--no-timestamp", "certify", "--map", "x^2+1", "--point", "1" + "\"é\\" * 100])
    out.append(["--no-timestamp", "--output", "/nonexistent/" + "1" + "\"é\\" * 100, "analyze",
                "--map", "x^2+1"])
    return out


def reader_argvs() -> list[list[str]]:
    """Map-reader edge cases, each under ``analyze`` and ``orbit``: zero
    numerators, zero and +-1 bases to huge powers, division by a zero
    polynomial, the map degree cap, syntax errors, the coefficient format,
    powers of monomials, and exponents of 4000 and 5000 digits."""
    maps = [
        "0", "x-x", "(x-x)*x", "-(x-x)", "0/x", "(x-x)/(x+1)", "0x^3+x^2", "x^2+0x",
        "0^99999999*x^2+x^3", "(x-x)^99999999+x^2", "1^99999999*x^2", "(-1)^99999999*x^2",
        "(-1)^99999998x^3-1", "0^0+0^7x+1^99999999", "x^2/0", "x^2/(x-x)", "(x^2+1)/(0x)",
        "x^2/(1-1)^3",
        "x^65", "(x+1)^65", "(x+1)^40(x+1)^40", "1/(x+1)^40+1/(x+2)^40",
        "(x+1)^100*x^2/(x+1)^100", "(x+1)^62*x^2/(x+1)^62", "(x^2+1)^33",
        "x^x", "x^2^3", "x^2)", "(x^2+1", "x^2 @ 1", "x^-2", "x^", "", "x^2+", "x^2**2",
        "num=1,0,1;den=1", "num=1,0,1;den=0,1", "num=1/2,0,-3;den=1", "num=1.5e3,0,1;den=1",
        "num=1,0,1;den=0", "num=1,0,1", "num=x;den=1", "num=1,0,1;den=1e9999999",
        "(2x^2)^5", "(x/2)^3", "(1/x)^3", "x^3", "(-3x)^2+1", "(2x)^3/(x+1)", "(x^2/3)^2",
        "((2x)^2)^3", "(-x)^3+x", "(10^5000x)^2",
    ]
    for digits in (4000, 5000):
        e = "9" * digits
        maps += [f"x^{e}", f"(x+1)^{e}", f"2^{e}*x^2", f"1^{e}*x^2"]
    return [argv for text in maps for argv in (
        ["--no-timestamp", "analyze", "--map", text],
        ["--no-timestamp", "orbit", "--map", text, "--point", "1/2", "--n", "3"],
    )]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shown(argv: list[str]) -> str:
    return shlex.join(w if len(w) <= SHOWN_WORD else f"{w[:20]}...[{len(w)} chars]"
                      for w in argv)


def run(argv: list[str]) -> str:
    """One corpus line for ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    raised = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a line of the corpus
            status, raised = 1, f" !{type(exc).__name__}: {exc}"
    return f"{status} {_digest(out.getvalue())} {_digest(err.getvalue())} {_shown(argv)}{raised}"


def main() -> None:
    argvs = bench_argvs() + command_argvs() + grid_argvs() + edge_argvs() + reader_argvs()
    argvs += [argv for argv, _ in LONG_INPUT_ARGVS]
    lines = []
    for argv in argvs:
        lines.append(run(argv))
        print(lines[-1])
    print(f"{len(lines)} argvs, digest {_digest(chr(10).join(lines))}")


if __name__ == "__main__":
    main()
