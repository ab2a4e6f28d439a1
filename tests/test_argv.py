"""The argv reader against argparse.  ``cli._read_argv`` reads a well-formed
argv from the option spec and returns None for any other; ``main`` then
falls back to argparse.  The reader must return exactly argparse's
namespace or None, and ``main`` must print the same bytes and exit the same
way with the reader as without it."""

import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitint import cli
from orbitint.mapexpr import parse_map

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# values for each str option: some start with "-", which _join_values joins
# to their option; windows and maps stay small, so that every main call is cheap
STR_VALUES = {
    "format": ["json", "table"],
    "output": [os.devnull],
    "map": ["x^2+1", "-x^2+1", "(x^2+1)/x", "x^3", "2x^2", "num=1,0,1;den=1", ""],
    "point": ["1/2", "-7/3", "2", "inf", "x"],
    "u": ["2", "-1/3", "1/2", "3", "inf"],
    "w": ["3", "-2", "inf", "1/2"],
    "S": ["", "2", "2,3", "-2", "2,,3"],
    "window": ["1x1", "2x2", "-1x2", "2x1", "3"],
}
INT_VALUES = {"n": st.integers(-2, 3), "digit_budget": st.integers(-1, 40)}
GLOBAL_ABBREVIATIONS = ["--no", "--form=json", "--out=x", "--digit=3"]
COMMAND_ABBREVIATIONS = ["--ma", "--wi", "--poi", "--po"]


def reference_parser():
    """The parser as it was written by hand before the option spec: the
    spec's parser must print its help and read every argv as this one does."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="orbitint",
        description=(
            "Exact S-integrality of two-parameter orbits of rational "
            "self-maps of the projective line over Q"
        ),
    )
    ap.add_argument("--format", choices=("json", "table"), default="json")
    ap.add_argument("--no-timestamp", action="store_true")
    ap.add_argument("--output", default=None, help="output path (default stdout)")
    ap.add_argument("--digit-budget", type=int, default=cli.DEFAULT_DIGIT_BUDGET)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_map(p):
        p.add_argument("--map", required=True, help="map expression or num=..;den=..")

    p = sub.add_parser("analyze", help="degree, reduction, critical structure")
    add_map(p)
    p = sub.add_parser("orbit", help="forward orbit of a point")
    add_map(p)
    p.add_argument("--point", required=True)
    p.add_argument("--n", type=int, default=8, help="orbit length")
    p = sub.add_parser("pairs", help="integral index pairs over a window")
    add_map(p)
    p.add_argument("--u", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--S", default="", help="comma-separated primes")
    p.add_argument("--window", default="6x6")
    p = sub.add_parser("divisor", help="divisor tower G_1..G_n, B_0..B_n")
    add_map(p)
    p.add_argument("--n", type=int, default=2, help="tower depth")
    p = sub.add_parser("certify", help="preperiodic / wandering certificate")
    add_map(p)
    p.add_argument("--point", required=True)
    p.add_argument("--n", type=int, default=64, help="max iterations")
    p = sub.add_parser("powering", help="powering-case pair analysis")
    add_map(p)
    p.add_argument("--u", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--S", default="")
    p.add_argument("--window", default="6x6")
    p = sub.add_parser(
        "exceptional",
        help="S-enlargement making every (m, n) integral for exceptional w = inf",
    )
    add_map(p)
    p.add_argument("--u", required=True)
    p.add_argument("--S", default="")
    return ap


REFERENCE = reference_parser()


def _parse(argv, parser=REFERENCE):
    """(namespace as a dict or None when the parser exits, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parser.parse_args(argv))
        except SystemExit:
            ns = None
    return ns, out.getvalue(), err.getvalue()


def _run_main(argv):
    """(exit status, stdout, stderr) of ``main``, run in a fresh directory:
    argparse reads ``--output -1`` or an abbreviated ``--out`` as a path."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.chdir(tmp)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    # a report without --no-timestamp differs from run to run in its timestamp only
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.getvalue())
    return code, text, err.getvalue()


@st.composite
def _option_words(draw, o, value=None):
    """One spelling of option ``o``: ``--opt=value`` or ``--opt value``."""
    if o.type is bool:
        return [o.flag]
    if value is None:
        if o.type is int:
            value = str(draw(INT_VALUES[o.dest]))
        else:
            value = draw(st.sampled_from(STR_VALUES[o.dest]))
    # a separate word that starts with "-" is joined only for a str option
    if draw(st.booleans()) or (o.type is int and value[:1] == "-"):
        return [f"{o.flag}={value}"]
    return [o.flag, value]


@st.composite
def well_formed(draw):
    """(global words, command, command words): each global option and each
    optional command option present or not, every required one present."""
    glob = []
    for o in cli._GLOBAL_OPTIONS:
        if draw(st.booleans()):
            glob += draw(_option_words(o))
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = draw(st.permutations(cli._COMMANDS[command][1]))
    words = []
    for o in options:
        if o.required or draw(st.booleans()):
            words.append(draw(_option_words(o)))
    return glob, command, words


def _flatten(glob, command, words):
    return [*glob, command, *(w for ws in words for w in ws)]


@st.composite
def perturbed(draw):
    glob, command, words = draw(well_formed())
    kind = draw(st.sampled_from([
        "none", "drop", "repeat", "abbreviate", "global after", "-h", "--", "unknown",
        "bad n", "bad digit budget", "bad format", "empty S", "dash value", "extra word",
    ]))
    options = cli._COMMANDS[command][1]
    if kind == "drop" and words:
        del words[draw(st.integers(0, len(words) - 1))]
    elif kind == "repeat":
        o = draw(st.sampled_from(options + cli._GLOBAL_OPTIONS))
        spelled = draw(_option_words(o))
        if o in cli._GLOBAL_OPTIONS:
            glob += spelled
        else:
            words.append(spelled)
    elif kind == "abbreviate":
        if draw(st.booleans()):
            glob.insert(0, draw(st.sampled_from(GLOBAL_ABBREVIATIONS)))
        else:
            words.append([draw(st.sampled_from(COMMAND_ABBREVIATIONS)), "1"])
    elif kind == "global after":
        o = draw(st.sampled_from(cli._GLOBAL_OPTIONS))
        words.append(draw(_option_words(o)))
    elif kind in ("-h", "--", "extra word"):
        word = {"-h": "-h", "--": "--", "extra word": "extra"}[kind]
        at = draw(st.integers(0, len(words)))
        words.insert(at, [word])
    elif kind == "unknown":
        words.append(["--bogus", "1"])
    elif kind == "bad n":
        n = next((o for o in options if o.flag == "--n"), None)
        if n is not None:
            words.append(draw(_option_words(n, draw(st.sampled_from(["x", "1.5", "", "10" * 3000])))))
    elif kind == "bad digit budget":
        glob += draw(_option_words(cli._GLOBAL_OPTIONS[3], draw(st.sampled_from(["x", "", "2e3"]))))
    elif kind == "bad format":
        glob += draw(_option_words(cli._GLOBAL_OPTIONS[0], "xml"))
    elif kind == "empty S":
        words.append(["--S="])
    elif kind == "dash value":
        o = draw(st.sampled_from(options + cli._GLOBAL_OPTIONS))
        if o.type is not bool:
            value = draw(st.sampled_from(["-1", "-x", "--u", "-"]))
            if o in cli._GLOBAL_OPTIONS:
                glob += [o.flag, value]
            else:
                words.append([o.flag, value])
    return kind, _flatten(glob, command, words)


class TestArgvReader:
    @settings(max_examples=200, deadline=None)
    @given(well_formed())
    def test_reads_every_well_formed_argv(self, drawn):
        argv = cli._join_values(_flatten(*drawn))
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert vars(read) == _parse(argv)[0]

    @settings(max_examples=300, deadline=None)
    @given(perturbed())
    # a separate value that starts with "-" and that _join_values leaves alone
    @example(("dash value", ["--output", "-x", "analyze", "--map", "x^2"]))
    @example(("dash value", ["pairs", "--u", "1", "--w", "2", "--map", "--u"]))
    def test_reader_is_argparse_or_none(self, drawn):
        _, argv = drawn
        argv = cli._join_values(argv)
        read = cli._read_argv(argv)
        if read is not None:
            assert vars(read) == _parse(argv)[0], argv

    @settings(max_examples=150, deadline=None)
    @given(perturbed())
    def test_main_is_the_same_without_the_reader(self, drawn):
        _, argv = drawn
        with_reader = _run_main(argv)
        read = cli._read_argv
        cli._read_argv = lambda argv: None
        try:
            without = _run_main(argv)
        finally:
            cli._read_argv = read
        assert with_reader == without, argv

    def test_every_benchmark_op_is_read_without_argparse(self):
        def accepts(text):
            try:
                parse_map(text)
            except ValueError:
                return False
            return True

        argvs = list(workloads.WARMUP_ARGVS)
        for workload in workloads.WORKLOADS:
            for seed in (1, 2, 3):
                stream = workloads.OpStream(workload, seed, accepts)
                argvs += [op["argv"] for op in
                          stream.take(workloads.fixed_count(workload, 30))]
        assert len(argvs) > 800
        for argv in argvs:
            joined = cli._join_values(argv)
            read = cli._read_argv(joined)
            assert read is not None, argv
            assert vars(read) == _parse(joined)[0], argv

    @settings(max_examples=150, deadline=None)
    @given(perturbed())
    def test_spec_parser_reads_as_the_reference(self, drawn):
        _, argv = drawn
        argv = cli._join_values(argv)
        assert _parse(argv, cli._build_parser()) == _parse(argv)

    def test_spec_parser_prints_the_reference_help(self):
        for argv in [["-h"], *([name, "-h"] for name in cli._COMMANDS), []]:
            assert _parse(argv, cli._build_parser()) == _parse(argv), argv
