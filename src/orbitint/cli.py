"""Command-line surface: parse maps and points, run analyses, emit
structured reports.

Exit status 0 on success, 2 on precondition errors (named in the report),
3 when a resource cap truncated the computation (report still emitted).
"""

from __future__ import annotations

import functools
import json
import sys
import types

from . import __version__
from .divisors import build_tower, diagonal_critical_intersections
from .exactarith import PlaceSet, quoted, read_int
from .mapexpr import parse_map
from .projective import parse_point
from .ratmap import (
    bad_reduction_primes,
    certify_wandering,
    critical_data,
    exceptional_points,
    is_powering_conjugate,
)
from .report import (
    SCHEMA_VERSION,
    coset_doc,
    critical_datum_doc,
    exceptional_doc,
    format_fraction,
    json_int,
    pair_report_doc,
    pair_table,
    point_doc,
    powering_doc,
    render_json,
    tower_doc,
    wandering_doc,
)
from .search import (
    DEFAULT_DIGIT_BUDGET,
    PairWindow,
    SearchError,
    detect_coset_structure,
    exceptional_case_enlarge,
    find_integral_pairs,
    orbit,
    powering_case_enlarge,
    tau_unit_checks_passed,
    tau_values,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_TRUNCATED = 3


def _parse_window(text: str) -> PairWindow:
    try:
        m, n = map(read_int, text.lower().split("x"))
    except ValueError:
        raise SearchError(f"cannot parse window {quoted(text)}; expected MxN") from None
    return PairWindow(m, n)


class _Option:
    """One CLI option, as ``argparse.add_argument`` takes it: ``type`` is
    ``str``, ``int`` or ``bool``, the last for a flag that takes no value
    (``action="store_true"``).  ``_build_parser`` and ``_read_argv`` both
    read the options from the spec below."""

    __slots__ = ("flag", "dest", "type", "default", "required", "choices", "help")

    def __init__(self, flag, type=str, default=None, *, required=False, choices=None,
                 help=None):
        self.flag = flag
        self.dest = flag[2:].replace("-", "_")
        self.type = type
        self.default = default
        self.required = required
        self.choices = choices
        self.help = help


_GLOBAL_OPTIONS = (
    _Option("--format", choices=("json", "table"), default="json"),
    _Option("--no-timestamp", bool, False),
    _Option("--output", help="output path (default stdout)"),
    _Option("--digit-budget", int, DEFAULT_DIGIT_BUDGET),
)
_MAP = _Option("--map", required=True, help="map expression or num=..;den=..")
_POINT = _Option("--point", required=True)
_U = _Option("--u", required=True)
_W = _Option("--w", required=True)
_S = _Option("--S", default="")
_WINDOW = _Option("--window", default="6x6")
# each command's help and options, in the order the help lists them
_COMMANDS = {
    "analyze": ("degree, reduction, critical structure", (_MAP,)),
    "orbit": ("forward orbit of a point",
              (_MAP, _POINT, _Option("--n", int, 8, help="orbit length"))),
    "pairs": ("integral index pairs over a window",
              (_MAP, _U, _W, _Option("--S", default="", help="comma-separated primes"),
               _WINDOW)),
    "divisor": ("divisor tower G_1..G_n, B_0..B_n",
                (_MAP, _Option("--n", int, 2, help="tower depth"))),
    "certify": ("preperiodic / wandering certificate",
                (_MAP, _POINT, _Option("--n", int, 64, help="max iterations"))),
    "powering": ("powering-case pair analysis", (_MAP, _U, _W, _S, _WINDOW)),
    "exceptional": ("S-enlargement making every (m, n) integral for exceptional w = inf",
                    (_MAP, _U, _S)),
}
# the options by flag: before the command (key None), and after each command
_FLAGS = {None: {o.flag: o for o in _GLOBAL_OPTIONS}} | {
    name: {o.flag: o for o in options} for name, (_, options) in _COMMANDS.items()
}


@functools.cache  # built on the first call, so importing stays cheap
def _build_parser():
    import argparse  # only an argv that _read_argv refuses needs it

    ap = argparse.ArgumentParser(
        prog="orbitint",
        description=(
            "Exact S-integrality of two-parameter orbits of rational "
            "self-maps of the projective line over Q"
        ),
    )
    for o in _GLOBAL_OPTIONS:
        _add_option(ap, o)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for o in options:
            _add_option(p, o)
    return ap


def _add_option(parser, o: _Option) -> None:
    if o.type is bool:
        parser.add_argument(o.flag, action="store_true", help=o.help)
    else:
        parser.add_argument(o.flag, type=o.type, default=o.default, required=o.required,
                            choices=o.choices, help=o.help)


def _read_argv(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, read from
    the option spec in one pass, for a well-formed argv: the global options,
    a command, then its options, each named exactly, with its value as
    ``--opt=value`` or as the next word when that does not start with "-";
    every required option present, and every int and choice valid.

    None for any other argv (an abbreviation, -h, --, an unknown or
    misplaced option, a bad int or choice, a missing value, an extra word):
    argparse reads it, and writes its own usage error or help."""
    values = {o.dest: o.default for o in _GLOBAL_OPTIONS}
    command = None
    flags = _FLAGS[None]
    i, end = 0, len(argv)
    while i < end:
        word = argv[i]
        i += 1
        flag, eq, value = word.partition("=")
        o = flags.get(flag)
        if o is None:
            if command is not None or word not in _COMMANDS:
                return None
            command, flags = word, _FLAGS[word]
            values["command"] = word
            values.update((c.dest, c.default) for c in _COMMANDS[word][1] if not c.required)
            continue
        if o.type is bool:
            if eq:
                return None
            value = True
        elif not eq:
            if i == end or argv[i][:1] == "-":
                return None
            value = argv[i]
            i += 1
        if o.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    if command is None or any(o.dest not in values for o in _COMMANDS[command][1]):
        return None
    return types.SimpleNamespace(**values)


def _run_command(args) -> tuple[dict, int]:
    if args.digit_budget < 0:
        raise ValueError(f"--digit-budget must be at least 0, not {args.digit_budget}")
    least = {"orbit": 0, "divisor": 1, "certify": 1}.get(args.command)
    if least is not None and args.n < least:
        raise ValueError(f"--n must be at least {least}, not {args.n}")
    f = parse_map(args.map)
    status = EXIT_OK
    if args.command == "analyze":
        body = {
            "map": f.serialize_coefficients(),
            "degree": f.degree,
            "polynomial": f.is_polynomial,
            "resultant": json_int("resultant", f.resultant),
            "bad_reduction_primes": bad_reduction_primes(f).serialize(),
            "critical_data": [critical_datum_doc(c) for c in critical_data(f)],
            "exceptional_points": exceptional_doc(exceptional_points(f)),
            "powering": powering_doc(is_powering_conjugate(f)),
        }
    elif args.command == "orbit":
        pt = parse_point(args.point)
        points = orbit(f, pt, args.n, args.digit_budget)
        body = {
            "map": f.serialize_coefficients(),
            "start": pt.serialize(),
            "orbit": [point_doc(p) for p in points],
        }
        if len(points) <= args.n:
            status = EXIT_TRUNCATED
    elif args.command in ("pairs", "powering"):
        u, w = parse_point(args.u), parse_point(args.w)
        places, window = PlaceSet.parse(args.S), _parse_window(args.window)
        if args.command == "powering":
            places = powering_case_enlarge(f, u, w, places)
        report = find_integral_pairs(f, u, w, places, window, digit_budget=args.digit_budget)
        body = pair_report_doc(report)
        if args.command == "powering":
            taus = tau_values(report)
            body["enlarged_S"] = places.serialize()
            body["tau_values"] = [format_fraction(t) for t in taus]
            body["tau_unit_checks_passed"] = tau_unit_checks_passed(taus, places)
        else:
            body["coset_structure"] = coset_doc(detect_coset_structure(report))
            if args.format == "table":
                body["table"] = pair_table(report)
        if report.truncated:
            status = EXIT_TRUNCATED
    elif args.command == "divisor":
        tower = build_tower(f, args.n)
        body = tower_doc(tower)
        body["diagonal_critical_intersections"] = [
            p.serialize() for p in diagonal_critical_intersections(tower)
        ]
    elif args.command == "certify":
        result = certify_wandering(f, parse_point(args.point), args.n)
        body = {
            "map": f.serialize_coefficients(),
            "point": args.point,
            "result": wandering_doc(result),
        }
    elif args.command == "exceptional":
        u = parse_point(args.u)
        places = exceptional_case_enlarge(f, u, PlaceSet.parse(args.S))
        body = {
            "map": f.serialize_coefficients(),
            "u": u.serialize(),
            "enlarged_S": places.serialize(),
            "note": (
                "enlarged_S makes every (m, n) in N^2 integral for w = inf, by "
                "good reduction: at each prime outside it, f has good reduction "
                "and no f^m(u) reduces to inf or f(inf)"
            ),
        }
    else:  # pragma: no cover
        raise SearchError(f"unknown command {args.command!r}")
    return body, status


class _ReportEncoder(json.JSONEncoder):
    """The encoder ``json.dumps(doc, indent=2, sort_keys=True, cls=...)``
    uses: ``render_json``, which writes the same bytes."""

    def encode(self, o) -> str:
        return render_json(o)


def _render_table(doc: dict, out) -> None:
    body = doc["body"]
    if "table" in body:
        out.write(body["table"])
        return
    for key, value in sorted(body.items()):
        out.write(f"{key}\t{json.dumps(value, sort_keys=True)}\n")


# the options whose value may start with "-": every str option of a command,
# such as a map -x^2+1, a point -7/3 or a window -1x2
_VALUE_OPTIONS = frozenset(
    o.flag for _, options in _COMMANDS.values() for o in options if o.type is str
)


def _join_values(argv: list[str]) -> list[str]:
    """argv with each value option joined, as ``--opt=word``, to a next word
    that starts with a single "-": argparse reads a word such as "-7/3",
    which is not a plain negative number, as an option, not as a value."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _VALUE_OPTIONS and word[:1] == "-" and word[:2] != "--":
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = _join_values(sys.argv[1:] if argv is None else argv)
    args = _read_argv(argv)
    if args is None:  # argparse reads it, or prints its usage error or help and exits
        args = _build_parser().parse_args(argv)
    doc: dict = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                 "command": args.command}
    if not args.no_timestamp:
        from datetime import datetime, timezone  # only a timestamped report needs it

        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    out = sys.stdout
    try:
        if args.output is not None:  # opened first: a bad path fails before the work
            try:
                out = open(args.output, "w")
            except OSError as exc:
                raise ValueError(f"--output {args.output}: {exc.strerror}") from None
        body, status = _run_command(args)
        doc["body"] = body
        doc["status"] = status
    except ValueError as exc:  # every precondition error is a ValueError
        doc["error"] = str(exc)
        doc["status"] = EXIT_PRECONDITION
        status = EXIT_PRECONDITION

    try:
        if args.format == "table" and "body" in doc:
            _render_table(doc, out)
        else:
            out.write(json.dumps(doc, indent=2, sort_keys=True, cls=_ReportEncoder))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
