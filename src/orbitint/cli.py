"""Command-line surface: parse maps and points, run analyses, emit
structured reports.

Exit status 0 on success, 2 on precondition errors (named in the report),
3 when a resource cap truncated the computation (report still emitted).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .divisors import build_tower, diagonal_critical_intersections
from .exactarith import PlaceSet
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
        m, n = map(int, text.lower().split("x"))
    except ValueError:
        raise SearchError(f"cannot parse window {text!r}; expected MxN") from None
    return PairWindow(m, n)


@functools.cache  # built on the first call, so importing stays cheap
def _build_parser() -> argparse.ArgumentParser:
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
    ap.add_argument("--digit-budget", type=int, default=DEFAULT_DIGIT_BUDGET)
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


# the options whose value may start with "-": a map such as -x^2+1, or a
# point such as -7/3
_VALUE_OPTIONS = frozenset(("--map", "--u", "--w", "--point", "--S"))


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
    ap = _build_parser()
    args = ap.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
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
