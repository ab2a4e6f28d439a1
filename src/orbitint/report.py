"""Structured report documents for the CLI and regression snapshots.

Schema is versioned; large integers are elided beyond 80 digits with their
length and a collision-resistant hash so witnesses stay diff-able.
Documents are rendered as indented JSON by :func:`render_json`.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .divisors import DivisorTower
from .exactarith import ELISION_DIGITS, decimal_str
from .projective import ProjPoint
from .ratmap import CriticalDatum, PoweringWitness, WanderingResult
from .search import CosetStructure, PairReport

SCHEMA_VERSION = "2.2"

_json_str = json.encoder.encode_basestring_ascii

# the printable ASCII characters other than '"' and '\\': a string made only
# of these is its own JSON spelling
_JSON_SAFE = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')
# the shortest string that is scanned before it is escaped: the scan (an
# encode and a translate) has a fixed cost that beats escaping only past
# about 150 characters, measured on the reports' strings
_SCAN_MIN = 256


def render_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, for
    what reports hold: dicts with str keys, lists, tuples, str, int, bool
    and None, each of exactly that type; anything else raises ``TypeError``.

    The stdlib's C encoder does not indent, so ``json.dumps`` with an indent
    walks the document in pure-Python generators, yielding a few characters
    at a time.  This writer appends the whole report's pieces to one list
    and joins it once, at the end: each container adds its bracket, its
    separators, its encoded keys and its values' pieces, so no container's
    text is built and then copied again into its parent's.  Strings are
    spelled by ``encode_basestring_ascii``, except that a string of at least
    ``_SCAN_MIN`` characters made only of printable ASCII other than ``"``
    and ``\\`` (tested by one ``translate`` of its bytes) is written as it
    is; ints are spelled by ``int.__repr__`` (so an int past the int-to-str
    limit raises the same ``ValueError``).

    A document may share subtrees: one dict object may sit in many places,
    as the witness dicts of :func:`pair_report_doc` do.  A memo that lives
    for one call renders such a dict at most twice per indent.  The first
    sighting of a nonempty dict at an indent records only the object (which
    keeps its ``id`` from being reused within the call); the second joins
    the dict's pieces into its text and keeps it, and every later sighting
    at that indent appends the text.  So a document with no shared dict
    holds no extra text.  Unlike ``json.dumps``, the writer does not look
    for cycles, and a cyclic document ends in ``RecursionError``.
    """
    out: list[str] = []
    _json_value(doc, "\n", {}, out)
    return "".join(out)


def _json_value(o, newline: str, memo: dict, out: list) -> None:
    """Append the pieces of o, rendered at the indent that ``newline`` (a
    newline and the container's indent) sets for its contents, to ``out``;
    ``memo`` is the call's shared-dict memo (see :func:`render_json`)."""
    t = type(o)
    if t is str:
        if (
            len(o) >= _SCAN_MIN
            and o.isascii()
            and not o.encode().translate(None, _JSON_SAFE)
        ):
            out += ('"', o, '"')
        else:
            out.append(_json_str(o))
    elif t is dict:
        _json_dict(o, newline, memo, out)
    elif t is int:
        out.append(int.__repr__(o))
    elif t is list or t is tuple:
        _json_list(o, newline, memo, out)
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not a report value")


def _json_list(lst, newline: str, memo: dict, out: list) -> None:
    if not lst:
        out.append("[]")
        return
    inner = newline + "  "
    sep = "," + inner
    out.append("[" + inner)
    for v in lst:
        _json_value(v, inner, memo, out)
        out.append(sep)
    out[-1] = newline + "]"  # the last separator closes the list


def _json_dict(dct, newline: str, memo: dict, out: list) -> None:
    if not dct:
        out.append("{}")
        return
    key = (id(dct), len(newline))
    seen = memo.get(key)
    if seen.__class__ is tuple:  # third or later sighting: (dct, text)
        out.append(seen[1])
        return
    start = len(out)
    inner = newline + "  "
    sep = "," + inner
    out.append("{" + inner)
    for k, v in sorted(dct.items()):
        out.append(_json_str(k) + ": ")
        _json_value(v, inner, memo, out)
        out.append(sep)
    out[-1] = newline + "}"  # the last separator closes the dict
    memo[key] = dct if seen is None else (dct, "".join(out[start:]))


def format_big_int(n: int) -> str:
    """Decimal string of any length, elided beyond 80 digits with length
    and sha256."""
    s = decimal_str(n)
    digits = len(s.lstrip("-"))
    if digits <= ELISION_DIGITS:
        return s
    import hashlib  # only an elided number needs it, and it loads OpenSSL

    h = hashlib.sha256(s.encode()).hexdigest()[:16]
    sign = "-" if n < 0 else ""
    body = s.lstrip("-")
    return f"{sign}{body[:12]}...[{digits} digits, sha256:{h}]"


def format_fraction(q: Fraction) -> str:
    num = format_big_int(q.numerator)
    if q.denominator == 1:
        return num
    return f"{num}/{format_big_int(q.denominator)}"


def point_doc(pt) -> str:
    return f"[{format_big_int(pt.a0)}:{format_big_int(pt.a1)}]"


def json_int(field: str, n: int) -> int:
    """n, for a report field that JSON holds as an integer; a precondition
    error when n has more digits than ``json`` may write (Python's limit on
    int-to-str conversion, 4300 digits by default since 3.11), which
    ``str(n)`` refuses exactly as the writer's ``int.__repr__`` does."""
    try:
        str(n)
    except ValueError:
        raise ValueError(
            f"{field} has {len(decimal_str(abs(n)))} digits, more than the "
            f"{sys.get_int_max_str_digits()} that a JSON integer may have"
        ) from None
    return n


def _json_form(field: str, form) -> list[int]:
    """The coefficients of a form, each checked by :func:`json_int`."""
    return [json_int(field, c) for c in form]


def critical_datum_doc(c: CriticalDatum) -> dict:
    return {
        "point": c.point.serialize() if c.point is not None else None,
        "factor": _json_form("factor", c.factor) if c.factor is not None else None,
        "factor_degree": c.factor_degree,
        "ramification_index": c.ramification_index,
        "totally_ramified": c.totally_ramified,
        "periodic": c.periodic,
        "period": c.period,
    }


def wandering_doc(r: WanderingResult) -> dict:
    out: dict = {"kind": r.kind}
    if r.kind == "preperiodic":
        out["tail"] = r.tail
        out["period"] = r.period
    if r.certificate is not None:
        cert = r.certificate
        out["certificate"] = {
            "achieved_at": cert.achieved_at,
            "height": format_big_int(cert.height),
            "escape_bound": format_big_int(cert.bound),
        }
    return out


def powering_doc(w: PoweringWitness) -> dict:
    if w.pair is None:
        pair = None
    elif isinstance(w.pair[0], ProjPoint):
        pair = [p.serialize() for p in w.pair]
    else:
        pair = _json_form("pair", w.pair)
    return {"is_powering": w.is_powering, "pair": pair, "kind": w.kind}


def exceptional_doc(items) -> list:
    out = []
    for item in items:
        if isinstance(item, ProjPoint):
            out.append(item.serialize())
        else:
            out.append({"quadratic_factor": _json_form("quadratic_factor", item)})
    return out


def pair_report_doc(report: PairReport) -> dict:
    """The ``pairs`` report body.

    Cells that share one ``IntegralityWitness`` object (the cells that
    repeat a pair of orbit points, see ``find_integral_pairs``) share one
    witness dict, which :func:`render_json` renders at most twice per
    indent.  Do not mutate a witness dict in place: the change would show
    in every cell that holds it."""
    witness_docs: dict[int, dict] = {}  # id(witness) -> its dict
    cells = []
    for m, n in report.pairs:
        wit = report.witnesses[(m, n)]
        wdoc = witness_docs.get(id(wit))
        if wdoc is None:
            wdoc = witness_docs[id(wit)] = {
                "verdict": wit.verdict,
                "cross_term": format_big_int(wit.cross_term),
                # only integral witnesses are listed, and their rest is 1
                "violating_primes": [],
                "factorization_complete": True,
            }
        cells.append({"m": m, "n": n, "witness": wdoc})
    doc: dict = {
        "map": report.map.serialize_coefficients(),
        "u": report.u.serialize(),
        "w": report.w.serialize(),
        "S": report.places.serialize(),
        "window": {"m_max": report.window.m_max, "n_max": report.window.n_max},
        "truncated": report.truncated,
        "note": (
            "exhaustive window enumeration with hypothesis certificates; "
            "not a proof of global finiteness"
        ),
        "pairs": cells,
        "frontier": report.frontier,
    }
    if report.truncated:
        doc["effective_window"] = {
            "m_max": report.effective_window.m_max,
            "n_max": report.effective_window.n_max,
        }
    h = report.hypotheses
    doc["hypotheses"] = {
        "u": wandering_doc(h.u_status),
        "w": wandering_doc(h.w_status),
        "powering": powering_doc(h.powering),
        "exceptional_points": exceptional_doc(h.exceptional),
        "theorem_applies": h.theorem_applies,
    }
    return doc


def coset_doc(structure: CosetStructure) -> dict:
    return {
        "cosets": [
            {"base": list(base), "generators": [list(g) for g in gens]}
            for base, gens in structure.cosets
        ],
        "residual": [list(p) for p in structure.residual],
    }


def pair_table(report: PairReport) -> str:
    """The ``pairs`` table as TSV text: a header, then one row per grid
    cell: m, n, verdict, smallest known violating prime (None if none)."""
    rows = ["m\tn\tverdict\tsmallest_violating_prime\n"]
    # find_integral_pairs fills the witnesses in (m, n) order
    for (m, n), wit in report.witnesses.items():
        prime = wit.violating_primes[0] if wit.violating_primes else None
        rows.append(f"{m}\t{n}\t{wit.verdict}\t{prime}\n")
    return "".join(rows)


def tower_doc(tower: DivisorTower) -> dict:
    return {
        "map": tower.map.serialize_coefficients(),
        "depth": tower.depth,
        "g_forms": [g.serialize() for g in tower.g_forms],
        "b_forms": [b.serialize() for b in tower.b_forms],
    }
