"""Structured report documents for the CLI and regression snapshots.

Schema is versioned; large integers are elided beyond 80 digits with their
length and a collision-resistant hash so witnesses stay diff-able.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .divisors import DivisorTower
from .exactarith import decimal_str
from .ratmap import CriticalDatum, EscapeCertificate, PoweringWitness, WanderingResult
from .search import CosetStructure, PairReport

SCHEMA_VERSION = "1.0"

ELISION_DIGITS = 80


def format_big_int(n: int) -> str:
    """Decimal string of any length, elided beyond 80 digits with length
    and sha256."""
    s = decimal_str(n)
    digits = len(s.lstrip("-"))
    if digits <= ELISION_DIGITS:
        return s
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


def critical_datum_doc(c: CriticalDatum) -> dict:
    return {
        "point": c.point.serialize() if c.point is not None else None,
        "factor": list(c.factor) if c.factor is not None else None,
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
        cert: EscapeCertificate = r.certificate
        out["certificate"] = {
            "threshold": cert.threshold,
            "achieved_at": cert.achieved_at,
            "c_f": cert.c_f,
        }
    return out


def powering_doc(w: PoweringWitness) -> dict:
    pair: object = None
    if isinstance(w.pair, tuple) and w.pair and hasattr(w.pair[0], "serialize"):
        pair = [p.serialize() for p in w.pair]
    elif w.pair is not None:
        pair = list(w.pair)
    return {"is_powering": w.is_powering, "pair": pair, "kind": w.kind}


def exceptional_doc(items) -> list:
    out = []
    for item in items:
        if hasattr(item, "serialize"):
            out.append(item.serialize())
        else:
            out.append({"quadratic_factor": list(item)})
    return out


def pair_report_doc(report: PairReport) -> dict:
    doc: dict = {
        "map": report.map.serialize_coefficients(),
        "u": report.u.serialize(),
        "w": report.w.serialize(),
        "S": report.places.serialize(),
        "window": {"m_max": report.window.m_max, "n_max": report.window.n_max},
        "mode": "direct",  # the one route; the key stays in the 1.0 schema
        "truncated": report.truncated,
        "note": (
            "exhaustive window enumeration with hypothesis certificates; "
            "not a proof of global finiteness"
        ),
        "pairs": [
            {
                "m": m,
                "n": n,
                "witness": report.witnesses[(m, n)].to_dict(),
            }
            for m, n in report.pairs
        ],
        "frontier": report.frontier,
    }
    if report.truncated:
        doc["effective_window"] = {
            "m_max": report.effective_window.m_max,
            "n_max": report.effective_window.n_max,
        }
    if report.hypotheses is not None:
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


def pair_table(report: PairReport) -> list[dict]:
    """One row per grid cell: m, n, verdict, smallest known violating prime."""
    window = report.effective_window
    rows = []
    for m in range(window.m_max + 1):
        for n in range(window.n_max + 1):
            wit = report.witnesses[(m, n)]
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "verdict": wit.verdict,
                    "smallest_violating_prime": (
                        wit.violating_primes[0] if wit.violating_primes else None
                    ),
                }
            )
    return rows


def tower_doc(tower: DivisorTower) -> dict:
    return {
        "map": tower.map.serialize_coefficients(),
        "depth": tower.depth,
        "g_forms": [g.serialize() for g in tower.g_forms],
        "b_forms": [b.serialize() for b in tower.b_forms],
    }
