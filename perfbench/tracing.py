"""Per-layer spans for the traced pass.

The traced pass runs the same ``orbitint.cli.main(argv)`` as the timed
passes.  ``install`` first replaces each layer function below with a wrapper,
at the module attribute where the CLI or its callee looks the function up.
The wrapper opens a span around the original call and feeds the counters, so
the spans time the code the CLI runs, nested as it calls it: ``s_free_part``
sits inside ``is_integral_pair``, which sits inside ``find_integral_pairs``.

Span names are ``<module>.<stage>``; the root span of an op is ``op``.  A
wrapper entered again while its own span is innermost (the recursion of
``iterated_forms``) adds no span.  Spans live in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return traced

    def add(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def _cell(t: Tracer, wit) -> None:
    t.add("integrality.cells")
    t.peak("exactarith.cross_max_bits", abs(wit.cross_term).bit_length())
    if wit.verdict:
        t.add("integrality.integral_cells")
    elif not wit.factorization_complete:
        t.add("integrality.incomplete_witnesses")


def _orbit_point(t: Tracer, pt) -> None:
    t.peak("ratmap.orbit_max_bits", max(abs(pt.a0), abs(pt.a1)).bit_length())


def _form(t: Tracer, form) -> None:
    t.peak("divisors.max_terms", len(form.coefficients))


# (orbitint module, attribute, span name, counter hook)
WRAPS = [
    ("cli", "parse_map", "mapexpr.parse", None),
    ("cli", "bad_reduction_primes", "ratmap.bad_primes", None),
    ("cli", "critical_data", "ratmap.critical", None),
    ("cli", "is_powering_conjugate", "ratmap.critical", None),
    ("cli", "exceptional_points", "ratmap.exceptional", None),
    ("cli", "find_integral_pairs", "search.find_pairs", None),
    ("cli", "detect_coset_structure", "search.coset", None),
    ("cli", "diagonal_critical_intersections", "divisors.diag_roots", None),
    ("search", "bad_reduction_primes", "ratmap.bad_primes", None),
    ("search", "eval_map", "ratmap.orbit", _orbit_point),
    ("search", "is_integral_pair", "integrality.cell", _cell),
    ("search", "certify_wandering", "ratmap.certify", None),
    ("search", "is_powering_conjugate", "ratmap.critical", None),
    ("search", "exceptional_points", "ratmap.exceptional", None),
    ("integrality", "s_free_part", "exactarith.verdict", None),
    ("ratmap", "iterated_forms", "ratmap.iterated_forms", None),
    ("divisors", "iterated_forms", "ratmap.iterated_forms", None),
    ("divisors", "g_form", "divisors.g_form", _form),
    ("divisors", "exact_divide", "divisors.exact_divide", _form),
] + [("cli", doc, "report.render", None) for doc in (
    "pair_report_doc", "coset_doc", "tower_doc", "critical_datum_doc",
    "exceptional_doc", "powering_doc")]


class _Json:
    """``json`` for the CLI module, with ``dumps`` under a span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(t: Tracer) -> None:
    """Wrap every layer function in WRAPS, and the CLI's ``json.dumps``."""
    for module, attr, name, after in WRAPS:
        mod = importlib.import_module(f"orbitint.{module}")
        setattr(mod, attr, t.wrap(getattr(mod, attr), name, after))
    cli = importlib.import_module("orbitint.cli")
    cli.json = _Json(t.wrap(json.dumps, "report.render"))
