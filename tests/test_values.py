"""Value semantics of the package's record classes: equal when of one class
with equal fields, hashed as their field values, shown as
``Name(field=value, ...)``, and unequal to anything of another class
without raising.  Records are immutable by convention: only ``__init__``
(and ``ProjPoint._set_signed``) assigns a field, which TestRecordClasses
checks over the source of the package and of the tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import orbitint
from orbitint.divisors import BiForm, diagonal_form
from orbitint.exactarith import PlaceSet, Record
from orbitint.mapexpr import parse_map
from orbitint.projective import ProjPoint
from orbitint.ratmap import WanderingResult, make_map
from orbitint.search import PairReport, PairWindow, find_integral_pairs

_coords = st.integers(min_value=-10**30, max_value=10**30)


class TestProjPoint:
    @given(_coords, _coords, st.integers(min_value=-50, max_value=50).filter(bool))
    def test_scaled_coordinates_give_one_point(self, a, b, k):
        if a == b == 0:
            return
        p = ProjPoint(a, b)
        assert ProjPoint(k * a, k * b) == p
        assert hash(ProjPoint(k * a, k * b)) == hash(p)
        assert ProjPoint._from_coprime(p.a0, p.a1) == p
        assert ProjPoint._from_coprime(-p.a0, -p.a1) == p

    def test_other_types_are_unequal(self):
        p = ProjPoint(2, 3)
        assert p != (2, 3) and not p == (2, 3)
        assert p != PlaceSet((2, 3))
        assert p.__eq__((2, 3)) is NotImplemented
        assert p in {ProjPoint(4, 6): 0}


class TestRatMap:
    def test_spellings_of_one_map_are_one_key(self):
        f = parse_map("x^2+7")
        g = make_map([3, 0, 21], [3])
        assert f == g and hash(f) == hash(g)
        assert f != parse_map("x^2+5")


class TestRecords:
    def test_place_set_sorts_and_deduplicates(self):
        assert PlaceSet((3, 2, 3)) == PlaceSet((2, 3))
        assert hash(PlaceSet((3, 2, 3))) == hash(PlaceSet((2, 3)))
        assert PlaceSet() == PlaceSet(())
        assert repr(PlaceSet((3, 2))) == "PlaceSet(primes=(2, 3))"

    def test_pair_window(self):
        assert PairWindow(2, 3) == PairWindow(2, 3) != PairWindow(3, 2)
        assert repr(PairWindow(2, 3)) == "PairWindow(m_max=2, n_max=3)"
        assert PairWindow(2, 3).__eq__((2, 3)) is NotImplemented

    def test_defaults(self):
        assert WanderingResult("undecided") == WanderingResult("undecided", None, None, None)
        assert repr(WanderingResult("undecided")) == (
            "WanderingResult(kind='undecided', tail=None, period=None, certificate=None)"
        )

    def test_pair_reports_ignore_witnesses(self):
        r = find_integral_pairs(parse_map("x^2+1"), ProjPoint(1, 2), ProjPoint(1, 0),
                                PlaceSet((2,)), PairWindow(3, 3))
        assert r.witnesses
        fields = dict(map=r.map, u=r.u, w=r.w, places=r.places, window=r.window,
                      pairs=r.pairs, u_orbit=r.u_orbit, w_orbit=r.w_orbit,
                      hypotheses=r.hypotheses, frontier=r.frontier)
        bare = PairReport(**fields)
        assert bare.witnesses == {}
        assert bare.witnesses is not PairReport(**fields).witnesses
        assert bare == r and hash(bare) == hash(r)
        assert PairReport(**dict(fields, frontier=None)) != r

    def test_biform_equality_over_rows(self):
        b = BiForm(((0, 1), (-1, 0)))
        assert b == diagonal_form() and hash(b) == hash(diagonal_form())
        assert b != BiForm(((0, -1), (1, 0)))
        assert b != ((0, 1), (-1, 0))


def _record_classes() -> list[type]:
    for info in pkgutil.iter_modules(orbitint.__path__):
        importlib.import_module(f"orbitint.{info.name}")
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


class _FieldStores(ast.NodeVisitor):
    """Every store to an attribute named in ``fields``, except a store to
    ``self`` inside an assigning method of a record class."""

    ASSIGNING = ("__init__", "_set_signed")

    def __init__(self, fields: set[str], records: set[str]):
        self.fields, self.records = fields, records
        self.classes: list[str] = []
        self.functions: list[str] = []
        self.stores: list[str] = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def _assigning_method(self) -> bool:
        return (bool(self.classes) and self.classes[-1] in self.records
                and bool(self.functions) and self.functions[-1] in self.ASSIGNING)

    def visit_Attribute(self, node):
        if (isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in self.fields
                and not (isinstance(node.value, ast.Name) and node.value.id == "self"
                         and self._assigning_method())):
            self.stores.append(f"line {node.lineno}: {ast.unparse(node)}")
        self.generic_visit(node)

    def visit_Call(self, node):
        # setattr(obj, "field", v) and object.__setattr__(obj, "field", v)
        name = ast.unparse(node.func)
        if (name in ("setattr", "object.__setattr__", "delattr") and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in self.fields):
            self.stores.append(f"line {node.lineno}: {ast.unparse(node)}")
        self.generic_visit(node)


class TestRecordClasses:
    def test_fields_are_the_init_parameters(self):
        # a field assigned in __init__ but missing from _fields would drop out
        # of equality, hashing and repr
        classes = _record_classes()
        assert len(classes) == 15
        for cls in classes:
            params = tuple(inspect.signature(cls.__init__).parameters)[1:]
            if cls is PairReport:
                # witnesses is a parameter kept out of the fields on purpose
                params = tuple(name for name in params if name != "witnesses")
            assert params == cls._fields, cls.__name__

    def test_no_field_is_assigned_after_construction(self):
        classes = _record_classes()
        fields = {name for cls in classes for name in cls._fields} | {"witnesses"}
        records = {cls.__name__ for cls in classes}
        root = Path(__file__).resolve().parent
        sources = sorted(Path(orbitint.__file__).parent.glob("*.py")) + sorted(root.glob("*.py"))
        stores = []
        for path in sources:
            finder = _FieldStores(fields, records)
            finder.visit(ast.parse(path.read_text(), str(path)))
            stores += [f"{path.name} {store}" for store in finder.stores]
        assert stores == []
