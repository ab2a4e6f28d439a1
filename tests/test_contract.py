"""The library's surface is its contract: every public function, class and
method in ``src/orbitint`` is reached from the package itself, from the
benchmark (``perfbench``) or from the acceptance criteria.  A name that only
its own unit tests reach is dead weight; delete it, or move it into the tests
when it serves them as an oracle.

A reference is a name read as ``ast.Name`` or ``ast.Attribute``, so it
matches by name alone; imports (and so the re-exports of ``__init__``),
dunders and ``_private`` names do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitint"
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions() -> dict[str, str]:
    """{name: "module.qualname"} for the public module-level functions and
    classes of the package and the public methods of those classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                out.setdefault(node.name, f"{path.stem}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and _public(item.name):
                            out.setdefault(item.name, f"{path.stem}.{node.name}.{item.name}")
    return out


def references() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    reached = references()
    unreached = sorted(q for name, q in definitions().items() if name not in reached)
    assert not unreached, f"reached only by their own tests, if at all: {unreached}"


def test_scan_sees_the_surface():
    # the scan is not vacuous: it finds the entry points and a method
    defs = definitions()
    assert defs["main"] == "cli.main"
    assert defs["normalized"] == "divisors.BiForm.normalized"
    assert {"main", "find_integral_pairs", "coefficients"} <= references()
