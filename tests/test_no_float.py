"""No float enters any decision: an ``ast`` scan of ``src/qmodw/*.py``.

Every amplitude, mass and coefficient of the package is exact (ints,
``Fraction``s and the field ``AlgebraicNumber``), so the sources hold no
float or complex literal, call none of ``float``, ``complex``, ``round``
or ``math.sqrt``, and make no division with ``/``.  A rational is built
as ``Fraction(p, q)``.

The same scan finds every call of the 8-coordinate constructor
``AlgebraicNumber(...)``: only ``algebra.py`` knows which coordinate is
which basis element, and every other module builds its numbers from
rationals and the named constants.  The packed form has one owner too:
``polymethod.py`` packs through ``algebra.py`` and imports nothing from
``linalg``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmodw"

# (module, enclosing function) -> number of ``/``.
ALLOWED_DIVISIONS = {}

FORBIDDEN_CALLS = {"float", "complex", "round"}


def _scan(source):
    """(floats, divisions, builds): the float-making nodes of a module's
    source, as (line, what) pairs, and Counters of its ``/`` and of its
    ``AlgebraicNumber(...)`` calls by enclosing function."""
    floats = []
    divisions = Counter()
    builds = Counter()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Constant)
                and type(node.value) in (float, complex)):
            floats.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in FORBIDDEN_CALLS:
                floats.append((node.lineno, f"call of {func.id}"))
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "AlgebraicNumber":
                builds[".".join(scope)] += 1
        elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
              and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            floats.append((node.lineno, "math.sqrt"))
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name == "sqrt" for alias in node.names)):
            floats.append((node.lineno, "from math import sqrt"))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            divisions[".".join(scope)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return floats, divisions, builds


def test_no_float_literal_or_float_call_in_the_package():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        floats, _, _ = _scan(path.read_text())
        if floats:
            found[path.name] = floats
    assert found == {}


def test_division_only_at_the_named_fraction_sites():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        _, divisions, _ = _scan(path.read_text())
        for function, count in divisions.items():
            found[(path.stem, function)] = count
    assert found == ALLOWED_DIVISIONS


def test_only_algebra_builds_a_number_from_its_coordinates():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        _, _, builds = _scan(path.read_text())
        for function, count in builds.items():
            found[(path.stem, function)] = count
    assert {key for key in found if key[0] != "algebra"} == set()
    assert found  # the scan sees algebra.py's own calls


def test_the_scan_sees_each_kind_of_float():
    # A module with one of each thing the scan forbids, two divisions in
    # a nested function, and a constructor call by name and by attribute.
    floats, divisions, builds = _scan(
        "import math\n"
        "from math import sqrt\n"
        "X = 0.5\n"
        "Y = 2j\n"
        "Z = qmodw.AlgebraicNumber((1,) * 8)\n"
        "def f(a):\n"
        "    def g(b):\n"
        "        b /= 2\n"
        "        return a / b + AlgebraicNumber(a)\n"
        "    return float(a) + complex(a) + round(a) + math.sqrt(a)\n")
    assert [what for _, what in floats] == [
        "from math import sqrt", "literal 0.5", "literal 2j",
        "call of float", "call of complex", "call of round", "math.sqrt"]
    assert divisions == {"f.g": 2}
    assert builds == {"": 1, "f.g": 1}


def _linalg_imports(source):
    """The lines of ``source`` that import ``linalg`` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "") + "." + a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any("linalg" in name.split(".") for name in names):
            found.append(node.lineno)
    return found


def test_polymethod_imports_nothing_from_linalg():
    assert _linalg_imports((SRC / "polymethod.py").read_text()) == []


def test_the_import_scan_sees_each_form():
    assert _linalg_imports(
        "from .linalg import _rows\n"
        "from . import linalg\n"
        "from qmodw.linalg import StateVector\n"
        "import qmodw.linalg\n"
        "from .algebra import _pack\n") == [1, 2, 3, 4]
