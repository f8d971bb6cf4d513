"""No float enters any decision: an ``ast`` scan of ``src/qmodw/*.py``.

Every amplitude, mass and coefficient of the package is exact (ints,
``Fraction``s and the field ``AlgebraicNumber``), so the sources hold no
float or complex literal, call none of ``float``, ``complex``, ``round``
or ``math.sqrt``, and divide with ``/`` only where both sides are
``Fraction``s, at the one site named below by its enclosing function.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmodw"

# (module, enclosing function) -> number of ``/``, each on Fractions.
ALLOWED_DIVISIONS = {
    ("subroutines", "_quarter"): 2,          # Fraction(re) / 4, ... / 4
}

FORBIDDEN_CALLS = {"float", "complex", "round"}


def _scan(source):
    """(floats, divisions): the float-making nodes of a module's source,
    as (line, what) pairs, and a Counter of its ``/`` by enclosing
    function."""
    floats = []
    divisions = Counter()

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
    return floats, divisions


def test_no_float_literal_or_float_call_in_the_package():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        floats, _ = _scan(path.read_text())
        if floats:
            found[path.name] = floats
    assert found == {}


def test_division_only_at_the_named_fraction_sites():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        _, divisions = _scan(path.read_text())
        for function, count in divisions.items():
            found[(path.stem, function)] = count
    assert found == ALLOWED_DIVISIONS


def test_the_scan_sees_each_kind_of_float():
    # A module with one of each thing the scan forbids, and two
    # divisions in a nested function.
    floats, divisions = _scan(
        "import math\n"
        "from math import sqrt\n"
        "X = 0.5\n"
        "Y = 2j\n"
        "def f(a):\n"
        "    def g(b):\n"
        "        b /= 2\n"
        "        return a / b\n"
        "    return float(a) + complex(a) + round(a) + math.sqrt(a)\n")
    assert [what for _, what in floats] == [
        "from math import sqrt", "literal 0.5", "literal 2j",
        "call of float", "call of complex", "call of round", "math.sqrt"]
    assert divisions == {"f.g": 2}
