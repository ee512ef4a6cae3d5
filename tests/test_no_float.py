"""The package computes without floating point.

Its values are exact (``ring.py``, README), so a float could only make
one inexact.  This check refuses the ways a float gets in by name: a
float or complex literal, a call to ``float``, ``complex`` or ``round``,
a ``math`` import other than the integer ``factorial`` and ``comb``, and
a call into ``time``.  The one float allowed is the CLI's
``time.monotonic()`` case timing, which is printed as whole milliseconds
and never meets a value.  True division of two ints is not caught: it
needs types, and the package divides ``Fraction`` values with ``/``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "framedskein").glob("*.py"))
INTEGER_MATH = {"factorial", "comb"}
FLOAT_BUILTINS = {"float", "complex", "round"}
ALLOWED = {"cli.py": ["time.monotonic()", "time.monotonic()"]}


def float_sources(tree):
    """What lets a float in, one entry per node, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in FLOAT_BUILTINS:
            found.append((node.lineno, f"{node.func.id}()"))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "time":
            found.append((node.lineno, f"time.{node.func.attr}()"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name in ("math", "cmath")]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in INTEGER_MATH]
        elif isinstance(node, ast.ImportFrom) and node.module in ("cmath",
                                                                  "time"):
            found.append((node.lineno, f"from {node.module}"))
    return [what for _, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert float_sources(tree) == ALLOWED.get(path.name, [])


@pytest.mark.parametrize("source", [
    "x = 0.5", "x = 1e3", "x = 2j", "x = float(n)", "x = complex(1, 2)",
    "x = round(q)", "import math", "import cmath", "from math import sqrt",
    "from math import comb, log", "x = time.time()", "from time import time",
])
def test_each_float_source_is_found(source):
    assert len(float_sources(ast.parse(source))) == 1


def test_exact_code_passes():
    source = ("from math import comb, factorial\n"
              "x = Fraction(1, 2) / 3 + comb(5, 2) // factorial(3)\n")
    assert float_sources(ast.parse(source)) == []
