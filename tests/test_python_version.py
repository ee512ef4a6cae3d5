"""The package parses as the oldest Python that ``pyproject.toml`` admits.

``ast.parse`` with ``feature_version`` refuses syntax newer than that
version (``except*``, PEP 695 type parameters and ``type`` statements),
so a newer interpreter running the suite still catches it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "framedskein").glob("*.py"))


def declared_minimum():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


def test_declared_minimum_is_3_10():
    assert declared_minimum() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_the_declared_minimum(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=declared_minimum())


def test_newer_syntax_is_refused():
    # the check has teeth: 3.11's except* does not parse as 3.10
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
