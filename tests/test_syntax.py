"""The package's source parses as the oldest Python it declares (3.10)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hodsim").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_with_python_3_10_grammar(path):
    """Best-effort only: as the ``ast`` docs say, ``feature_version`` does not
    promise to reject every construct newer than 3.10, and it checks no
    library call.  It does catch most new syntax, such as ``except*``,
    before a 3.10 interpreter would."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
