"""The package façade: ``torusfield.__all__`` is kept by hand, so it is held
to the names ``__init__.py`` actually imports from the package's modules."""

from __future__ import annotations

import ast
from pathlib import Path

import torusfield


def facade_imports() -> set[str]:
    """The names bound by the ``from torusfield.<module> import ...`` lines of
    ``__init__.py``."""
    tree = ast.parse(Path(torusfield.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torusfield.")
        for alias in node.names
    }


def test_all_is_sorted_unique_and_resolves():
    names = torusfield.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(torusfield, name)]
    assert missing == []


def test_all_is_exactly_what_the_facade_imports():
    assert set(torusfield.__all__) == facade_imports()
