"""The package façade: ``torusfield.__all__`` is kept by hand, so it is held
to the names ``__init__.py`` actually imports from the package's modules.
And no module of the package or of its tests imports a name it never reads,
so a removal in ``src/`` cannot leave a stale import behind."""

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


def unused_imports(path: Path) -> list[str]:
    """The names the module at ``path`` imports but never reads; a name in its
    ``__all__`` counts as read, and ``from __future__`` imports are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    # perfbench/ is left out: its files change only with the benchmark
    roots = (Path(torusfield.__file__).parent, Path(__file__).parent)
    stale = {
        str(path.relative_to(root.parent)): names
        for root in roots for path in sorted(root.rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert stale == {}
