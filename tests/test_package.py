"""The package façade: ``torusfield.__all__`` is kept by hand, so it is held
to the names ``__init__.py`` actually imports from the package's modules,
and each of those names to a use outside the façade.  And no module of the
package or of its tests imports a name it never reads, so a removal in
``src/`` cannot leave a stale import behind."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import torusfield

REPO = Path(__file__).resolve().parent.parent


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


def referenced_names(path: Path) -> set[str]:
    """The names the module at ``path`` reads, reaches as an attribute or
    imports; the names of its own ``def`` and ``class`` statements are none
    of these."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
    return names


def test_every_public_name_is_reached():
    # a public name is used by the package itself, or by the benchmark, a
    # README example or a CI step; anything else is a capability nobody runs
    package = Path(torusfield.__file__).parent
    used = set().union(*(
        referenced_names(path) for path in package.glob("*.py") if path.name != "__init__.py"
    ))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    texts = [path.read_text(encoding="utf-8") for path in sorted((REPO / "perfbench").glob("*.py"))]
    texts += re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    texts.append((REPO / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    unreached = [
        name for name in torusfield.__all__
        if name not in used and not any(re.search(rf"\b{name}\b", text) for text in texts)
    ]
    assert unreached == []


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


def test_only_the_kernel_names_its_work_arrays():
    # which work array may alias which is the kernel's rule alone, so no
    # other module may reach for the arrays themselves
    package = Path(torusfield.__file__).parent
    named = {
        path.name: sorted({
            node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in {"scratch", "r0", "h0", "h1"}
        })
        for path in sorted(package.glob("*.py")) if path.name != "conformal.py"
    }
    assert {name: attrs for name, attrs in named.items() if attrs} == {}


def test_only_conformal_warns_and_no_call_counts_stack_depth():
    # where a warning points is decided once, by walking the frames; a depth
    # counted by hand goes stale as soon as a call moves
    package = Path(torusfield.__file__).parent
    warns, counted = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in {"warn", "warn_explicit"}:
                warns.add(path.name)
            counted += [path.name for keyword in node.keywords if keyword.arg == "stacklevel"]
    assert warns == {"conformal.py"}
    assert counted == []
