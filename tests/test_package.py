"""The package's public names: every entry of ``__all__`` must resolve, once,
and must have a caller in the library outside the tests."""

import ast
from pathlib import Path

import gridperc

PACKAGE = Path(gridperc.__file__).resolve().parent


def test_all_names_resolve_without_duplicates():
    names = gridperc.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gridperc, name), name


def test_every_exported_name_has_a_library_caller():
    # A use is a name or attribute read in a library module; definitions and
    # imports do not count.
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [name for name in gridperc.__all__ if name not in used]
    assert not unused, f"exported but called only by tests: {unused}"
