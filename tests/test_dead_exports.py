"""Every name that ``repro.model`` and ``repro.geometry`` export has a caller.

A name in either package's ``__all__`` must be referenced somewhere in
``src/`` or ``benchmark/`` as an AST name or attribute, not as text in a
comment or docstring.  Package ``__init__`` files, test directories, the
name's own definition (its body included) and its ``__all__`` string do not
count.  A name that only its tests call is dead surface: delete it with its
tests rather than keep it exported.  ``PUBLIC_ONLY`` names the exports kept
on purpose without an in-library caller; each must stay exported and
uncalled, so the list cannot go stale.
"""

import ast
from pathlib import Path

import pytest

import repro
import repro.geometry
import repro.model

ROOT = Path(__file__).resolve().parents[1]
EXPORTS = sorted({*repro.model.__all__, *repro.geometry.__all__})

#: Exports kept as public API although nothing in the library calls them.
PUBLIC_ONLY = {
    # The validated GPS fix type of ``repro.__all__``; the library itself
    # takes geodetic input as lat/lon columns and never builds one.
    "LocationPoint",
}


def _collect(node: ast.AST, enclosing: tuple[str, ...], out: set[str]) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node.name)
    elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        if node.id not in enclosing:
            out.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _collect(child, enclosing, out)


def _referenced_names() -> set[str]:
    names: set[str] = set()
    for top in ("src", "benchmark"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py" or "tests" in path.relative_to(ROOT).parts:
                continue
            _collect(ast.parse(path.read_text(encoding="utf-8"), str(path)), (), names)
    return names


REFERENCED = _referenced_names()


@pytest.mark.parametrize("name", [n for n in EXPORTS if n not in PUBLIC_ONLY])
def test_exported_name_has_a_caller(name):
    assert name in REFERENCED, f"{name} is exported but nothing in src/ or benchmark/ uses it"


@pytest.mark.parametrize("name", sorted(PUBLIC_ONLY))
def test_public_only_name_is_exported_and_uncalled(name):
    assert name in EXPORTS and name in repro.__all__
    assert name not in REFERENCED, f"{name} has a caller now; drop it from PUBLIC_ONLY"
