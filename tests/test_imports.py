"""Every name a module of the package imports is used in that module, and
every name the package exports exists."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import spbw

PACKAGE = Path(spbw.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _unused_imports(source: str) -> list:
    """The names bound by the imports of `source` (those of __future__
    aside) that no Name node and no __all__ entry reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(bound - used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom itertools import product, chain\n"
                           "chain()\n") == ["os", "product"]
    assert _unused_imports("from __future__ import annotations\n"
                           "import spbw.cli\nfrom x import y as z\n"
                           "__all__ = ['z']\nspbw.cli\n") == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(PACKAGE)) for p in SOURCES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []


def test_every_public_name_is_exported_once():
    # `from spbw import *` raises on an __all__ entry spbw does not define
    assert [name for name in spbw.__all__ if not hasattr(spbw, name)] == []
    assert [name for name, n in Counter(spbw.__all__).items() if n > 1] == []
