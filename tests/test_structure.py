"""Module boundaries of the package, read from its source with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "splineproj"


def private_imports(path):
    """``file:line name`` for each name with a leading underscore that the
    module at ``path`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "splineproj"):
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name(tmp_path):
    # a helper another module needs belongs to its module's interface; a
    # private one, such as the row stream's extent, stays where it is made
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [name for path in modules for name in private_imports(path)] == []
    # the walk sees relative and absolute imports alike
    probe = tmp_path / "probe.py"
    probe.write_text("from .gram import GramMatrix, _nonzero_width\n"
                     "from splineproj.gram import _ROWS\n"
                     "from __future__ import annotations\n")
    assert private_imports(probe) == ["probe.py:1 _nonzero_width", "probe.py:2 _ROWS"]
