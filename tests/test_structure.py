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


def csvtext_reads(path):
    """``file:line name`` for each attribute of ``csvtext`` that the module
    at ``path`` reads and each name it imports from ``csvtext``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "csvtext":
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("csvtext"):
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names]
    return found


def test_cli_reads_only_the_csv_byte_generator(tmp_path):
    # slices, template buffers, keep masks and widths are csvtext's own: the
    # CLI reads a table's bytes and nothing else of it
    reads = csvtext_reads(SRC / "cli.py")
    assert reads and {read.split()[1] for read in reads} == {"table_bytes"}
    probe = tmp_path / "probe.py"
    probe.write_text("from . import csvtext\n"
                     "from .csvtext import WIDTH\n"
                     "size = csvtext._CSV_ROWS * csvtext.table_bytes\n")
    assert csvtext_reads(probe) == ["probe.py:2 WIDTH", "probe.py:3 _CSV_ROWS",
                                    "probe.py:3 table_bytes"]


FAMILY_NAMES = {"uniform", "dyadic", "geometric", "random"}


def family_names(path):
    """``file:line name`` for each string constant of the module at ``path``
    that is a partition family's whole name."""
    return [f"{path.name}:{node.lineno} {node.value}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in FAMILY_NAMES]


def test_partition_families_are_named_in_knots_only(tmp_path):
    # the grammar family:count[:field], its family table and the generators
    # it feeds are one module's
    found = [name for path in sorted(SRC.glob("*.py")) for name in family_names(path)]
    assert {name.split(":")[0] for name in found} == {"knots.py"}
    assert {name.split()[1] for name in found} == FAMILY_NAMES
    probe = tmp_path / "probe.py"
    probe.write_text('spec = "uniform:8"\nfamily = {"random": 1}\n')
    assert family_names(probe) == ["probe.py:2 random"]


def test_one_function_opens_files():
    # an input file is read through cli.read_input alone, which turns an
    # unreadable one into bad input
    opens = [f"{path.name}:{fn.name}"
             for path in sorted(SRC.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"]
    assert opens == ["cli.py:read_input"]
