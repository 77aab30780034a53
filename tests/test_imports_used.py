"""Every name a module of the package or of the tests imports is read in
that module, and every function and class a module of the package defines
is read somewhere in the package or exported."""
import ast
import os
from collections import Counter

import pytest

from amplekit import _EXPORTS

TESTS = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.join(os.path.dirname(TESTS), "src", "amplekit")
MODULES = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))
TEST_MODULES = sorted(f[:-3] for f in os.listdir(TESTS) if f.endswith(".py"))

# `repmap` re-exports the two public names of the map file format that moved
# to `core`; `perfbench/tracing.py` and the CLI read them from there
REEXPORTS = {("repmap", name) for name in ("format_repmap", "parse_repmap_text")}
# `shatter._is_ample_fast` has no caller left in the package: the report reads
# each C^x's ampleness off C's own X(C).  `perfbench/tracing.py` still wraps it
# as a layer, so it stays until the benchmark reads its layers from spans
LAYER_ONLY = {("shatter", "_is_ample_fast")}


def _tree(directory, module):
    with open(os.path.join(directory, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


TREES = {module: _tree(PKG, module) for module in MODULES}


def unread_imports(module, tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - read if (module, name) not in REEXPORTS)


@pytest.mark.parametrize("directory, module", [
    *(pytest.param(PKG, module, id=module) for module in MODULES),
    *(pytest.param(TESTS, module, id=f"tests.{module}") for module in TEST_MODULES)])
def test_every_import_is_read(directory, module):
    assert unread_imports(module, _tree(directory, module)) == []


def _reads(tree):
    """How often each name is read in the tree, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                   or isinstance(node, ast.Attribute))


READS = sum(map(_reads, TREES.values()), Counter())
EXPORTED = {name for names in _EXPORTS.values() for name in names}


def unread_definitions(module):
    """The module-level functions and classes that the package reads nowhere
    outside their own definition and does not export: code that only the
    tests use.  Dunder hooks such as `__getattr__` are read by Python."""
    return [node.name for node in TREES[module].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in EXPORTED and (module, node.name) not in LAYER_ONLY
            and READS[node.name] == _reads(node)[node.name]]


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_read_or_exported(module):
    assert unread_definitions(module) == []


def test_each_layer_only_definition_is_unread_and_traced():
    # an entry that the package reads again, or that the benchmark no longer
    # traces, is stale and leaves the set
    with open(os.path.join(os.path.dirname(TESTS), "perfbench", "tracing.py"),
              encoding="utf-8") as fh:
        tracing = fh.read()
    for module, name in LAYER_ONLY:
        assert READS[name] == sum(_reads(node)[name] for node in TREES[module].body
                                  if getattr(node, "name", None) == name)
        assert f'"{module}.{name}"' in tracing
