"""Every name a module of the package imports is read in that module."""
import ast
import os

import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "amplekit")
MODULES = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))

# `repmap` re-exports the two public names of the map file format that moved
# to `core`; `perfbench/tracing.py` and the CLI read them from there
REEXPORTS = {("repmap", name) for name in ("format_repmap", "parse_repmap_text")}


def unread_imports(module):
    with open(os.path.join(PKG, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - read if (module, name) not in REEXPORTS)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unread_imports(module) == []
