"""Every name a module of src/plgp imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "plgp"


def unused_imports(source):
    """The names source binds by an import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_found():
    source = (
        "from itertools import combinations, count\n"
        "import os.path\n"
        "import math as m\n"
        "count(m.pi)\n"
    )
    assert unused_imports(source) == ["combinations", "os"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text()) == []
