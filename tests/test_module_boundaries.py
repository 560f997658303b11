"""Module boundaries that the package's source text shows.

numpy is imported by the relabeling engine, ``_kernels``, alone: it owns
the array representation and its vertex cap, and every other module asks
it for arrays.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "simhaus").glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_engine_imports_numpy():
    importers = {path.name for path in SOURCES
                 if any(m.split(".")[0] == "numpy" for m in imported_modules(path))}
    assert importers == {"_kernels.py"}
