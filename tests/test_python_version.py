"""Every source file parses with the grammar of the oldest Python that pyproject.toml declares.

The tests run on a newer interpreter, so syntax such as ``except*``
(3.11) would otherwise pass here and break an install on 3.10.
"""

import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "simhaus").glob("*.py"))


def test_declared_minimum_is_3_10():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["requires-python"] == ">=3.10"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
