"""The sources keep to the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "wfcolor").glob("*.py"))


def declared_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_pyproject_declares_python_3_10():
    assert declared_python() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_a_source_parses_as_the_declared_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_python())
