"""Static checks of what `src/codemapper` imports, read with `ast`."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "codemapper").glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every module `path` imports; a relative import
    counts as `codemapper`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("codemapper" if node.level else node.module.partition(".")[0])
    return names


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"gitio.py", "pipeline.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = imported_modules(path) - set(sys.stdlib_module_names) - {"codemapper"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_gitio_starts_processes(path):
    """gitio is the one door to git: no other module imports subprocess."""
    if path.name != "gitio.py":
        assert "subprocess" not in imported_modules(path)
