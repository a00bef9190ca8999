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


ENVIRONMENT = {"environ", "environb", "getenv"}


def environment_reads(path: Path) -> list[int]:
    """Lines where `path` names `os.environ`, `os.environb` or `os.getenv`,
    as an attribute of `os` or imported from it."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_environment_reads_are_found():
    assert environment_reads(SOURCES[0].parent / "gitio.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_gitio_reads_the_environment(path):
    """gitio alone decides what of the caller's environment git sees: no
    other module reads the process environment."""
    if path.name != "gitio.py":
        lines = environment_reads(path)
        assert not lines, f"{path.name} reads the environment at lines {lines}"
