"""Shared fixtures: scripted git repositories and git wrappers for tests."""

import shutil

import pytest
from hypothesis import settings

from codemapper.fixtures import RepoBuilder

# Every run tries the same examples, and a property test that spawns git is
# not failed by hypothesis's 200 ms default deadline on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def repo_builder(tmp_path):
    return RepoBuilder(tmp_path / "repo")


@pytest.fixture
def git_wrapper(tmp_path):
    """Factory for a git to set as CODEMAPPER_GIT, the one way to choose
    codemapper's git: a shell script that runs `body`, then execs the real
    git with the same arguments."""

    def make(body: str, name: str = "git-wrapper") -> str:
        script = tmp_path / name
        script.write_text(
            f'#!/bin/sh\n{body}\nexec "{shutil.which("git")}" "$@"\n', encoding="utf-8"
        )
        script.chmod(0o755)
        return str(script)

    return make
