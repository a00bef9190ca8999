"""Shared helpers: scripted git repositories for integration tests."""

import shutil
from pathlib import Path

import pytest
from hypothesis import settings

from codemapper.fixtures import _git

# Every run tries the same examples, and a property test that spawns git is
# not failed by hypothesis's 200 ms default deadline on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class RepoBuilder:
    """Builds a throwaway git repository commit by commit, with git run as
    the fixture corpus runs it: the caller's git config does not apply."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        _git(self.path, "init", "-q", "-b", "main")
        _git(self.path, "config", "user.email", "fixtures@example.com")
        _git(self.path, "config", "user.name", "Fixture Builder")
        self.commits: list[str] = []

    def commit(self, files: dict[str, str | None], message: str = "change") -> str:
        """Write/remove the given files and commit; returns the commit hash."""
        for name, content in files.items():
            target = self.path / name
            if content is None:
                target.unlink()
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
        _git(self.path, "add", "-A")
        _git(self.path, "commit", "-q", "-m", message, "--allow-empty")
        sha = _git(self.path, "rev-parse", "HEAD").strip()
        self.commits.append(sha)
        return sha

    def commit_binary(self, name: str, data: bytes, message: str = "binary") -> str:
        (self.path / name).write_bytes(data)
        _git(self.path, "add", "-A")
        _git(self.path, "commit", "-q", "-m", message)
        sha = _git(self.path, "rev-parse", "HEAD").strip()
        self.commits.append(sha)
        return sha


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
