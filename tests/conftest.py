"""Shared helpers: scripted git repositories for integration tests."""

import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import settings

# Every run tries the same examples, and a property test that spawns git is
# not failed by hypothesis's 200 ms default deadline on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class RepoBuilder:
    """Builds a throwaway git repository commit by commit."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._git("init", "-q", "-b", "main")
        self._git("config", "user.email", "fixtures@example.com")
        self._git("config", "user.name", "Fixture Builder")
        self.commits: list[str] = []

    def _git(self, *args) -> str:
        proc = subprocess.run(
            ["git", *args], cwd=self.path, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr}")
        return proc.stdout

    def commit(self, files: dict[str, str | None], message: str = "change") -> str:
        """Write/remove the given files and commit; returns the commit hash."""
        for name, content in files.items():
            target = self.path / name
            if content is None:
                target.unlink()
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
        self._git("add", "-A")
        self._git("commit", "-q", "-m", message, "--allow-empty")
        sha = self._git("rev-parse", "HEAD").strip()
        self.commits.append(sha)
        return sha

    def commit_binary(self, name: str, data: bytes, message: str = "binary") -> str:
        (self.path / name).write_bytes(data)
        self._git("add", "-A")
        self._git("commit", "-q", "-m", message)
        sha = self._git("rev-parse", "HEAD").strip()
        self.commits.append(sha)
        return sha


@pytest.fixture
def repo_builder(tmp_path):
    return RepoBuilder(tmp_path / "repo")


@pytest.fixture
def git_wrapper(tmp_path):
    """Factory for a `git_bin`: a shell script that runs `body`, then execs
    the real git with the same arguments."""

    def make(body: str, name: str = "git-wrapper") -> str:
        script = tmp_path / name
        script.write_text(
            f'#!/bin/sh\n{body}\nexec "{shutil.which("git")}" "$@"\n', encoding="utf-8"
        )
        script.chmod(0o755)
        return str(script)

    return make
