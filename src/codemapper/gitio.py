"""All interaction with a git repository.

Content retrieval, word-level diff reports under four algorithms, and
rename tracking of the containing file. A word report's @@ headers are
those of the plain line diff, so one diff per algorithm gives both the line
hunks and their intra-line fragments. Requires a `git` executable on PATH
(override with the CODEMAPPER_GIT environment variable or the `git_bin`
argument).
"""

import os
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from codemapper.regions import normalize_newlines

GIT_ENV_VAR = "CODEMAPPER_GIT"

# Words are runs of identifier characters or single non-space characters, so
# intra-line fragments split at punctuation ("values.old" -> "values", ".",
# "old") instead of at whitespace only.
WORD_DIFF_REGEX = "[[:alnum:]_]+|[^[:space:]]"

# A caller's GIT_EXTERNAL_DIFF, diff.external or textconv config would
# replace git's own output (an external tool that prints nothing leaves an
# empty report), so every `git diff` turns both off.
DIFF_ISOLATION = ("--no-ext-diff", "--no-textconv")


def _diff_env() -> dict[str, str]:
    """The caller's environment without its system, global or
    environment-passed git config, and with a pinned UTF-8 locale.

    Config such as diff.interHunkContext reshapes the hunks of `diff
    --no-index`, so diffs run without it. Under a byte locale the word
    regex's [[:alnum:]] stops at non-ASCII letters and splits identifiers
    such as `naïve_value`. Repository commands keep the caller's config,
    because safe.directory lives there.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_CONFIG")}
    return {
        **env,
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_CONFIG_GLOBAL": os.devnull,
        "LC_ALL": "C.UTF-8",
    }


class RepoError(RuntimeError):
    """Git invocation failed or the repository is unusable."""


class NotFound(RepoError):
    """The path does not exist at the given commit."""


class BinaryFile(RepoError):
    """The blob is binary; mapping is defined for text files only."""


class DiffToolFailure(RepoError):
    """git diff exited abnormally; carries the captured diagnostics."""


class Algorithm(str, Enum):
    MYERS = "myers"
    MINIMAL = "minimal"
    PATIENCE = "patience"
    HISTOGRAM = "histogram"


ALL_CONFIGS: tuple[Algorithm, ...] = tuple(Algorithm)


@dataclass(frozen=True)
class RawDiffReport:
    algorithm: Algorithm
    text: str


def git_executable(git_bin: str | None) -> str:
    """The git to run: `git_bin`, else $CODEMAPPER_GIT, else `git` on PATH."""
    return git_bin or os.environ.get(GIT_ENV_VAR) or "git"


class GitGateway:
    """Read-only access to one repository via the git executable."""

    def __init__(self, repo, git_bin: str | None = None):
        self.repo = Path(repo)
        self.git = git_executable(git_bin)
        self._rev_cache: dict[str, str] = {}

    def _run(self, args, *, ok=(0,), cwd=None, env=None) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(
                [self.git, *args],
                cwd=cwd or self.repo,
                env=env,
                capture_output=True,
            )
        except (OSError, FileNotFoundError) as exc:
            raise RepoError(f"cannot run {self.git}: {exc}") from exc
        if proc.returncode not in ok:
            stderr = proc.stderr.decode("utf-8", errors="replace").strip()
            raise RepoError(f"git {args[0]} failed ({proc.returncode}): {stderr}")
        return proc

    def rev_parse(self, committish: str) -> str:
        """Full hash of a commit-ish; RepoError if it does not resolve."""
        cached = self._rev_cache.get(committish)
        if cached:
            return cached
        proc = self._run(["rev-parse", "--verify", "--quiet", f"{committish}^{{commit}}"], ok=(0, 1))
        if proc.returncode != 0:
            raise RepoError(f"unknown commit {committish!r} in {self.repo}")
        sha = proc.stdout.decode().strip()
        self._rev_cache[committish] = sha
        return sha

    def file_exists(self, commit: str, path: str) -> bool:
        proc = self._run(["cat-file", "-e", f"{commit}:{path}"], ok=(0, 1, 128))
        return proc.returncode == 0

    def file_content(self, commit: str, path: str) -> str:
        """Newline-normalized text of `path` at `commit`."""
        proc = self._run(["show", f"{commit}:{path}"], ok=(0, 128))
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", errors="replace")
            if "does not exist" in stderr or "but not in" in stderr:
                raise NotFound(f"{path!r} does not exist at {commit}")
            raise RepoError(f"git show {commit}:{path} failed: {stderr.strip()}")
        data = proc.stdout
        if b"\x00" in data:
            raise BinaryFile(f"{path!r} at {commit} is binary")
        return normalize_newlines(data.decode("utf-8", errors="replace"))

    # -- rename tracking ---------------------------------------------------

    def resolve_target_file(self, source_commit: str, source_file: str, target_commit: str):
        """Path of the same logical file at `target_commit`, following
        renames in either time direction; None if it has none."""
        src = self.rev_parse(source_commit)
        tgt = self.rev_parse(target_commit)
        if self.file_exists(tgt, source_file):
            return source_file
        for name in (
            self._chained_rename(src, source_file, tgt),
            self._endpoint_rename(src, source_file, tgt),
        ):
            if name and self.file_exists(tgt, name):
                return name
        return None

    def _is_ancestor(self, ancestor: str, descendant: str) -> bool:
        proc = self._run(["merge-base", "--is-ancestor", ancestor, descendant], ok=(0, 1))
        return proc.returncode == 0

    def _rename_pairs(self, range_spec: str, *, chronological: bool) -> list[tuple[str, str]]:
        args = ["log", "--format=%H", "--name-status", "--diff-filter=R", "-M", range_spec]
        if chronological:
            args.insert(1, "--reverse")
        proc = self._run(args)
        pairs = []
        for line in proc.stdout.decode("utf-8", errors="replace").splitlines():
            fields = line.split("\t")
            if len(fields) == 3 and fields[0].startswith("R"):
                pairs.append((fields[1], fields[2]))
        return pairs

    def _chained_rename(self, src: str, path: str, tgt: str) -> str | None:
        if self._is_ancestor(src, tgt):
            current = path
            for old, new in self._rename_pairs(f"{src}..{tgt}", chronological=True):
                if old == current:
                    current = new
            return current if current != path else None
        if self._is_ancestor(tgt, src):
            current = path
            for old, new in self._rename_pairs(f"{tgt}..{src}", chronological=False):
                if new == current:
                    current = old
            return current if current != path else None
        return None

    def _endpoint_rename(self, src: str, path: str, tgt: str) -> str | None:
        proc = self._run(["diff", *DIFF_ISOLATION, "--name-status", "--find-renames", src, tgt])
        for line in proc.stdout.decode("utf-8", errors="replace").splitlines():
            fields = line.split("\t")
            if len(fields) == 3 and fields[0].startswith("R") and fields[1] == path:
                return fields[2]
        return None

    # -- diff reports --------------------------------------------------------

    def diff_texts(
        self, source_text: str, target_text: str, algorithms=ALL_CONFIGS
    ) -> list[RawDiffReport]:
        """Porcelain word diff of two normalized texts under each algorithm;
        deduplicated by text.

        Identical texts yield no reports. Hunks carry no context lines, so
        line numbers come straight from the @@ headers. Exit status 1 with
        no output is a git failure, not an empty diff.
        """
        source_text = normalize_newlines(source_text)
        target_text = normalize_newlines(target_text)
        env = _diff_env()
        reports: list[RawDiffReport] = []
        seen: set[str] = set()
        with tempfile.TemporaryDirectory(prefix="codemapper-") as tmp:
            tmp_path = Path(tmp)
            (tmp_path / "a").write_text(source_text, encoding="utf-8")
            (tmp_path / "b").write_text(target_text, encoding="utf-8")
            for algorithm in algorithms:
                args = [
                    "diff",
                    *DIFF_ISOLATION,
                    "--no-index",
                    "--no-color",
                    "--unified=0",
                    f"--diff-algorithm={algorithm.value}",
                    "--word-diff=porcelain",
                    f"--word-diff-regex={WORD_DIFF_REGEX}",
                    "--",
                    "a",
                    "b",
                ]
                try:
                    proc = self._run(args, ok=(0, 1), cwd=tmp_path, env=env)
                except RepoError as exc:
                    raise DiffToolFailure(str(exc)) from exc
                if proc.returncode == 0:
                    continue
                if not proc.stdout:
                    raise DiffToolFailure(
                        f"git diff --diff-algorithm={algorithm.value} reported a "
                        "difference but printed no diff"
                    )
                text = proc.stdout.decode("utf-8", errors="replace")
                if text in seen:
                    continue
                seen.add(text)
                reports.append(RawDiffReport(algorithm, text))
        return reports
