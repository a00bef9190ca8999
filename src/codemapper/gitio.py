"""All interaction with a git repository.

Content retrieval, word-level diff reports under four algorithms, and
rename tracking of the containing file. One `git cat-file --batch` process
resolves both commits and reads the file at each; the four diffs, one per
algorithm, run concurrently. A word report's @@ headers are those of the
plain line diff, so one diff per algorithm gives both the line hunks and
their intra-line fragments. Requires a `git` executable on PATH
(override with the CODEMAPPER_GIT environment variable or the `git_bin`
argument).
"""

import os
import subprocess
import tempfile
from dataclasses import dataclass, field
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
    because safe.directory lives there; `codemapper.fixtures` builds its
    repositories under this environment too.
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
class GitObject:
    """One answer of `git cat-file --batch`: `type` is "missing" when the
    name does not resolve, and `text` is a text blob's normalized content
    (None for a binary blob or any other type)."""

    oid: str | None
    type: str
    text: str | None = field(default=None, repr=False)


MISSING = GitObject(None, "missing")


def git_executable(git_bin: str | None) -> str:
    """The git to run: `git_bin`, else $CODEMAPPER_GIT, else `git` on PATH."""
    return git_bin or os.environ.get(GIT_ENV_VAR) or "git"


class GitGateway:
    """Read-only access to one repository via the git executable."""

    def __init__(self, repo, git_bin: str | None = None):
        self.repo = Path(repo)
        self.git = git_executable(git_bin)

    def _run(self, args, *, ok=(0,)) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run([self.git, *args], cwd=self.repo, capture_output=True)
        except OSError as exc:
            raise RepoError(f"cannot run {self.git}: {exc}") from exc
        if proc.returncode not in ok:
            raise RepoError(_failure(args[0], proc.returncode, proc.stderr))
        return proc

    def _start(self, args, *, stdin=None, cwd=None, env=None) -> subprocess.Popen:
        try:
            return subprocess.Popen(
                [self.git, *args],
                cwd=cwd or self.repo,
                env=env,
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise RepoError(f"cannot run {self.git}: {exc}") from exc

    def read_objects(self, names) -> list[GitObject]:
        """Look up every object name with one `git cat-file --batch`.

        Each blob is decoded and NUL-checked as soon as it is read, and only
        its text is kept. All names are written before any answer is read,
        so together they must fit a pipe buffer; a few paths do.
        """
        for name in names:
            if "\n" in name:
                raise RepoError(f"object name {name!r} contains a newline")
        proc = self._start(["cat-file", "--batch"], stdin=subprocess.PIPE)
        objects: list[GitObject] = []
        try:
            try:
                with proc.stdin:
                    proc.stdin.write(os.fsencode("".join(f"{name}\n" for name in names)))
            except BrokenPipeError:
                pass  # cat-file exited early; the short read below reports why
            for _ in names:
                obj = _read_object(proc.stdout)
                if obj is None:
                    break
                objects.append(obj)
        finally:
            # Closing stdout first stops a cat-file that is still writing.
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
            code = proc.wait()
        if len(objects) < len(names) or code != 0:
            raise RepoError(_failure("cat-file", code, stderr))
        return objects

    def _commit_hash(self, obj: GitObject, committish: str) -> str:
        if obj.type != "commit":
            raise RepoError(f"unknown commit {committish!r} in {self.repo}")
        return obj.oid

    def read_endpoints(self, source_commit: str, path: str, target_commit: str):
        """Both commits and `path` at each, from one `cat-file --batch`.

        Returns (source hash, target hash, source text, target object); the
        target object is not a blob when `path` is not a file there. Raises
        RepoError for an unknown source, then target, commit, then NotFound
        or BinaryFile for the source file.
        """
        src, tgt, source_blob, target = self.read_objects(
            [
                f"{source_commit}^{{commit}}",
                f"{target_commit}^{{commit}}",
                f"{source_commit}:{path}",
                f"{target_commit}:{path}",
            ]
        )
        source_sha = self._commit_hash(src, source_commit)
        target_sha = self._commit_hash(tgt, target_commit)
        return source_sha, target_sha, blob_text(source_blob, source_sha, path), target

    def file_content(self, commit: str, path: str) -> str:
        """Newline-normalized text of `path` at `commit`."""
        (obj,) = self.read_objects([f"{commit}:{path}"])
        return blob_text(obj, commit, path)

    # -- rename tracking ---------------------------------------------------

    def follow_rename(self, src: str, path: str, tgt: str) -> tuple[str | None, GitObject]:
        """The file that `path` at commit `src` was renamed to at commit
        `tgt`, in either time direction, with its object there; (None,
        MISSING) if no rename leads to a file. Both commits are hashes."""
        for find in (self._chained_rename, self._endpoint_rename):
            name = find(src, path, tgt)
            if name:
                (obj,) = self.read_objects([f"{tgt}:{name}"])
                if obj.type == "blob":
                    return name, obj
        return None, MISSING

    def _is_ancestor(self, ancestor: str, descendant: str) -> bool:
        proc = self._run(["merge-base", "--is-ancestor", ancestor, descendant], ok=(0, 1))
        return proc.returncode == 0

    def _rename_pairs(self, range_spec: str, *, chronological: bool) -> list[tuple[str, str]]:
        args = ["log", "--format=", "--name-status", "-z", "--diff-filter=R", "-M", range_spec]
        if chronological:
            args.insert(1, "--reverse")
        return _renames(self._run(args).stdout)

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
        proc = self._run(
            ["diff", *DIFF_ISOLATION, "--name-status", "-z", "--find-renames", src, tgt]
        )
        return next((new for old, new in _renames(proc.stdout) if old == path), None)

    # -- diff reports --------------------------------------------------------

    def diff_texts(
        self, source_text: str, target_text: str, algorithms=ALL_CONFIGS
    ) -> list[str]:
        """Porcelain word diff of two normalized texts under each algorithm;
        deduplicated by text, in algorithm order.

        The diffs run concurrently and are collected in algorithm order.
        Identical texts yield no reports. Hunks carry no context lines, so
        line numbers come straight from the @@ headers. Exit status 1 with
        no output is a git failure, not an empty diff.
        """
        source_text = normalize_newlines(source_text)
        target_text = normalize_newlines(target_text)
        env = _diff_env()
        reports: list[str] = []
        with tempfile.TemporaryDirectory(prefix="codemapper-") as tmp:
            tmp_path = Path(tmp)
            (tmp_path / "a").write_text(source_text, encoding="utf-8")
            (tmp_path / "b").write_text(target_text, encoding="utf-8")
            started: list[tuple[Algorithm, subprocess.Popen]] = []
            try:
                for algorithm in algorithms:
                    args = [
                        "diff",
                        *DIFF_ISOLATION,
                        "--no-index",
                        "--no-color",
                        "--unified=0",
                        "--indent-heuristic",
                        f"--diff-algorithm={algorithm.value}",
                        "--word-diff=porcelain",
                        f"--word-diff-regex={WORD_DIFF_REGEX}",
                        "--",
                        "a",
                        "b",
                    ]
                    try:
                        proc = self._start(args, cwd=tmp_path, env=env)
                    except RepoError as exc:
                        raise DiffToolFailure(str(exc)) from exc
                    started.append((algorithm, proc))
                for algorithm, proc in started:
                    stdout, stderr = proc.communicate()
                    if proc.returncode == 0:
                        continue
                    if proc.returncode != 1:
                        raise DiffToolFailure(_failure("diff", proc.returncode, stderr))
                    if not stdout:
                        raise DiffToolFailure(
                            f"git diff --diff-algorithm={algorithm.value} reported a "
                            "difference but printed no diff"
                        )
                    text = stdout.decode("utf-8", errors="replace")
                    if text not in reports:
                        reports.append(text)
            finally:
                # A failed diff leaves the others running; none may outlive
                # the call or the directory they read.
                for _, proc in started:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()
                    proc.stdout.close()
                    proc.stderr.close()
        return reports


def _renames(output: bytes) -> list[tuple[str, str]]:
    """(old, new) paths of the renames in `--name-status -z` output.

    Each entry is a status field and one path, or two for a rename or copy,
    all NUL-terminated; paths are raw bytes, never C-quoted, whatever the
    caller's core.quotePath says.
    """
    fields = os.fsdecode(output).split("\0")
    pairs = []
    i = 0
    while i + 1 < len(fields):
        status = fields[i]
        if status.startswith("R"):
            pairs.append((fields[i + 1], fields[i + 2]))
        i += 3 if status.startswith(("R", "C")) else 2
    return pairs


def _failure(command: str, code: int, stderr: bytes) -> str:
    return f"git {command} failed ({code}): {stderr.decode('utf-8', errors='replace').strip()}"


def _read_object(stream) -> GitObject | None:
    """The next answer on a `cat-file --batch` stream; None if the stream
    ends before the answer does."""
    header = stream.readline()
    fields = header.split()
    if not header.endswith(b"\n") or not fields:
        return None
    if fields[-1] in (b"missing", b"ambiguous"):
        return MISSING
    if len(fields) != 3 or not fields[2].isdigit():
        raise RepoError(f"unexpected git cat-file output: {header!r}")
    oid, kind, size = fields[0].decode(), fields[1].decode(), int(fields[2])
    data = stream.read(size)
    if len(data) < size or stream.read(1) != b"\n":
        return None
    if kind != "blob" or b"\x00" in data:
        return GitObject(oid, kind)
    return GitObject(oid, kind, normalize_newlines(data.decode("utf-8", errors="replace")))


def blob_text(obj: GitObject, commit: str, path: str) -> str:
    """Text of the object read for `commit:path`; NotFound unless it is a
    file, BinaryFile if the file is binary."""
    if obj.type == "missing":
        raise NotFound(f"{path!r} does not exist at {commit}")
    if obj.type != "blob":
        raise NotFound(f"{path!r} is a {obj.type}, not a file, at {commit}")
    if obj.text is None:
        raise BinaryFile(f"{path!r} at {commit} is binary")
    return obj.text
