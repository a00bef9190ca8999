"""All interaction with a git repository.

Content retrieval, word-level diff reports under four algorithms, and
rename tracking of the containing file. Each repository gets one
long-lived `git cat-file --batch` reader that resolves commits and reads
files for every mapping until the interpreter exits, so git's delta-base
cache stays warm across mappings; the four diffs, one per algorithm, run
concurrently. A word report's @@ headers are those of the plain line diff,
so one diff per algorithm gives both the line hunks and their intra-line
fragments. Requires a `git` executable on PATH (override with the
CODEMAPPER_GIT environment variable or the `git_bin` argument).
"""

import atexit
import os
import subprocess
import tempfile
import threading
from collections import OrderedDict
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


# -- long-lived object readers -------------------------------------------------

# Readers kept at once, one per (repository, git, GIT_* environment); above
# the fixture corpus's 10 repositories. The least recently used is reaped.
MAX_READERS = 16


class _Reader:
    """One `git cat-file --batch` process; `lock` lets one batch at a time
    through."""

    def __init__(self, key: tuple, git: str, identity: tuple):
        self.key = key
        self.identity = identity
        self.lock = threading.Lock()
        self.answered = False
        # A file, not a pipe: nothing reads stderr while the reader lives,
        # and a warning per lookup (an ambiguous ref name) would fill a pipe
        # and stall cat-file.
        self.stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                [git, "cat-file", "--batch"],
                cwd=key[0],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self.stderr,
            )
        except OSError as exc:
            self.stderr.close()
            raise RepoError(f"cannot run {git}: {exc}") from exc

    def ask(self, request: bytes, count: int) -> list[GitObject] | None:
        """The answers to `count` newline-terminated names; None if cat-file
        stops short."""
        try:
            self.proc.stdin.write(request)
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None  # cat-file has exited; close() reports why
        objects = []
        for _ in range(count):
            obj = _read_object(self.proc.stdout)
            if obj is None:
                return None
            objects.append(obj)
        return objects

    def close(self) -> str:
        """Reap cat-file; returns its exit code and stderr as a failure text."""
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()  # closing stdout stops a cat-file still writing
            except OSError:
                pass  # names left unflushed when cat-file had already exited
        code = self.proc.wait()
        self.stderr.seek(0)
        failure = _failure("cat-file", code, self.stderr.read())
        self.stderr.close()
        return failure


_readers: "OrderedDict[tuple, _Reader]" = OrderedDict()
_readers_lock = threading.Lock()


def _checkout(repo: Path, git: str) -> _Reader:
    """The reader for `repo`, started if there is none or if the directory
    at that path is not the one it was started in.

    A running reader keeps the repository directory it runs in from being
    freed, so a repository re-created at the same path has a new inode.
    """
    path = os.path.abspath(repo)
    key = (path, git, tuple(sorted(kv for kv in os.environ.items() if kv[0].startswith("GIT_"))))
    try:
        stat = os.stat(path)
    except OSError as exc:
        raise RepoError(f"cannot run {git}: {exc}") from exc
    identity = (stat.st_dev, stat.st_ino)
    reaped = []
    try:
        with _readers_lock:
            reader = _readers.get(key)
            if reader is not None and reader.identity != identity:
                reaped.append(_readers.pop(key))
                reader = None
            if reader is None:
                reader = _readers[key] = _Reader(key, git, identity)
                while len(_readers) > MAX_READERS:
                    reaped.append(_readers.popitem(last=False)[1])
            else:
                _readers.move_to_end(key)
    finally:
        for old in reaped:
            with old.lock:
                old.close()
    return reader


def _discard(reader: _Reader) -> str:
    """Drop `reader` from the table and reap it; returns its failure text."""
    with _readers_lock:
        if _readers.get(reader.key) is reader:
            del _readers[reader.key]
    return reader.close()


@atexit.register
def _close_readers() -> None:
    """Close every reader's stdin and wait for it, so no cat-file outlives
    the interpreter."""
    with _readers_lock:
        readers = list(_readers.values())
        _readers.clear()
    for reader in readers:
        reader.close()


def _forget_readers() -> None:
    """In a forked child: leave the parent's readers to the parent.

    The child's copies of their pipe ends are pointed at /dev/null, so a
    parent's cat-file still sees EOF when the parent closes its own ends, and
    the child starts its own readers.
    """
    global _readers_lock
    _readers_lock = threading.Lock()
    devnull = os.open(os.devnull, os.O_RDWR)
    for reader in _readers.values():
        for stream in (reader.proc.stdin, reader.proc.stdout):
            if not stream.closed:
                os.dup2(devnull, stream.fileno())
    os.close(devnull)
    _readers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_readers)


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

    def read_objects(self, names) -> list[GitObject]:
        """Look up every object name with the repository's `git cat-file
        --batch` reader, which stays alive for later calls.

        Each blob is decoded and NUL-checked as soon as it is read, and only
        its text is kept. All names are written before any answer is read,
        so together they must fit a pipe buffer; a few paths do. A reader
        that stops short, answers out of form or is interrupted is reaped
        and dropped; a reader that had answered before (it may have died
        between calls) is replaced once before the call fails.
        """
        for name in names:
            if "\n" in name:
                raise RepoError(f"object name {name!r} contains a newline")
        request = os.fsencode("".join(f"{name}\n" for name in names))
        while True:
            reader = _checkout(self.repo, self.git)
            with reader.lock:
                if reader.proc.stdout.closed:
                    continue  # reaped by another thread since the checkout
                try:
                    objects = reader.ask(request, len(names))
                except BaseException:
                    _discard(reader)
                    raise
                if objects is not None:
                    reader.answered = True
                    return objects
                failure = _discard(reader)
            if not reader.answered:
                raise RepoError(failure)

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

    def _rename_pairs(self, range_spec: str, *, chronological: bool) -> list[tuple[str, str]]:
        args = ["log", "--format=", "--name-status", "-z", "--diff-filter=R", "-M", range_spec]
        if chronological:
            args.insert(1, "--reverse")
        return _renames(self._run(args).stdout)

    def _chained_rename(self, src: str, path: str, tgt: str) -> str | None:
        # One merge base answers both directions: an ancestor is its own
        # merge base with a descendant. Exit 1 with no output: unrelated.
        proc = self._run(["merge-base", src, tgt], ok=(0, 1))
        base = proc.stdout.decode().strip()
        if base == src:
            current = path
            for old, new in self._rename_pairs(f"{src}..{tgt}", chronological=True):
                if old == current:
                    current = new
            return current if current != path else None
        if base == tgt:
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
                        self.git,
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
                        proc = subprocess.Popen(
                            args,
                            cwd=tmp_path,
                            env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                        )
                    except OSError as exc:
                        raise DiffToolFailure(f"cannot run {self.git}: {exc}") from exc
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
