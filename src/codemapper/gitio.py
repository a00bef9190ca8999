"""All interaction with a git repository, and the only module that runs git.

Content retrieval, word-level diff reports under four algorithms, and
rename tracking of the containing file. Every git process is started by
`_start` and judged by `_finish` (together, `run_git`): a git that cannot be
started, or whose exit code is not the one expected, is a RepoError, never
an answer. Every `--name-status -z` listing is read by `_name_status`, which
refuses what is not one. Each repository gets one
long-lived `git cat-file --batch` reader that resolves commits and reads
files for every mapping until the interpreter exits, so git's delta-base
cache stays warm across mappings. The rename pairs of each commit that
rename tracking had to ask `-M` about live as long as that reader, so a
config change made mid-process (diff.renameLimit, say) is not seen, as
with the reader. The four diffs, one per algorithm, run at most one per
usable CPU at a time. A word report's @@ headers are those of the plain
line diff, so one diff per algorithm gives both the line hunks and their
intra-line fragments; identical texts give one empty report, with no git
diff run. The CODEMAPPER_GIT environment variable chooses the git
executable; without it, `git` on PATH runs.
"""

import atexit
import os
import re
import subprocess
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from stat import S_ISDIR

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
    because safe.directory lives there; `codemapper.fixtures.RepoBuilder`
    builds every corpus and test repository under this environment too.
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


def git_executable() -> str:
    """The git to run: $CODEMAPPER_GIT, else `git` on PATH."""
    return os.environ.get(GIT_ENV_VAR) or "git"


def _start(git: str, args, cwd, *, env=None, stdin=None, stderr=subprocess.PIPE):
    """Start `git args` in `cwd` with stdout piped; the one place codemapper
    starts a process. A git that cannot be started is a RepoError."""
    try:
        return subprocess.Popen(
            [git, *args], cwd=cwd, env=env, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr
        )
    except OSError as exc:
        raise RepoError(f"cannot run {git}: {exc}") from exc


def _finish(proc, what: str, ok=(0,), error=RepoError) -> bytes:
    """Wait for `proc` and return its stdout; `error`, carrying the exit
    code and stderr, unless the exit code is in `ok`."""
    stdout, stderr = proc.communicate()
    if proc.returncode not in ok:
        raise error(_failure(what, proc.returncode, stderr))
    return stdout


def run_git(args, cwd=None, *, env=None, ok=(0,)) -> bytes:
    """Run `git args` in `cwd` to the end; its stdout. RepoError if git
    cannot be started or exits with a code not in `ok`."""
    with _start(git_executable(), args, cwd, env=env) as proc:
        return _finish(proc, args[0], ok)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity set where
    the platform has one), at least 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return max(1, len(affinity(0)) if affinity else os.cpu_count() or 1)


# -- long-lived object readers -------------------------------------------------

# Readers kept at once, one per (repository, git, GIT_* environment); above
# the fixture corpus's 10 repositories. The least recently used is reaped.
MAX_READERS = 16


class _Reader:
    """One `git cat-file --batch` process; `lock` lets one batch at a time
    through. `renames` holds, per commit hash, the (old, new) renames that
    `git log -M` reports for that commit; it lives and dies with the
    reader."""

    def __init__(self, key: tuple, git: str, identity: tuple):
        self.key = key
        self.identity = identity
        self.lock = threading.Lock()
        self.answered = False
        self.renames: dict[str, list[tuple[str, str]]] = {}
        # A file, not a pipe: nothing reads stderr while the reader lives,
        # and a warning per lookup (an ambiguous ref name) would fill a pipe
        # and stall cat-file.
        self.stderr = tempfile.TemporaryFile()
        try:
            self.proc = _start(
                git, ["cat-file", "--batch"], key[0], stdin=subprocess.PIPE, stderr=self.stderr
            )
        except RepoError:
            self.stderr.close()
            raise

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
        raise RepoError(f"no repository directory at {path}: {exc.strerror}") from exc
    if not S_ISDIR(stat.st_mode):
        raise RepoError(f"no repository directory at {path}: not a directory")
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

    def __init__(self, repo):
        self.repo = Path(repo)
        self.git = git_executable()

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

    def _commit_renames(self, commit: str) -> list[tuple[str, str]]:
        """The (old, new) renames `git log -M` reports for `commit`, in its
        order; asked once per commit while the repository's reader lives."""
        cache = _checkout(self.repo, self.git).renames
        pairs = cache.get(commit)
        if pairs is None:
            args = ["log", "--no-walk", "-M", "--diff-filter=R", "--name-status", "-z", "--format=", commit]
            listing = _name_status(run_git(args, self.repo))
            pairs = [tuple(paths) for _, status, paths in listing if status[0] == "R"]
            cache[commit] = pairs
        return pairs

    def _chained_rename(self, src: str, path: str, tgt: str) -> str | None:
        """Follow `path` through the renames between two commits when one is
        an ancestor of the other.

        A rename old -> new deletes old and adds new in the `--no-renames`
        view, so one cheap listing of the deletions (going forward) or
        additions (going backward) per commit finds the commits that can
        move the followed path; only those are asked for their renames.
        Merges show no diff in either view.
        """
        # One merge base answers both directions: an ancestor is its own
        # merge base with a descendant. Exit 1 with no output: unrelated.
        base = run_git(["merge-base", src, tgt], self.repo, ok=(0, 1)).decode().strip()
        if base not in (src, tgt):
            return None
        forward = base == src
        args = ["log", "--no-renames", "--name-status", "-z", "--format=%x01%H"]
        if forward:
            args += ["--reverse", "--diff-filter=D", f"{src}..{tgt}"]
        else:
            args += ["--diff-filter=A", f"{tgt}..{src}"]
        current = path
        # One path per entry, deleted (or added) by its commit, so no later
        # entry of that commit names the path a rename just led to.
        for commit, _, paths in _name_status(run_git(args, self.repo)):
            if paths == [current]:
                for pair in self._commit_renames(commit):
                    before, after = pair if forward else pair[::-1]
                    if before == current:
                        current = after
        return current if current != path else None

    def _endpoint_rename(self, src: str, path: str, tgt: str) -> str | None:
        args = ["diff", *DIFF_ISOLATION, "--name-status", "-z", "--find-renames", src, tgt]
        listing = _name_status(run_git(args, self.repo))
        news = [paths[1] for _, status, paths in listing if status[0] == "R" and paths[0] == path]
        return news[0] if news else None

    # -- diff reports --------------------------------------------------------

    def diff_texts(
        self, source_text: str, target_text: str, algorithms=ALL_CONFIGS
    ) -> list[str]:
        """Porcelain word diff of two normalized texts under each algorithm;
        deduplicated by text, in algorithm order.

        At most one diff per usable CPU runs at a time: the next starts once
        the oldest running one has been collected, so more diffs than CPUs
        would only share them. Identical texts yield one empty report, without
        starting git. Hunks carry no context lines, so line numbers come
        straight from the @@ headers. The texts differ, so any exit status but 1, or exit status 1 with no
        output, is a git failure, not an empty diff.
        """
        source_text = normalize_newlines(source_text)
        target_text = normalize_newlines(target_text)
        if source_text == target_text:
            return [""]
        algorithms = tuple(algorithms)
        width = _usable_cpus()
        env = _diff_env()
        reports: list[str] = []
        with tempfile.TemporaryDirectory(prefix="codemapper-") as tmp:
            tmp_path = Path(tmp)
            (tmp_path / "a").write_text(source_text, encoding="utf-8")
            (tmp_path / "b").write_text(target_text, encoding="utf-8")
            started: list[subprocess.Popen] = []
            try:
                for i, algorithm in enumerate(algorithms):
                    while len(started) < min(i + width, len(algorithms)):
                        started.append(self._start_diff(algorithms[len(started)], tmp_path, env))
                    stdout = _finish(started[i], "diff", (1,), DiffToolFailure)
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
                for proc in started:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()
                    proc.stdout.close()
                    proc.stderr.close()
        return reports

    def _start_diff(self, algorithm: Algorithm, workdir: Path, env) -> subprocess.Popen:
        """Start the word diff of `a` against `b` in `workdir`."""
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
        return _start(self.git, args, workdir, env=env)


# A git status letter, with a score after a rename or copy (R100, C075).
_STATUS = re.compile(r"[ACDMRTUXB][0-9]*")


def _name_status(output: bytes):
    """(commit, status, paths) per entry of `--name-status -z` output, in
    order; `commit` is the hash of the latest \\x01-marked header before the
    entry (`git log --format=%x01%H`), None before any.

    Every field is NUL-terminated: a status, then one path, or two for a
    rename or copy; the newline that ends a header starts the next field.
    Paths are raw bytes, never C-quoted, whatever the caller's
    core.quotePath says. Fields are read by position, so a path is never
    taken for a status or a header. A status git does not print, or a
    listing cut short, raises RepoError.
    """
    fields = os.fsdecode(output).split("\0")
    if fields.pop():
        raise RepoError(f"git --name-status listing is cut short: {output[-80:]!r}")
    commit = None
    i = 0
    while i < len(fields):
        status = fields[i].removeprefix("\n")
        i += 1
        if status.startswith("\x01"):
            commit = status[1:]
            continue
        if not _STATUS.fullmatch(status):
            raise RepoError(f"unexpected git --name-status status: {status!r}")
        end = i + (2 if status[0] in "RC" else 1)
        if end > len(fields):
            raise RepoError(f"git --name-status listing is cut short after {status!r}")
        yield commit, status, fields[i:end]
        i = end


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
