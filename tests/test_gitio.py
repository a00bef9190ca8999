"""Git gateway: content retrieval, rename resolution, diff reports."""

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import codemapper
from codemapper import gitio
from codemapper.diffparse import align, parse_word_diff
from codemapper.fixtures import RepoBuilder, _git, build_corpus
from codemapper.gitio import (
    ALL_CONFIGS,
    Algorithm,
    BinaryFile,
    DiffToolFailure,
    MISSING,
    GitGateway,
    NotFound,
    RepoError,
)
from codemapper.pipeline import map_region
from codemapper.regions import Region, make_range

BASE = "\n".join(f"line {i}" for i in range(1, 11)) + "\n"


def test_one_config_per_algorithm():
    assert len(ALL_CONFIGS) == 4
    assert set(ALL_CONFIGS) == set(Algorithm)


class TestFileContent:
    def test_exact_committed_bytes(self, repo_builder):
        sha = repo_builder.commit({"f.txt": BASE})
        gateway = GitGateway(repo_builder.path)
        assert gateway.file_content(sha, "f.txt") == BASE

    def test_crlf_normalized(self, repo_builder):
        sha = repo_builder.commit({"f.txt": "a\r\nb\r\n"})
        gateway = GitGateway(repo_builder.path)
        assert gateway.file_content(sha, "f.txt") == "a\nb\n"

    def test_empty_file(self, repo_builder):
        sha = repo_builder.commit({"f.txt": ""})
        assert GitGateway(repo_builder.path).file_content(sha, "f.txt") == ""

    def test_binary_rejected(self, repo_builder):
        sha = repo_builder.commit({"blob.bin": b"\x00\x01\x02"})
        with pytest.raises(BinaryFile):
            GitGateway(repo_builder.path).file_content(sha, "blob.bin")

    def test_missing_path(self, repo_builder):
        sha = repo_builder.commit({"f.txt": BASE})
        with pytest.raises(NotFound):
            GitGateway(repo_builder.path).file_content(sha, "nope.txt")

    def test_unknown_commit(self, repo_builder):
        sha = repo_builder.commit({"f.txt": BASE})
        gateway = GitGateway(repo_builder.path)
        unknown = "0" * 40
        # Errors come in order: source commit, target commit, source file.
        with pytest.raises(RepoError, match=f"unknown commit '{unknown}'"):
            gateway.read_endpoints(unknown, "nope.txt", unknown)
        with pytest.raises(RepoError, match=f"unknown commit '{unknown}'"):
            gateway.read_endpoints(sha, "nope.txt", unknown)
        with pytest.raises(NotFound):
            gateway.read_endpoints(sha, "nope.txt", sha)


class TestBatchRead:
    def test_one_answer_per_name(self, repo_builder):
        repo_builder.commit({"f.txt": BASE, "pkg/m.py": "x = 1\n"})
        sha = repo_builder.commit({"blob.bin": b"\x00\x01"})
        commit, text, binary, tree, missing = GitGateway(repo_builder.path).read_objects(
            [f"{sha}^{{commit}}", f"{sha}:f.txt", f"{sha}:blob.bin", f"{sha}:pkg", f"{sha}:nope"]
        )
        assert (commit.type, commit.oid) == ("commit", sha)
        assert (text.type, text.text) == ("blob", BASE)
        assert (binary.type, binary.text) == ("blob", None)
        assert (tree.type, tree.text) == ("tree", None)
        assert missing == MISSING

    def test_directory_is_not_a_file(self, repo_builder):
        sha = repo_builder.commit({"pkg/m.py": BASE})
        with pytest.raises(NotFound, match="'pkg' is a tree"):
            GitGateway(repo_builder.path).file_content(sha, "pkg")

    def test_newline_in_a_name_is_refused(self, repo_builder):
        sha = repo_builder.commit({"f.txt": BASE})
        with pytest.raises(RepoError, match="contains a newline"):
            GitGateway(repo_builder.path).file_content(sha, "f.txt\nHEAD")

    @pytest.mark.parametrize(
        "output", ["", "deadbeef blob 100\\ncut off", "deadbeef blob"], ids=["empty", "short", "header"]
    )
    def test_cut_off_answer_raises_with_exit_code_and_stderr(
        self, repo_builder, git_wrapper, tmp_path, monkeypatch, output
    ):
        sha = repo_builder.commit({"f.txt": BASE})
        # Only the first cat-file fails.
        failed = tmp_path / "failed"
        wrapper = git_wrapper(
            f'if [ "$1" = cat-file ] && [ ! -e "{failed}" ]; then\n'
            f'  touch "{failed}"; printf "{output}"; echo "disk on fire" >&2; exit 3\n'
            "fi"
        )
        monkeypatch.setenv("CODEMAPPER_GIT", wrapper)
        gateway = GitGateway(repo_builder.path)
        with pytest.raises(RepoError, match=r"git cat-file failed \(3\): disk on fire"):
            gateway.file_content(sha, "f.txt")
        assert _reader(repo_builder.path) is None  # reaped and dropped
        assert gateway.file_content(sha, "f.txt") == BASE
        assert _reader(repo_builder.path).proc.poll() is None


def _reader(repo) -> gitio._Reader | None:
    """The live reader table's entry for `repo`, if any."""
    path = os.path.abspath(repo)
    found = [reader for key, reader in gitio._readers.items() if key[0] == path]
    assert len(found) <= 1
    return found[0] if found else None


class TestReaderLifecycle:
    def test_later_commits_are_seen_by_the_same_reader(self, repo_builder):
        first = repo_builder.commit({"f.txt": BASE})
        gateway = GitGateway(repo_builder.path)
        assert gateway.file_content(first, "f.txt") == BASE
        pid = _reader(repo_builder.path).proc.pid
        for step in range(2):
            content = BASE + f"step {step}\n"
            sha = repo_builder.commit({"f.txt": content})
            for name in (sha, sha[:12], "HEAD", "main"):
                assert gateway.file_content(name, "f.txt") == content
            assert gateway.read_objects(["HEAD^{commit}"])[0].oid == sha
            _git(repo_builder.path, "pack-refs", "--all")
        assert _reader(repo_builder.path).proc.pid == pid

    def test_a_reader_killed_between_calls_is_replaced(self, repo_builder):
        sha = repo_builder.commit({"f.txt": BASE})
        gateway = GitGateway(repo_builder.path)
        gateway.file_content(sha, "f.txt")
        dead = _reader(repo_builder.path)
        dead.proc.kill()
        dead.proc.wait()
        assert gateway.file_content(sha, "f.txt") == BASE
        assert _reader(repo_builder.path) not in (None, dead)

    def test_the_least_recently_used_reader_is_reaped(self, tmp_path):
        repos = []
        for i in range(gitio.MAX_READERS + 1):
            builder = RepoBuilder(tmp_path / f"repo{i}")
            repos.append((builder.path, builder.commit({"f.txt": f"{i}\n"})))
        pids = []
        for path, sha in repos:
            assert GitGateway(path).file_content(sha, "f.txt") == f"{repos.index((path, sha))}\n"
            pids.append(_reader(path).proc.pid)
        assert _reader(repos[0][0]) is None
        with pytest.raises(ProcessLookupError):
            os.kill(pids[0], 0)
        assert all(_reader(path) is not None for path, _ in repos[1:])

    def test_threads_sharing_readers_get_their_own_answers(self, tmp_path, monkeypatch):
        # Three repositories over a two-reader table: threads share readers
        # while others evict them.
        monkeypatch.setattr(gitio, "MAX_READERS", 2)
        repos = []
        for i in range(3):
            builder = RepoBuilder(tmp_path / f"repo{i}")
            repos.append((builder.path, [builder.commit({"f.txt": f"{i} {v}\n" * v}) for v in range(1, 4)]))
        wrong = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    i, v = rng.randrange(3), rng.randrange(3)
                    path, shas = repos[i]
                    text = GitGateway(path).file_content(shas[v], "f.txt")
                    if text != f"{i} {v + 1}\n" * (v + 1):
                        wrong.append((i, v, text))
            except Exception as exc:  # reported below, from the main thread
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_a_re_created_repository_gets_a_new_reader(self, tmp_path):
        builder = RepoBuilder(tmp_path / "repo")
        sha = builder.commit({"f.txt": BASE})
        GitGateway(builder.path).file_content(sha, "f.txt")
        old = _reader(builder.path)
        shutil.rmtree(builder.path)
        builder = RepoBuilder(tmp_path / "repo")
        sha = builder.commit({"f.txt": "new\n"})
        assert GitGateway(builder.path).file_content(sha, "f.txt") == "new\n"
        assert old.proc.returncode is not None
        assert _reader(builder.path) is not old

    def test_a_forked_child_starts_its_own_reader(self, repo_builder):
        sha = repo_builder.commit({"f.txt": BASE})
        gateway = GitGateway(repo_builder.path)
        gateway.file_content(sha, "f.txt")
        parent_reader = _reader(repo_builder.path)
        release_r, release_w = os.pipe()
        child = os.fork()
        if child == 0:
            ok = False
            try:
                os.close(release_w)
                ok = gateway.file_content(sha, "f.txt") == BASE and _reader(
                    repo_builder.path
                ).proc.pid != parent_reader.proc.pid
                os.read(release_r, 1)  # outlive the parent's reader
            finally:
                os._exit(0 if ok else 1)
        os.close(release_r)
        try:
            assert gateway.file_content(sha, "f.txt") == BASE
            assert _reader(repo_builder.path) is parent_reader
            # The live child holds no copy of the reader's stdin, so
            # cat-file ends when the parent closes its own.
            parent_reader.proc.stdin.close()
            assert parent_reader.proc.wait(timeout=10) == 0
            gitio._discard(parent_reader)
        finally:
            os.close(release_w)
            _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_no_reader_outlives_the_interpreter(self, repo_builder, git_wrapper, tmp_path):
        # The wrapper's shell lingers a second after its cat-file ends, so
        # only a reader that was waited for is gone when the child is.
        log = tmp_path / "readers.log"
        wrapper = git_wrapper(
            f'if [ "$1" = cat-file ]; then echo $$ >> "{log}"; '
            f'"{shutil.which("git")}" "$@"; code=$?; sleep 1; exit $code; fi'
        )
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 5", "line FIVE")})
        script = (
            "import os, sys\n"
            "from codemapper.pipeline import map_region\n"
            "from codemapper.regions import Region, make_range\n"
            "repo, first, second, git = sys.argv[1:]\n"
            "os.environ['CODEMAPPER_GIT'] = git\n"
            "result = map_region(repo, Region(first, 'f.py', make_range(5, 1, 5, 4)), second)\n"
            "assert result.target.range == make_range(5, 1, 5, 4)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(codemapper.__file__).parent.parent)}
        subprocess.run(
            [sys.executable, "-c", script, str(repo_builder.path), first, second, wrapper],
            env=env, check=True, timeout=60,
        )
        (pid,) = log.read_text(encoding="utf-8").split()
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


class TestResolveTargetFile:
    """Which file at the target holds the source file's content."""

    @staticmethod
    def target_file(repo_builder, source_commit, path, target_commit):
        source = Region(source_commit, path, make_range(1, 1, 1, 4))
        return map_region(repo_builder.path, source, target_commit).target_file

    def test_unchanged_path(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE})
        second = repo_builder.commit({"a.py": BASE + "tail\n"})
        assert self.target_file(repo_builder, first, "a.py", second) == "a.py"

    def test_rename_forward(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE})
        repo_builder.commit({"a.py": None, "b.py": BASE})
        third = repo_builder.commit({"b.py": BASE + "tail\n"})
        assert self.target_file(repo_builder, first, "a.py", third) == "b.py"

    def test_rename_backward(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE})
        repo_builder.commit({"a.py": None, "b.py": BASE})
        third = repo_builder.commit({"b.py": BASE + "tail\n"})
        assert self.target_file(repo_builder, third, "b.py", first) == "a.py"

    @pytest.mark.parametrize("quote_path", [None, "false"], ids=["default", "quotePath-false"])
    def test_non_ascii_rename(self, repo_builder, monkeypatch, quote_path):
        if quote_path is not None:
            monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
            monkeypatch.setenv("GIT_CONFIG_KEY_0", "core.quotePath")
            monkeypatch.setenv("GIT_CONFIG_VALUE_0", quote_path)
        first = repo_builder.commit({"café.py": BASE})
        second = repo_builder.commit({"café.py": BASE + "main\n"})
        third = repo_builder.commit({"café.py": None, "naïve.py": BASE + "main\n"})
        # A branch that renames the file apart from `second`: neither tip is
        # an ancestor of the other, so only the endpoint diff finds it.
        _git(repo_builder.path, "checkout", "-q", "-b", "side", first)
        side = repo_builder.commit({"café.py": None, "naïve.py": BASE + "side\n"})
        for source_commit, target_commit in [(first, third), (third, first), (second, side)]:
            path = "naïve.py" if source_commit == third else "café.py"
            source = Region(source_commit, path, make_range(2, 1, 2, 6))
            result = map_region(repo_builder.path, source, target_commit)
            assert result.target_file == ("café.py" if path == "naïve.py" else "naïve.py")
            assert result.target.range == make_range(2, 1, 2, 6)

    def test_deleted_file(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE, "keep.py": "x = 1\n"})
        repo_builder.commit({"a.py": None})
        third = repo_builder.commit({"keep.py": "x = 2\n"})
        assert self.target_file(repo_builder, first, "a.py", third) is None


def _body(tag: str, *edits: int) -> str:
    return "".join(f"{tag} line {i}{' edited' if i in edits else ''}\n" for i in range(1, 13))


class _OneWalk:
    """Rename tracking as one `git log -M` walk over the whole range does
    it: the reference the per-commit lookup must agree with."""

    def __init__(self, gateway, src, tgt):
        def git(*args):
            return subprocess.run(["git", *args], cwd=gateway.repo, capture_output=True).stdout

        def renames(listing):
            entries = gitio._name_status(listing)
            return [tuple(paths) for _, status, paths in entries if status[0] == "R"]

        base = git("merge-base", src, tgt).decode().strip()
        walk = ["log", "--format=", "--name-status", "-z", "--diff-filter=R", "-M"]
        self.forward = base == src
        self.pairs = []
        if base == src:
            self.pairs = renames(git(*walk, "--reverse", f"{src}..{tgt}"))
        elif base == tgt:
            self.pairs = renames(git(*walk, f"{tgt}..{src}"))
        endpoints = git("diff", "--no-ext-diff", "--name-status", "-z", "--find-renames", src, tgt)
        self.endpoint = dict(renames(endpoints))
        self.gateway, self.tgt = gateway, tgt

    def chained(self, path):
        current = path
        for old, new in self.pairs:
            if self.forward and old == current:
                current = new
            elif not self.forward and new == current:
                current = old
        return current if current != path else None

    def follow(self, path):
        for name in (self.chained(path), self.endpoint.get(path)):
            if name:
                (obj,) = self.gateway.read_objects([f"{self.tgt}:{name}"])
                if obj.type == "blob":
                    return name, obj
        return None, MISSING


class TestNameStatusListing:
    def test_entries_carry_their_commit(self):
        listing = b"R100\0a.py\0b.py\0\x01c1\0\x01c2\0\nD\0a b\0A\0\x01x\0"
        assert list(gitio._name_status(listing)) == [
            (None, "R100", ["a.py", "b.py"]),
            ("c2", "D", ["a b"]),
            ("c2", "A", ["\x01x"]),  # a path, read by position, is never a header
        ]
        assert list(gitio._name_status(b"")) == []

    @pytest.mark.parametrize(
        "listing",
        [b"R100\0a.py\0", b"M\0a.p", b"\x01c1\0\nD", b"Q\0a.py\0", b"R100 a.py b.py\n", b"\0"],
        ids=["rename_cut_short", "path_cut_short", "header_cut_short", "unknown_status",
             "no_nul", "empty_status"],
    )
    def test_a_listing_git_does_not_print_raises(self, listing):
        with pytest.raises(RepoError):
            list(gitio._name_status(listing))


class TestRenameTracking:
    """Rename tracking asks `-M` only about the commits that delete (or, going
    backward, add) the followed path, and gives the answers one `-M` walk
    over the whole range gives."""

    def test_every_triple_matches_one_walk_over_the_range(self, repo_builder):
        b = repo_builder
        start = b.commit({f"{tag}.py": _body(tag) for tag in "abdkg"})
        b.commit({"a.py": None, "x.py": _body("a")})  # forward rename
        fork = b.commit({"x.py": None, "a.py": _body("a")})  # and back
        b.commit({"b.py": None, "b2.py": _body("b"), "k.py": _body("k", 1)})  # renamed twice,
        b.commit({"b2.py": None, "b3.py": _body("b", 4)})  # the second with an edit
        b.commit({"d.py": None, "e.py": _body("d", 7)})  # delete plus similar add
        b.commit({"k.py": None})  # a delete, and a similar add a commit later
        b.commit({"k2.py": _body("k", 2)})
        # Renamed in two steps that each edit a quarter of the lines: git
        # pairs each step but not the two ends, so only the chain finds it;
        # the old name is then taken by a new file.
        b.commit({"g.py": None, "g2.py": _body("g", 1, 2, 3)})
        b.commit({"g2.py": None, "g3.py": _body("g", *range(1, 7)), "g.py": _body("n")})
        _git(b.path, "checkout", "-q", "-b", "side", fork)
        b.commit({"s.py": _body("s")})
        b.commit({"s.py": None, "t.py": _body("s")})
        _git(b.path, "checkout", "-q", "main")
        _git(b.path, "merge", "-q", "--no-ff", "-m", "merge side", "side")
        b.commits.append(_git(b.path, "rev-parse", "HEAD").strip())
        b.commit({"t.py": None, "u.py": _body("s", 9)})
        commits = [start, *b.commits[1:]]
        gateway = GitGateway(b.path)
        for src in commits:
            paths = _git(b.path, "ls-tree", "--name-only", src).split()
            for tgt in commits:
                reference = _OneWalk(gateway, src, tgt)
                for path in paths:
                    where = (src, path, tgt)
                    assert gateway._chained_rename(src, path, tgt) == reference.chained(path), where
                    assert gateway.follow_rename(src, path, tgt) == reference.follow(path), where

    def test_renames_are_kept_with_the_reader(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE})
        second = repo_builder.commit({"a.py": None, "b.py": BASE})
        gateway = GitGateway(repo_builder.path)
        assert gateway.follow_rename(first, "a.py", second)[0] == "b.py"
        assert _reader(repo_builder.path).renames == {second: [("a.py", "b.py")]}
        # A commit that moves no followed path is never asked.
        third = repo_builder.commit({"c.py": "c\n"})
        assert gateway.follow_rename(second, "b.py", third)[0] is None
        assert list(_reader(repo_builder.path).renames) == [second]


class TestDiffReports:
    def test_identical_contents_give_no_reports(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        assert gateway.diff_texts(BASE, BASE) == [""]

    def test_single_line_edit_gives_one_hunk(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        edited = BASE.replace("line 4", "line four")
        reports = gateway.diff_texts(BASE, edited)
        assert reports
        for report in reports:
            hunks = parse_word_diff(report)
            assert len(hunks) == 1
            assert hunks[0].source_start == hunks[0].source_end == 4

    def test_algorithms_can_disagree_and_survive_dedup(self, repo_builder):
        # Interleaved duplicate lines: the classic case where the algorithms
        # pick different hunk boundaries.
        source = "A\nB\nC\nA\nB\nB\nA\n"
        target = "C\nB\nA\nB\nA\nC\n"
        gateway = GitGateway(repo_builder.path)
        reports = gateway.diff_texts(source, target)
        assert len(reports) > 1
        assert len(set(reports)) == len(reports)

    def test_dedup_never_exceeds_the_algorithm_count(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        reports = gateway.diff_texts(BASE, BASE.replace("line 2", "other"))
        assert len(reports) <= len(ALL_CONFIGS)

    def test_determinism(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        edited = BASE.replace("line 7", "line seven")
        first = gateway.diff_texts(BASE, edited)
        second = gateway.diff_texts(BASE, edited)
        assert first == second

    def test_direction_symmetry(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        edited = BASE.replace("line 4", "line four\nline 4b")
        forward = _myers_hunks(gateway, BASE, edited)
        backward = _myers_hunks(gateway, edited, BASE)
        assert forward == [(ts, te, ss, se) for ss, se, ts, te in backward]

    def test_reports_via_commits(self, repo_builder):
        first = repo_builder.commit({"f.txt": BASE})
        second = repo_builder.commit({"f.txt": BASE.replace("line 9", "line nine")})
        gateway = GitGateway(repo_builder.path)
        reports = gateway.diff_texts(
            gateway.file_content(first, "f.txt"),
            gateway.file_content(second, "f.txt"),
        )
        assert reports
        assert [h.source_start for h in parse_word_diff(reports[0])] == [9]


def _clean_git_config(monkeypatch):
    for key in ("GIT_CONFIG_GLOBAL", "GIT_CONFIG_PARAMETERS", "GIT_CONFIG_COUNT"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")


def _myers_hunks(gateway, source, target):
    report = gateway.diff_texts(source, target, algorithms=(Algorithm.MYERS,))[0]
    return [
        (h.source_start, h.source_end, h.target_start, h.target_end)
        for h in parse_word_diff(report)
    ]


class TestDiffIgnoresCallerConfig:
    # Two one-line edits four lines apart: git merges them into one hunk
    # when diff.interHunkContext allows.
    EDITED = BASE.replace("line 5", "line five").replace("line 9", "line nine")

    def test_global_config_file(self, repo_builder, tmp_path, monkeypatch):
        _clean_git_config(monkeypatch)
        gateway = GitGateway(repo_builder.path)
        clean = _myers_hunks(gateway, BASE, self.EDITED)
        assert clean == [(5, 5, 5, 5), (9, 9, 9, 9)]
        config = tmp_path / "gitconfig"
        config.write_text("[diff]\n\tinterHunkContext = 10\n", encoding="utf-8")
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
        assert _myers_hunks(gateway, BASE, self.EDITED) == clean

    def test_config_passed_in_environment(self, repo_builder, monkeypatch):
        _clean_git_config(monkeypatch)
        gateway = GitGateway(repo_builder.path)
        clean = _myers_hunks(gateway, BASE, self.EDITED)
        monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
        monkeypatch.setenv("GIT_CONFIG_KEY_0", "diff.interHunkContext")
        monkeypatch.setenv("GIT_CONFIG_VALUE_0", "10")
        assert _myers_hunks(gateway, BASE, self.EDITED) == clean


class TestDiffLocale:
    SOURCE = "x = naïve_value + 1\n"
    TARGET = "x = naïve_count + 1\n"

    def _kept_text(self, gateway):
        report = gateway.diff_texts(self.SOURCE, self.TARGET, algorithms=(Algorithm.MYERS,))[0]
        alignment = align(parse_word_diff(report)[0], self.SOURCE, self.TARGET)
        return "".join(self.SOURCE[i] for i, t in enumerate(alignment.kept) if t >= 0)

    def test_byte_locale_does_not_split_non_ascii_words(self, repo_builder, monkeypatch):
        # Under LC_ALL=C the word regex splits at "ï", so "naï" reads as unchanged.
        gateway = GitGateway(repo_builder.path)
        monkeypatch.setenv("LC_ALL", "C.UTF-8")
        clean = self._kept_text(gateway)
        assert clean == "x=+1"
        monkeypatch.setenv("LC_ALL", "C")
        assert self._kept_text(gateway) == clean


class TestEmptyDiffOutput:
    def test_exit_1_without_output_raises(self, repo_builder, tmp_path, monkeypatch):
        # A git that reports "different" for `diff --no-index` but prints
        # nothing; every other command runs the real git.
        wrapper = tmp_path / "silent-diff-git"
        wrapper.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = diff ]; then\n'
            '  for arg in "$@"; do [ "$arg" = --no-index ] && exit 1; done\n'
            "fi\n"
            f'exec "{shutil.which("git")}" "$@"\n',
            encoding="utf-8",
        )
        wrapper.chmod(0o755)
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 5", "line FIVE")})
        monkeypatch.setenv("CODEMAPPER_GIT", str(wrapper))
        gateway = GitGateway(repo_builder.path)
        with pytest.raises(DiffToolFailure):
            gateway.diff_texts(BASE, BASE.replace("line 5", "line FIVE"))
        source = Region(first, "f.py", make_range(5, 6, 5, 6))
        with pytest.raises(DiffToolFailure):
            map_region(repo_builder.path, source, second)


def _pin_cpus(monkeypatch, count):
    """Make this process's affinity set `count` CPUs wide."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestConcurrentDiffs:
    def test_a_failed_diff_leaves_no_process_or_directory(
        self, repo_builder, git_wrapper, tmp_path, monkeypatch
    ):
        # myers fails after a second; the others would run for 30 s. Each
        # diff logs its pid, the diffs alive when it started (itself
        # included; a killed but unreaped one still counts) and its cwd.
        log = tmp_path / "diffs.log"
        wrapper = git_wrapper(
            'if [ "$1" = diff ]; then\n'
            "  alive=1\n"
            f'  for pid in $(cut -d" " -f1 "{log}" 2>/dev/null); do\n'
            '    kill -0 "$pid" 2>/dev/null && alive=$((alive + 1))\n'
            "  done\n"
            f'  echo "$$ $alive $PWD" >> "{log}"\n'
            '  for arg in "$@"; do\n'
            '    [ "$arg" = --diff-algorithm=myers ] && sleep 1 && exit 2\n'
            "  done\n"
            "  exec sleep 30\n"
            "fi"
        )
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 5", "line FIVE")})
        monkeypatch.setenv("CODEMAPPER_GIT", wrapper)
        for cpus in (1, 2, 4):
            _pin_cpus(monkeypatch, cpus)
            log.unlink(missing_ok=True)
            started = time.monotonic()
            with pytest.raises(DiffToolFailure, match=r"git diff failed \(2\)"):
                map_region(repo_builder.path, Region(first, "f.py", make_range(5, 1, 5, 4)), second)
            assert time.monotonic() - started < 10
            entries = [line.split(" ", 2) for line in log.read_text(encoding="utf-8").splitlines()]
            # myers is collected first, so its failure stops the queue
            # before any diff beyond the first `cpus` starts.
            assert len(entries) == min(cpus, len(ALL_CONFIGS))
            assert max(int(alive) for _, alive, _ in entries) <= cpus
            for pid, _, cwd in entries:
                with pytest.raises(ProcessLookupError):
                    os.kill(int(pid), 0)
                assert not os.path.exists(cwd)

    def test_one_cpu_runs_the_diffs_one_at_a_time(
        self, repo_builder, git_wrapper, tmp_path, monkeypatch
    ):
        log = tmp_path / "diffs.log"
        wrapper = git_wrapper(
            'if [ "$1" = diff ]; then\n'
            f'  echo start >> "{log}"\n'
            f'  "{shutil.which("git")}" "$@"\n'
            "  status=$?\n"
            f'  echo end >> "{log}"\n'
            '  exit "$status"\n'
            "fi"
        )
        monkeypatch.setenv("CODEMAPPER_GIT", wrapper)
        gateway = GitGateway(repo_builder.path)
        source, target = "A\nB\nC\nA\nB\nB\nA\n", "C\nB\nA\nB\nA\nC\n"
        _pin_cpus(monkeypatch, 4)
        together = gateway.diff_texts(source, target)
        log.unlink()
        _pin_cpus(monkeypatch, 1)
        queued = gateway.diff_texts(source, target)
        assert log.read_text(encoding="utf-8").split() == ["start", "end"] * len(ALL_CONFIGS)
        assert len(together) > 1
        assert queued == together


# -- header identity: word diffs carry the line diff's hunks -------------------


def _plain_headers(workdir, source, target, algorithm):
    """@@ lines of a plain line-level `git diff --no-index --unified=0`."""
    (workdir / "a").write_text(source, encoding="utf-8")
    (workdir / "b").write_text(target, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_CONFIG")}
    env.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull, LC_ALL="C.UTF-8")
    proc = subprocess.run(
        [
            "git", "diff", "--no-index", "--no-ext-diff", "--unified=0",
            f"--diff-algorithm={algorithm.value}", "--", "a", "b",
        ],
        cwd=workdir,
        env=env,
        capture_output=True,
    )
    assert proc.returncode in (0, 1), proc.stderr
    text = proc.stdout.decode("utf-8", errors="replace")
    return [line for line in text.splitlines() if line.startswith("@@")]


def _word_headers(gateway, source, target, algorithm):
    reports = gateway.diff_texts(source, target, algorithms=(algorithm,))
    text = reports[0] if reports else ""
    return [line for line in text.splitlines() if line.startswith("@@")]


def _assert_same_headers(gateway, workdir, source, target):
    for algorithm in Algorithm:
        assert _word_headers(gateway, source, target, algorithm) == _plain_headers(
            workdir, source, target, algorithm
        ), (algorithm, source, target)


def _lcg_lines(seed, count, alphabet):
    out = []
    for _ in range(count):
        seed = (seed * 1103515245 + 12345) % 2**31
        out.append(f"{(seed >> 16) % alphabet}\n")
    return "".join(out)


# Inputs on which the algorithm's hunks differ from myers' (the default), so
# a word run that lost --diff-algorithm would read the wrong headers.
DISAGREEING = {
    Algorithm.MYERS: ("A\nB\nC\nA\nB\nB\nA\n", "C\nB\nA\nB\nA\nC\n"),
    Algorithm.MINIMAL: (_lcg_lines(1, 600, 6), _lcg_lines(2, 600, 6)),
    Algorithm.PATIENCE: ("A\n{\nB\n{\n{\nB\nC\n}\nC\n", "{\n}\nA\n"),
    Algorithm.HISTOGRAM: ("A\nB\nC\nA\nB\nB\nA\n", "C\nB\nA\nB\nA\nC\n"),
}

WORDS = ["x = 1", "return y", "naïve_value", "größe = 2", "日本語", "\U0001f600 ok", "", "}"]


def _random_pair(rng):
    lines = [rng.choice(WORDS) for _ in range(rng.randint(0, 12))]
    edited = list(lines)
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["insert", "delete", "replace", "spacing", "reindent"])
        if kind == "insert" or not edited:
            edited.insert(rng.randint(0, len(edited)), rng.choice(WORDS))
            continue
        i = rng.randrange(len(edited))
        if kind == "delete":
            edited.pop(i)
        elif kind == "replace":
            edited[i] = rng.choice(WORDS) + " edited"
        elif kind == "spacing":
            edited[i] = edited[i].replace(" ", "  ") + rng.choice(["", " ", "\t"])
        else:
            for j in range(i, min(len(edited), i + rng.randint(1, 3))):
                edited[j] = rng.choice(["    ", "\t", "  "]) + edited[j]

    def join(ls):
        text = "".join(line + "\n" for line in ls)
        return text[:-1] if text and rng.random() < 0.25 else text  # no final newline

    return join(lines), join(edited)


class TestWordHeadersEqualLineHeaders:
    @pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
    def test_word_run_uses_the_algorithm(self, repo_builder, tmp_path, algorithm):
        gateway = GitGateway(repo_builder.path)
        source, target = DISAGREEING[algorithm]
        plain = _plain_headers(tmp_path, source, target, algorithm)
        assert _word_headers(gateway, source, target, algorithm) == plain
        other = Algorithm.HISTOGRAM if algorithm is Algorithm.MYERS else Algorithm.MYERS
        assert plain != _plain_headers(tmp_path, source, target, other)

    def test_fixture_corpus_blob_pairs(self, repo_builder, tmp_path):
        corpus = tmp_path / "corpus"
        build_corpus(corpus)
        gateway = GitGateway(repo_builder.path)
        pairs = 0
        for repo in sorted((corpus / "repos").iterdir()):
            def git(*args):
                return subprocess.run(
                    ["git", *args], cwd=repo, capture_output=True, text=True, check=True
                ).stdout.split()

            blobs = {
                GitGateway(repo).file_content(commit, path)
                for commit in git("rev-list", "--all")
                for path in git("ls-tree", "-r", "--name-only", commit)
            }
            for source in sorted(blobs):
                for target in sorted(blobs):
                    if source != target:
                        _assert_same_headers(gateway, tmp_path, source, target)
                        pairs += 1
        assert pairs >= 20, pairs

    def test_seeded_random_edits(self, repo_builder, tmp_path):
        gateway = GitGateway(repo_builder.path)
        rng = random.Random(968)
        for _ in range(40):
            source, target = _random_pair(rng)
            _assert_same_headers(gateway, tmp_path, source, target)
        for source, target in [("", "x\n"), ("x\n", ""), ("a\nb\n", "a\nb"), ("a\n", "  a\n")]:
            _assert_same_headers(gateway, tmp_path, source, target)
