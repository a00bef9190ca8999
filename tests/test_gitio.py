"""Git gateway: content retrieval, rename resolution, diff reports."""

import pytest

from codemapper.diffparse import parse_line_diff
from codemapper.gitio import (
    ALL_CONFIGS,
    Algorithm,
    BinaryFile,
    DiffConfig,
    GitGateway,
    Granularity,
    NotFound,
    RepoError,
)

BASE = "\n".join(f"line {i}" for i in range(1, 11)) + "\n"


def test_exactly_eight_configs():
    assert len(ALL_CONFIGS) == 8
    assert len(set(ALL_CONFIGS)) == 8
    assert {c.granularity for c in ALL_CONFIGS} == {Granularity.LINE, Granularity.WORD}
    assert {c.algorithm for c in ALL_CONFIGS} == set(Algorithm)


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
        sha = repo_builder.commit_binary("blob.bin", b"\x00\x01\x02")
        with pytest.raises(BinaryFile):
            GitGateway(repo_builder.path).file_content(sha, "blob.bin")

    def test_missing_path(self, repo_builder):
        sha = repo_builder.commit({"f.txt": BASE})
        with pytest.raises(NotFound):
            GitGateway(repo_builder.path).file_content(sha, "nope.txt")

    def test_unknown_commit(self, repo_builder):
        repo_builder.commit({"f.txt": BASE})
        with pytest.raises(RepoError):
            GitGateway(repo_builder.path).rev_parse("0" * 40)


class TestResolveTargetFile:
    def test_unchanged_path(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE})
        second = repo_builder.commit({"a.py": BASE + "tail\n"})
        gateway = GitGateway(repo_builder.path)
        assert gateway.resolve_target_file(first, "a.py", second) == "a.py"

    def test_rename_forward(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE})
        repo_builder.commit({"a.py": None, "b.py": BASE})
        third = repo_builder.commit({"b.py": BASE + "tail\n"})
        gateway = GitGateway(repo_builder.path)
        assert gateway.resolve_target_file(first, "a.py", third) == "b.py"

    def test_rename_backward(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE})
        repo_builder.commit({"a.py": None, "b.py": BASE})
        third = repo_builder.commit({"b.py": BASE + "tail\n"})
        gateway = GitGateway(repo_builder.path)
        assert gateway.resolve_target_file(third, "b.py", first) == "a.py"

    def test_deleted_file(self, repo_builder):
        first = repo_builder.commit({"a.py": BASE, "keep.py": "x = 1\n"})
        repo_builder.commit({"a.py": None})
        third = repo_builder.commit({"keep.py": "x = 2\n"})
        gateway = GitGateway(repo_builder.path)
        assert gateway.resolve_target_file(first, "a.py", third) is None


class TestDiffReports:
    def test_identical_contents_give_no_reports(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        assert gateway.diff_texts(BASE, BASE) == []

    def test_single_line_edit_gives_one_hunk(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        edited = BASE.replace("line 4", "line four")
        reports = gateway.diff_texts(BASE, edited)
        assert reports
        line_reports = [r for r in reports if r.config.granularity is Granularity.LINE]
        assert line_reports
        for report in line_reports:
            hunks = parse_line_diff(report)
            assert len(hunks) == 1
            assert hunks[0].source_start == hunks[0].source_end == 4

    def test_algorithms_can_disagree_and_survive_dedup(self, repo_builder):
        # Interleaved duplicate lines: the classic case where the algorithms
        # pick different hunk boundaries.
        source = "A\nB\nC\nA\nB\nB\nA\n"
        target = "C\nB\nA\nB\nA\nC\n"
        gateway = GitGateway(repo_builder.path)
        line_reports = [
            r
            for r in gateway.diff_texts(source, target)
            if r.config.granularity is Granularity.LINE
        ]
        assert len(line_reports) > 1
        assert len({r.text for r in line_reports}) == len(line_reports)

    def test_dedup_never_exceeds_eight(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        reports = gateway.diff_texts(BASE, BASE.replace("line 2", "other"))
        assert len(reports) <= 8

    def test_determinism(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        edited = BASE.replace("line 7", "line seven")
        first = [(r.config, r.text) for r in gateway.diff_texts(BASE, edited)]
        second = [(r.config, r.text) for r in gateway.diff_texts(BASE, edited)]
        assert first == second

    def test_direction_symmetry(self, repo_builder):
        gateway = GitGateway(repo_builder.path)
        edited = BASE.replace("line 4", "line four\nline 4b")
        myers_line = (DiffConfig(Algorithm.MYERS, Granularity.LINE),)
        forward = parse_line_diff(gateway.diff_texts(BASE, edited, configs=myers_line)[0])
        backward = parse_line_diff(gateway.diff_texts(edited, BASE, configs=myers_line)[0])
        assert [(h.source_start, h.source_end, h.target_start, h.target_end) for h in forward] == [
            (h.target_start, h.target_end, h.source_start, h.source_end) for h in backward
        ]

    def test_reports_via_commits(self, repo_builder):
        first = repo_builder.commit({"f.txt": BASE})
        second = repo_builder.commit({"f.txt": BASE.replace("line 9", "line nine")})
        gateway = GitGateway(repo_builder.path)
        reports = gateway.diff_texts(
            gateway.file_content(first, "f.txt"),
            gateway.file_content(second, "f.txt"),
            source_file="f.txt",
            target_file="f.txt",
        )
        assert reports and all(r.source_file == "f.txt" for r in reports)
        line_reports = [r for r in reports if r.config.granularity is Granularity.LINE]
        assert [h.source_start for h in parse_line_diff(line_reports[0])] == [9]


def _clean_git_config(monkeypatch):
    for key in ("GIT_CONFIG_GLOBAL", "GIT_CONFIG_PARAMETERS", "GIT_CONFIG_COUNT"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")


def _myers_line_hunks(gateway, source, target):
    myers_line = (DiffConfig(Algorithm.MYERS, Granularity.LINE),)
    report = gateway.diff_texts(source, target, configs=myers_line)[0]
    return [
        (h.source_start, h.source_end, h.target_start, h.target_end)
        for h in parse_line_diff(report)
    ]


class TestDiffIgnoresCallerConfig:
    # Two one-line edits four lines apart: git merges them into one hunk
    # when diff.interHunkContext allows.
    EDITED = BASE.replace("line 5", "line five").replace("line 9", "line nine")

    def test_global_config_file(self, repo_builder, tmp_path, monkeypatch):
        _clean_git_config(monkeypatch)
        gateway = GitGateway(repo_builder.path)
        clean = _myers_line_hunks(gateway, BASE, self.EDITED)
        assert clean == [(5, 5, 5, 5), (9, 9, 9, 9)]
        config = tmp_path / "gitconfig"
        config.write_text("[diff]\n\tinterHunkContext = 10\n", encoding="utf-8")
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
        assert _myers_line_hunks(gateway, BASE, self.EDITED) == clean

    def test_config_passed_in_environment(self, repo_builder, monkeypatch):
        _clean_git_config(monkeypatch)
        gateway = GitGateway(repo_builder.path)
        clean = _myers_line_hunks(gateway, BASE, self.EDITED)
        monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
        monkeypatch.setenv("GIT_CONFIG_KEY_0", "diff.interHunkContext")
        monkeypatch.setenv("GIT_CONFIG_VALUE_0", "10")
        assert _myers_line_hunks(gateway, BASE, self.EDITED) == clean
