"""Command-line interface: flags, output schema, exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import codemapper
from codemapper import cli, evaluation
from codemapper.cli import main
from codemapper.diffparse import MalformedDiff
from codemapper.evaluation import EvalRecord, record_to_json
from codemapper.fixtures import build_corpus
from codemapper.gitio import DiffToolFailure, RepoError
from codemapper.pipeline import map_region
from codemapper.regions import DELETED, Region, make_range


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


BASE = "".join(f"line {i}\n" for i in range(1, 10))


def map_args(repo, source, target, *extra):
    return [
        "map",
        "--repo", str(repo),
        "--source-commit", source,
        "--file", "f.py",
        "--start-line", "3",
        "--start-col", "1",
        "--end-line", "3",
        "--end-col", "6",
        "--target-commit", target,
        *extra,
    ]


def _no_config(*args, **kwargs):
    raise AssertionError("a SelectionConfig was built")


class TestCmdMap:
    def test_identical_commits_echo_region(self, repo_builder, capsys):
        sha = repo_builder.commit({"f.py": BASE})
        code, out, _ = run_cli(
            capsys, *map_args(repo_builder.path, sha, sha, "--format", "json")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["target"]["l1"] == 3
        assert payload["target"]["commit"] == sha
        assert payload["origin"] == "diff"

    def test_deleted_file_reports_reason(self, repo_builder, capsys):
        first = repo_builder.commit({"f.py": BASE, "keep.py": "x\n"})
        repo_builder.commit({"f.py": None})
        third = repo_builder.commit({"keep.py": "y\n"})
        code, out, _ = run_cli(
            capsys, *map_args(repo_builder.path, first, third, "--format", "json")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "deleted"
        assert payload["reason"] == "file_deleted"

    def test_moved_region_reports_movement_origin(self, repo_builder, capsys):
        filler = [f"filler {i} xyz" for i in range(8)]
        first = repo_builder.commit({"f.py": "moved line 3\n" + "".join(l + "\n" for l in filler)})
        second = repo_builder.commit({"f.py": "".join(l + "\n" for l in filler) + "moved line 3\n"})
        code, out, _ = run_cli(
            capsys,
            "map", "--repo", str(repo_builder.path),
            "--source-commit", first,
            "--file", "f.py",
            "--start-line", "1", "--start-col", "1",
            "--end-line", "1", "--end-col", "12",
            "--target-commit", second,
            "--format", "json", "--verbose",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["origin"] == "movement"
        assert payload["target"]["l1"] == 9
        assert payload["candidates"]

    def test_usage_error_is_64(self, capsys):
        code, _, err = run_cli(capsys, "map", "--repo", "/nowhere")
        assert code == 64
        assert "error" in err

    def test_negative_context_is_64(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SelectionConfig", _no_config)
        code, out, err = run_cli(
            capsys, *map_args("/nowhere", "HEAD", "HEAD", "--context", "-1")
        )
        assert code == 64
        assert "--context" in err
        assert out == ""

    def test_bad_region_is_2(self, repo_builder, capsys):
        sha = repo_builder.commit({"f.py": BASE})
        code, _, err = run_cli(
            capsys,
            "map", "--repo", str(repo_builder.path),
            "--source-commit", sha,
            "--file", "f.py",
            "--start-line", "99", "--start-col", "1",
            "--end-line", "99", "--end-col", "2",
            "--target-commit", sha,
        )
        assert code == 2
        assert "cannot resolve source region" in err

    def test_missing_source_file_is_2(self, repo_builder, capsys):
        sha = repo_builder.commit({"f.py": BASE})
        code, _, _ = run_cli(
            capsys,
            "map", "--repo", str(repo_builder.path),
            "--source-commit", sha,
            "--file", "ghost.py",
            "--start-line", "1", "--start-col", "1",
            "--end-line", "1", "--end-col", "2",
            "--target-commit", sha,
        )
        assert code == 2

    def test_empty_commit_is_2(self, repo_builder, capsys):
        repo_builder.commit({"f.py": BASE})
        code, _, err = run_cli(capsys, *map_args(repo_builder.path, "", "HEAD"))
        assert code == 2
        assert "cannot resolve source region" in err

    def test_directory_source_is_2(self, repo_builder, capsys):
        repo_builder.commit({"pkg/m.py": BASE})
        code, out, err = run_cli(
            capsys,
            "map", "--repo", str(repo_builder.path),
            "--source-commit", "HEAD",
            "--file", "pkg",
            "--start-line", "3", "--start-col", "1",
            "--end-line", "3", "--end-col", "4",
            "--target-commit", "HEAD",
        )
        assert code == 2
        assert "'pkg' is a tree" in err
        assert out == ""

    def test_repo_error_is_3(self, repo_builder, capsys):
        repo_builder.commit({"f.py": BASE})
        code, _, err = run_cli(
            capsys, *map_args(repo_builder.path, "1" * 40, "1" * 40)
        )
        assert code == 3
        assert "repository error" in err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_repo_that_is_no_directory_is_3(self, tmp_path, capsys, kind):
        repo = tmp_path / "repo"
        if kind == "file":
            repo.write_text("not a repository\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *map_args(repo, "HEAD", "HEAD"))
        assert code == 3
        assert f"repository error: no repository directory at {repo}: " in err
        assert "cannot run" not in err
        assert out == ""

    def test_unreadable_git_output_is_70(self, repo_builder, capsys, monkeypatch):
        sha = repo_builder.commit({"f.py": BASE})

        def fail(*args, **kwargs):
            raise MalformedDiff("bad hunk header: '@@ nonsense'")

        monkeypatch.setattr(cli, "map_region", fail)
        code, _, err = run_cli(capsys, *map_args(repo_builder.path, sha, sha))
        assert code == 70
        assert "internal error" in err
        assert "cannot resolve source region" not in err

    def test_internal_value_error_is_70(self, repo_builder, capsys, monkeypatch):
        sha = repo_builder.commit({"f.py": BASE})

        def fail(*args, **kwargs):
            raise ValueError("need 0 <= start < end, got [5, 5)")

        monkeypatch.setattr(cli, "map_region", fail)
        code, _, err = run_cli(capsys, *map_args(repo_builder.path, sha, sha))
        assert code == 70
        assert "internal error: ValueError" in err
        assert "cannot resolve source region" not in err

    def test_unexpected_exception_is_70(self, repo_builder, capsys, monkeypatch):
        sha = repo_builder.commit({"f.py": BASE})

        def fail(*args, **kwargs):
            raise KeyError("selected")

        monkeypatch.setattr(cli, "map_region", fail)
        code, out, err = run_cli(capsys, *map_args(repo_builder.path, sha, sha))
        assert code == 70
        assert "codemapper: internal error: KeyError: 'selected'" in err
        assert out == ""

    def test_json_output_is_deterministic(self, repo_builder, capsys):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 3", "line three")})
        args = map_args(repo_builder.path, first, second, "--format", "json", "--verbose")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_timing_flag_reports_phases(self, repo_builder, capsys):
        sha = repo_builder.commit({"f.py": BASE})
        code, out, _ = run_cli(
            capsys, *map_args(repo_builder.path, sha, sha, "--format", "json", "--timing")
        )
        assert code == 0
        timing = json.loads(out)["timing"]
        assert set(timing) == {"candidates_ms", "selection_ms", "total_ms"}

    def test_text_format_mentions_target(self, repo_builder, capsys):
        sha = repo_builder.commit({"f.py": BASE})
        code, out, _ = run_cli(capsys, *map_args(repo_builder.path, sha, sha))
        assert code == 0
        assert out.startswith("target: f.py 3:1-3:6")

    def test_text_format_for_a_deleted_file(self, repo_builder, capsys):
        first = repo_builder.commit({"f.py": BASE, "keep.py": "x\n"})
        second = repo_builder.commit({"f.py": None})
        code, out, _ = run_cli(capsys, *map_args(repo_builder.path, first, second))
        assert (code, out) == (0, "target: deleted (file_deleted)\n")

    def test_text_format_lists_candidates_and_timing(self, repo_builder, capsys):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 3", "line three")})
        code, out, _ = run_cli(
            capsys, *map_args(repo_builder.path, first, second, "--verbose", "--timing")
        )
        assert code == 0
        target, candidate, timing = out.splitlines()
        assert target == "target: f.py 3:1-3:10 (origin=diff, similarity=0.9242)"
        assert candidate == "  candidate: f.py 3:1-3:10 origin=diff similarity=0.9242"
        assert re.fullmatch(
            r"timing: candidates \d+\.\d ms, selection \d+\.\d ms, total \d+\.\d ms", timing
        )

    def test_text_format_lists_a_deleted_candidate(self, repo_builder, capsys):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 3\n", "")})
        code, out, _ = run_cli(capsys, *map_args(repo_builder.path, first, second, "--verbose"))
        assert code == 0
        assert out == "target: deleted\n  candidate: deleted origin=diff similarity=1.0000\n"


def test_python_m_codemapper_runs_the_cli(repo_builder, capsys):
    first = repo_builder.commit({"f.py": BASE})
    second = repo_builder.commit({"f.py": "head\n" + BASE})
    args = map_args(repo_builder.path, first, second, "--verbose")
    env = {**os.environ, "PYTHONPATH": str(Path(codemapper.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "codemapper", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(capsys, *args)[1]


GIT = shutil.which("git")


def _on(option: str, action: str) -> str:
    """A wrapper body that runs `action` for a git command given `option`."""
    return f'case " $* " in *" {option} "*) {action};; esac'


class TestMisbehavingGit:
    """A git whose output or exit code is not what was asked for gives an
    error, never an answer: a repository error (`map` exits 3, `eval` records
    it and exits 1), or an internal error (70) for git output codemapper
    cannot read."""

    @pytest.mark.parametrize(
        "body, renamed, error, code, eval_code",
        [
            (_on("--no-index", "exit 0"), False, DiffToolFailure, 3, 1),
            (_on("--no-index", "echo 'warning: something'; exit 1"), False, MalformedDiff, 70, 70),
            (_on("--name-status", f'"{GIT}" "$@" | head -c -3; exit 0'), True, RepoError, 3, 1),
            (_on("--name-status", f'"{GIT}" "$@" | tr DR QQ; exit 0'), True, RepoError, 3, 1),
            (_on("--name-status", f'"{GIT}" "$@" | tr "\\000" "\\n"; exit 0'), True, RepoError, 3, 1),
        ],
        ids=["diff_exits_0", "hunkless_word_diff", "listing_cut_short", "unknown_status",
             "listing_without_nul"],
    )
    def test_error_not_answer(
        self, repo_builder, git_wrapper, capsys, monkeypatch, tmp_path,
        body, renamed, error, code, eval_code,
    ):
        first = repo_builder.commit({"f.py": BASE})
        edited = BASE.replace("line 3", "line three")
        files = {"f.py": None, "g.py": edited} if renamed else {"f.py": edited}
        second = repo_builder.commit(files)
        args = map_args(repo_builder.path, first, second)
        assert run_cli(capsys, *args)[0] == 0  # the real git gives an answer
        source = Region(first, "f.py", make_range(3, 1, 3, 6))
        dataset = tmp_path / "one.jsonl"
        record = evaluation.EvalRecord(str(repo_builder.path), source, second, DELETED)
        evaluation.dump_dataset([record], dataset)
        monkeypatch.setenv("CODEMAPPER_GIT", git_wrapper(body))
        with pytest.raises(error):
            map_region(repo_builder.path, source, second)
        assert run_cli(capsys, *args)[:2] == (code, "")
        got, out, _ = run_cli(capsys, "eval", "--dataset", str(dataset), "--format", "json")
        assert got == eval_code
        if eval_code == 1:
            (record,) = json.loads(out)["report"]["records"]
            assert record["error"].startswith(f"{error.__name__}: ")
        else:
            assert out == ""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    dest = tmp_path_factory.mktemp("corpus")
    build_corpus(dest)
    return dest


class TestCmdEval:
    def test_bundled_corpus_all_exact(self, corpus, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dataset", str(corpus / "dataset.jsonl"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        agg = payload["report"]["aggregates"]
        assert agg["exact_rate"] == 1.0
        manifest = json.loads((corpus / "manifest.json").read_text())
        by_name = {r["name"]: r["outcome"] for r in manifest}
        for rec in payload["report"]["records"]:
            assert rec["outcome"]["kind"] == by_name[rec["name"]]

    def test_empty_dataset(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        code, out, _ = run_cli(capsys, "eval", "--dataset", str(dataset))
        assert code == 0
        assert "records=0" in out

    @pytest.mark.parametrize(
        "flag, value", [("--context", "-1"), ("--context-sweep", "0,-5"), ("--context", "ten")]
    )
    def test_negative_context_is_64(self, tmp_path, capsys, monkeypatch, flag, value):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "SelectionConfig", _no_config)
        monkeypatch.setattr(cli, "load_dataset", _no_config)
        code, out, err = run_cli(capsys, "eval", "--dataset", str(dataset), flag, value)
        assert code == 64
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--jobs", "-3"),
            ("--jobs", "x"),
            ("--context-sweep", ","),
            ("--context-sweep", ""),
        ],
    )
    def test_no_jobs_or_no_sweep_size_is_64(self, tmp_path, capsys, monkeypatch, flag, value):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "load_dataset", _no_config)
        code, out, err = run_cli(capsys, "eval", "--dataset", str(dataset), flag, value)
        assert code == 64
        assert flag in err
        assert out == ""

    def test_context_sweep_text(self, corpus, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dataset", str(corpus / "dataset.jsonl"), "--context-sweep", "0,5"
        )
        assert code == 0
        tail = "exact=12 (100.0%) overlap=12 (100.0%) char_dist=- recall=1.000"
        assert [line.split()[0] for line in out.splitlines()] == ["full", "context=0", "context=5"]
        assert all(f"records=12  {tail}" in line for line in out.splitlines())

    def test_context_sweep_json(self, corpus, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--dataset", str(corpus / "dataset.jsonl"),
            "--context-sweep", "0,5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        sweep = payload["context_sweep"]
        assert list(payload) == ["dataset", "report", "context_sweep"]
        assert list(sweep) == ["0", "5"]
        for size, report in sweep.items():
            assert report["config"]["context_lines"] == int(size)
            assert report["aggregates"]["exact_count"] == 12
        # The default context is 15, so no sweep entry repeats the report.
        assert payload["report"]["config"]["context_lines"] == 15

    def test_unexpected_exception_is_70(self, tmp_path, capsys, monkeypatch):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")

        def fail(*args, **kwargs):
            raise KeyError("records")

        monkeypatch.setattr(cli, "evaluate", fail)
        code, out, err = run_cli(capsys, "eval", "--dataset", str(dataset))
        assert code == 70
        assert "codemapper: internal error: KeyError: 'records'" in err
        assert out == ""

    def test_unwritable_out_is_73_before_any_record(self, corpus, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a record was evaluated")

        monkeypatch.setattr(evaluation, "evaluate_record", fail)
        out_file = tmp_path / "missing-dir" / "report.json"
        code, out, err = run_cli(
            capsys, "eval", "--dataset", str(corpus / "dataset.jsonl"), "--out", str(out_file)
        )
        assert (code, out) == (73, "")
        assert err.startswith("codemapper: cannot write report: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_failed_report_write_is_73(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--dataset", str(dataset), "--out", "/dev/full")
        assert (code, out) == (73, "")
        assert err.startswith("codemapper: cannot write report: ")

    def test_parse_error_is_65_with_line_number(self, tmp_path, capsys):
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text("this is not json\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset))
        assert code == 65
        assert ":1:" in err

    @pytest.mark.parametrize(
        "key, value", [("expected", "gone"), ("schema", "codemapper-eval-v9")]
    )
    def test_line_that_is_no_v1_record_is_65_with_line_number(
        self, tmp_path, capsys, key, value
    ):
        record = EvalRecord(
            "repo", Region("a" * 40, "f.py", make_range(1, 1, 1, 1)), "b" * 40, DELETED
        )
        good = record_to_json(record)
        dataset = tmp_path / "bad.jsonl"
        lines = [json.dumps(good), json.dumps({**good, key: value})]
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--dataset", str(dataset))
        assert (code, out) == (65, "")
        assert err.startswith(f"codemapper: {dataset}:2: ")
        assert value in err

    def test_unreadable_dataset_is_65(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "eval", "--dataset", str(tmp_path / "missing.jsonl"))
        assert (code, out) == (65, "")
        assert err.startswith("codemapper: cannot read dataset: ")

    def test_report_to_file(self, corpus, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "eval", "--dataset", str(corpus / "dataset.jsonl"),
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(out_file.read_text())
        assert payload["report"]["aggregates"]["exact_count"] == len(
            (corpus / "dataset.jsonl").read_text().strip().splitlines()
        )

    def test_jobs_flag_gives_same_aggregates(self, corpus, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "eval", "--dataset", str(corpus / "dataset.jsonl"), "--format", "json"
        )
        code_b, out_b, _ = run_cli(
            capsys,
            "eval", "--dataset", str(corpus / "dataset.jsonl"),
            "--format", "json", "--jobs", "4",
        )
        assert code_a == code_b == 0
        a = json.loads(out_a)["report"]
        b = json.loads(out_b)["report"]
        assert a["aggregates"] == b["aggregates"]
        # Threads share each repository's cat-file reader; every record must
        # still get its own answer.
        assert len(a["records"]) == len(b["records"]) > 0
        for one, four in zip(a["records"], b["records"]):
            assert one["name"] == four["name"]
            assert "error" not in one and "error" not in four
            assert (one["predicted"], one["outcome"]) == (four["predicted"], four["outcome"])

    def test_ablation_evaluates_the_full_configuration_once(self, corpus, capsys, monkeypatch):
        dataset = corpus / "first_two.jsonl"
        lines = (corpus / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
        dataset.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        real = evaluation.evaluate_record
        calls = []

        def counting(record, config, *args, **kwargs):
            calls.append(config)
            return real(record, config, *args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate_record", counting)
        code, out, _ = run_cli(
            capsys, "eval", "--dataset", str(dataset), "--format", "json", "--ablation"
        )
        assert code == 0
        assert len(calls) == 2 * len(evaluation.ABLATION_VARIANTS)
        payload = json.loads(out)
        assert payload["report"] == payload["ablation"]["full"]
