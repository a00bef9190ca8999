"""Command-line interface: flags, output schema, exit codes."""

import json

import pytest

from codemapper import cli, evaluation
from codemapper.cli import main
from codemapper.diffparse import MalformedDiff
from codemapper.fixtures import build_corpus


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
        "flag, value", [("--context", "-1"), ("--context-sweep", "0,-5")]
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

    def test_parse_error_is_65_with_line_number(self, tmp_path, capsys):
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text("this is not json\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--dataset", str(dataset))
        assert code == 65
        assert ":1:" in err

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
