"""Evaluation metrics and harness plumbing."""

import json
import random
import re
import shutil
import subprocess

import pytest

from codemapper.evaluation import (
    Aggregates,
    DatasetError,
    EvalOutcome,
    EvalRecord,
    EvalReport,
    FileMismatch,
    OutcomeKind,
    RecordResult,
    aggregate,
    char_distance,
    classify_outcome,
    dump_dataset,
    evaluate,
    evaluate_record,
    load_dataset,
    overlap_metrics,
    record_from_json,
    record_to_json,
)
from codemapper.regions import DELETED, AbsInterval, Region, make_range, range_of_interval
from codemapper.selector import SelectionConfig

TEXT = "".join(f"char line {i:04d} padded out to length\n" for i in range(60))


def region_from_interval(interval):
    return Region("tc", "f.py", range_of_interval(TEXT, interval))


class TestOverlapMetrics:
    def test_identical(self):
        a = region_from_interval(AbsInterval(10, 30))
        assert overlap_metrics(a, a, TEXT) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        a = region_from_interval(AbsInterval(0, 10))
        b = region_from_interval(AbsInterval(20, 32))
        assert overlap_metrics(a, b, TEXT) == (0.0, 0.0, 0.0)

    def test_known_intersection(self):
        predicted = region_from_interval(AbsInterval(0, 10))
        expected = region_from_interval(AbsInterval(5, 20))
        recall, precision, f1 = overlap_metrics(predicted, expected, TEXT)
        assert recall == pytest.approx(5 / 15)
        assert precision == pytest.approx(5 / 10)
        assert f1 == pytest.approx(0.4)

    def test_file_mismatch(self):
        a = region_from_interval(AbsInterval(0, 10))
        b = Region("tc", "other.py", a.range)
        with pytest.raises(FileMismatch):
            overlap_metrics(a, b, TEXT)

    def test_random_pairs_match_set_oracle(self):
        rng = random.Random(3)
        for _ in range(300):
            a_start = rng.randrange(0, len(TEXT) - 3)
            a_end = rng.randrange(a_start + 1, min(a_start + 90, len(TEXT)))
            b_start = rng.randrange(0, len(TEXT) - 3)
            b_end = rng.randrange(b_start + 1, min(b_start + 90, len(TEXT)))
            try:
                predicted = region_from_interval(AbsInterval(a_start, a_end))
                expected = region_from_interval(AbsInterval(b_start, b_end))
            except Exception:
                continue  # endpoint fell on a newline
            recall, precision, f1 = overlap_metrics(predicted, expected, TEXT)
            common = len(set(range(a_start, a_end)) & set(range(b_start, b_end)))
            expected_recall = common / (b_end - b_start) if common else 0.0
            expected_precision = common / (a_end - a_start) if common else 0.0
            assert recall == pytest.approx(expected_recall, abs=1e-12)
            assert precision == pytest.approx(expected_precision, abs=1e-12)
            if common:
                harmonic = 2 * expected_recall * expected_precision / (
                    expected_recall + expected_precision
                )
                assert f1 == pytest.approx(harmonic, abs=1e-12)


class TestCharDistance:
    def test_worked_example(self):
        predicted = region_from_interval(AbsInterval(20, 55))
        expected = region_from_interval(AbsInterval(18, 63))
        assert char_distance(predicted, expected, TEXT) == 10

    def test_identical(self):
        a = region_from_interval(AbsInterval(4, 9))
        assert char_distance(a, a, TEXT) == 0

    def test_shared_end(self):
        predicted = region_from_interval(AbsInterval(0, 5))
        expected = region_from_interval(AbsInterval(2, 5))
        assert char_distance(predicted, expected, TEXT) == 2


class TestClassifyOutcome:
    def test_exact(self):
        a = region_from_interval(AbsInterval(3, 9))
        outcome = classify_outcome(a, a, TEXT)
        assert outcome.kind is OutcomeKind.EXACT
        assert (outcome.recall, outcome.precision, outcome.f1) == (1.0, 1.0, 1.0)
        assert outcome.char_distance is None

    def test_partial(self):
        predicted = region_from_interval(AbsInterval(0, 10))
        expected = region_from_interval(AbsInterval(5, 20))
        outcome = classify_outcome(predicted, expected, TEXT)
        assert outcome.kind is OutcomeKind.PARTIAL_OVERLAP
        assert outcome.char_distance == 15

    def test_deletion_kinds(self):
        real = region_from_interval(AbsInterval(0, 4))
        assert classify_outcome(DELETED, DELETED, "").kind is OutcomeKind.CORRECT_DELETION
        assert classify_outcome(DELETED, real, TEXT).kind is OutcomeKind.WRONG_DELETION
        assert classify_outcome(real, DELETED, TEXT).kind is OutcomeKind.MISSED_DELETION

    def test_correct_deletion_counts_as_exact(self):
        outcome = classify_outcome(DELETED, DELETED, "")
        assert outcome.is_exact and outcome.is_overlap
        assert outcome.f1 == 1.0

    def test_file_mismatch_is_no_overlap(self):
        a = region_from_interval(AbsInterval(0, 5))
        b = Region("tc", "other.py", a.range)
        assert classify_outcome(a, b, TEXT).kind is OutcomeKind.NO_OVERLAP


def make_record(name="r1"):
    return EvalRecord(
        repo="repos/demo",
        source=Region("a" * 40, "f.py", make_range(1, 1, 2, 3)),
        target_commit="b" * 40,
        expected=Region("b" * 40, "f.py", make_range(1, 1, 2, 3)),
        tags=("python", "change"),
        name=name,
    )


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        records = [
            make_record("one"),
            EvalRecord(
                repo="repos/demo",
                source=Region("a" * 40, "f.py", make_range(3, 1, 3, 8)),
                target_commit="b" * 40,
                expected=DELETED,
                name="two",
            ),
        ]
        path = tmp_path / "data.jsonl"
        dump_dataset(records, path)
        loaded = load_dataset(path)
        assert loaded == records

    def test_expected_deleted_spelling(self):
        obj = record_to_json(
            EvalRecord(
                repo="r",
                source=Region("a" * 40, "f.py", make_range(1, 1, 1, 1)),
                target_commit="b" * 40,
                expected=DELETED,
            )
        )
        assert obj["expected"] == "deleted"
        assert record_from_json(obj).expected is DELETED

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"repo": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert ":1:" in str(err.value) or ":2:" in str(err.value)

    def test_missing_field_is_fatal(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"repo": "x", "source": {"commit": "c"}}\n', encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_line_that_is_no_object_is_fatal(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["schema", "source"]\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=":1: a record is a JSON object, not list"):
            load_dataset(path)

    @pytest.mark.parametrize("side, key", [("source", "l1"), ("expected", "c2")])
    def test_range_without_a_coordinate_is_fatal(self, tmp_path, side, key):
        obj = record_to_json(make_record())
        del obj[side][key]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f":1: bad range fields: '{key}'"):
            load_dataset(path)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("repo", 5),
            ("target_commit", 7),
            ("name", 3),
            ("source.commit", 12),
            ("source.file", 3),
            ("expected.file", ["f.py"]),
            ("tags", "python"),
            ("tags", ["python", 1]),
            ("source.l1", True),
            ("source.c1", 1.5),
            ("expected.l2", 2.0),
        ],
    )
    def test_field_of_the_wrong_type_is_fatal(self, tmp_path, field, value):
        obj = record_to_json(make_record())
        *parents, key = field.split(".")
        target = obj[parents[0]] if parents else obj
        target[key] = value
        path = tmp_path / "bad.jsonl"
        path.write_text("\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f":2: {field} is {re.escape(repr(value))}, not "):
            load_dataset(path)


class TestAggregation:
    def outcome(self, kind, r=1.0, p=1.0, f=1.0, dist=None):
        return EvalOutcome(kind, r, p, f, char_distance=dist)

    def result(self, outcome, error=None):
        return RecordResult(make_record(), None, outcome, error)

    def test_all_exact(self):
        results = [self.result(self.outcome(OutcomeKind.EXACT)) for _ in range(4)]
        agg = aggregate(results)
        assert agg.exact_rate == 1.0
        assert agg.overlap_rate == 1.0
        assert agg.mean_char_distance is None
        assert agg.mean_f1 == 1.0

    def test_char_distance_only_over_partials(self):
        results = [
            self.result(self.outcome(OutcomeKind.EXACT)),
            self.result(
                self.outcome(OutcomeKind.PARTIAL_OVERLAP, 0.5, 0.5, 0.5, dist=10)
            ),
            self.result(self.outcome(OutcomeKind.NO_OVERLAP, 0, 0, 0)),
        ]
        agg = aggregate(results)
        assert agg.mean_char_distance == 10.0
        assert agg.exact_count == 1
        assert agg.overlap_count == 2

    def test_permutation_invariance(self):
        results = [
            self.result(self.outcome(OutcomeKind.EXACT)),
            self.result(self.outcome(OutcomeKind.PARTIAL_OVERLAP, 0.4, 0.6, 0.48, dist=3)),
            self.result(self.outcome(OutcomeKind.WRONG_DELETION, 0, 0, 0)),
        ]
        rng = random.Random(1)
        reference = aggregate(results).to_json()
        for _ in range(5):
            shuffled = list(results)
            rng.shuffle(shuffled)
            got = aggregate(shuffled).to_json()
            got["records"] = reference["records"]
            assert got == reference

    def test_errors_counted(self):
        results = [
            self.result(self.outcome(OutcomeKind.EXACT)),
            self.result(None, error="RepoError: boom"),
        ]
        agg = aggregate(results)
        assert agg.errors == 1
        assert agg.scored == 1

    def test_empty(self):
        agg = aggregate([])
        assert isinstance(agg, Aggregates)
        assert agg.exact_rate == 0.0


def test_record_json_is_stable():
    obj = record_to_json(make_record())
    again = record_to_json(record_from_json(json.loads(json.dumps(obj))))
    assert obj == again


def test_evaluate_records_repo_errors_without_dying(tmp_path):
    from codemapper.evaluation import evaluate

    bad = EvalRecord(
        repo=str(tmp_path / "no-such-repo"),
        source=Region("a" * 40, "f.py", make_range(1, 1, 1, 2)),
        target_commit="b" * 40,
        expected=DELETED,
        name="broken",
    )
    report = evaluate([bad])
    assert report.aggregates.errors == 1
    assert report.aggregates.scored == 0
    assert report.results[0].error is not None
    assert report.results[0].outcome is None
    (record,) = report.to_json()["records"]
    assert record["error"].startswith(f"RepoError: no repository directory at {tmp_path}")
    assert record["predicted"] is None
    assert "outcome" not in record


@pytest.mark.parametrize("predicted", ["in another file", "deleted", "in the expected file"])
def test_expected_range_outside_its_file_is_a_record_error(repo_builder, predicted):
    first = repo_builder.commit({"f.py": "alpha\nbeta\n", "g.py": "gamma\n"})
    second = repo_builder.commit({"f.py": None} if predicted == "deleted" else {})
    source = Region(first, "f.py", make_range(2, 1, 2, 4))
    expected_file = "f.py" if predicted == "in the expected file" else "g.py"
    record = EvalRecord(
        repo=str(repo_builder.path),
        source=source,
        target_commit=second,
        expected=Region(second, expected_file, make_range(9, 1, 9, 1)),
    )
    result = evaluate_record(record, SelectionConfig())
    assert result.outcome is None
    assert result.error.startswith("OutOfBounds: start line 9 beyond file of ")


def test_clone_of_bare_repo_runs_codemapper_git(repo_builder, tmp_path, monkeypatch):
    sha = repo_builder.commit({"f.py": "alpha\nbeta\n"})
    bare = tmp_path / "origin.git"
    subprocess.run(
        ["git", "clone", "--quiet", "--bare", str(repo_builder.path), str(bare)],
        check=True,
        capture_output=True,
    )
    log = tmp_path / "git-calls.log"
    wrapper = tmp_path / "logging-git"
    wrapper.write_text(
        f'#!/bin/sh\necho "$1" >> "{log}"\nexec "{shutil.which("git")}" "$@"\n',
        encoding="utf-8",
    )
    wrapper.chmod(0o755)
    region = Region(sha, "f.py", make_range(2, 1, 2, 4))
    record = EvalRecord(repo=str(bare), source=region, target_commit=sha, expected=region)

    monkeypatch.setenv("CODEMAPPER_GIT", str(wrapper))
    result = evaluate_record(record, SelectionConfig(), cache_dir=tmp_path / "cache")

    assert result.error is None
    assert result.outcome.kind is OutcomeKind.EXACT
    calls = log.read_text(encoding="utf-8").split()
    assert calls[0] == "clone"
    assert "cat-file" in calls


def test_parallel_records_share_one_clone(repo_builder, tmp_path, git_wrapper, monkeypatch):
    sha = repo_builder.commit({"f.py": "alpha\nbeta\n"})
    bare = tmp_path / "origin.git"
    subprocess.run(
        ["git", "clone", "--quiet", "--bare", str(repo_builder.path), str(bare)],
        check=True,
        capture_output=True,
    )
    # A slow clone lets both jobs find the cache empty.
    wrapper = git_wrapper('[ "$1" = clone ] && sleep 0.5')
    region = Region(sha, "f.py", make_range(2, 1, 2, 4))
    records = [
        EvalRecord(repo=str(bare), source=region, target_commit=sha, expected=region, name=name)
        for name in ("a", "b")
    ]
    cache = tmp_path / "cache"
    monkeypatch.setenv("CODEMAPPER_GIT", wrapper)
    report = evaluate(records, jobs=2, cache_dir=cache)
    assert [result.error for result in report.results] == [None, None]
    assert report.aggregates.exact_count == 2
    assert len(list(cache.iterdir())) == 1  # the losing clone was removed


def test_failed_clone_is_a_record_error(tmp_path):
    record = EvalRecord(
        repo=str(tmp_path / "missing.git"),
        source=Region("a" * 40, "f.py", make_range(1, 1, 1, 2)),
        target_commit="b" * 40,
        expected=DELETED,
    )
    report = evaluate([record], cache_dir=tmp_path / "cache")
    assert report.aggregates.errors == 1
    assert report.results[0].error.startswith("RepoError: git clone")


def test_report_config_echoes_selection_config():
    config = SelectionConfig(context_lines=3, use_search=False)
    echoed = EvalReport(config, [], aggregate([])).to_json()["config"]
    assert echoed == {
        "context_lines": 3,
        "use_diff": True,
        "use_refinement": True,
        "use_movement": True,
        "use_search": False,
    }
