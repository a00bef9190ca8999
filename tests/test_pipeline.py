"""End-to-end mapping through real repositories."""

import time
from collections import Counter

import pytest

from codemapper import pipeline, regions
from codemapper.candidates import Origin
from codemapper.evaluation import ABLATION_VARIANTS, EvalRecord, evaluate_record, load_dataset
from codemapper.fixtures import build_corpus
from codemapper.gitio import GitGateway, NotFound, RepoError
from codemapper.pipeline import map_region
from codemapper.regions import DELETED, OutOfBounds, Region, extract_text, make_range
from codemapper.selector import SelectionConfig


def text(lines):
    return "".join(line + "\n" for line in lines)


BASE = text([f"line {i}" for i in range(1, 13)])


class TestMapRegion:
    def test_identical_commits_echo_region(self, repo_builder):
        sha = repo_builder.commit({"f.py": BASE})
        source = Region(sha, "f.py", make_range(3, 1, 4, 6))
        result = map_region(repo_builder.path, source, sha)
        assert result.target == Region(sha, "f.py", source.range)
        assert result.candidates[0].origin is Origin.DIFF

    def test_unchanged_region_shifts_with_insertion_above(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit(
            {"f.py": text(["new 1", "new 2"] + [f"line {i}" for i in range(1, 13)])}
        )
        source = Region(first, "f.py", make_range(6, 1, 8, 6))
        result = map_region(repo_builder.path, source, second)
        assert isinstance(result.target, Region)
        assert result.target.range == make_range(8, 1, 10, 6)

    def test_backward_mapping(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit(
            {"f.py": text(["new 1"] + [f"line {i}" for i in range(1, 13)])}
        )
        source = Region(second, "f.py", make_range(7, 1, 7, 6))
        result = map_region(repo_builder.path, source, first)
        assert result.target.range == make_range(6, 1, 6, 6)

    def test_deleted_file(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE, "keep.py": "k = 1\n"})
        repo_builder.commit({"f.py": None})
        third = repo_builder.commit({"keep.py": "k = 2\n"})
        source = Region(first, "f.py", make_range(1, 1, 1, 4))
        result = map_region(repo_builder.path, source, third)
        assert result.target is DELETED
        assert result.reason == "file_deleted"
        assert result.target_file is None

    def test_deleted_region(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit(
            {"f.py": text([f"line {i}" for i in range(1, 13) if i != 5])}
        )
        source = Region(first, "f.py", make_range(5, 1, 5, 6))
        result = map_region(repo_builder.path, source, second)
        assert result.target is DELETED
        assert result.reason is None

    def test_modified_token_refined(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit(
            {"f.py": BASE.replace("line 5", "line FIVE")}
        )
        # region: "5" in "line 5"
        source = Region(first, "f.py", make_range(5, 6, 5, 6))
        result = map_region(repo_builder.path, source, second)
        assert isinstance(result.target, Region)
        target_text = BASE.replace("line 5", "line FIVE")
        assert extract_text(target_text, result.target.range) == "FIVE"

    def test_rename_followed(self, repo_builder):
        first = repo_builder.commit({"old_name.py": BASE})
        repo_builder.commit({"old_name.py": None, "new_name.py": BASE})
        third = repo_builder.commit({"new_name.py": BASE.replace("line 11", "line XI")})
        source = Region(first, "old_name.py", make_range(2, 1, 2, 6))
        result = map_region(repo_builder.path, source, third)
        assert result.target_file == "new_name.py"
        assert result.target.range == make_range(2, 1, 2, 6)

    def test_moved_block_found_by_movement(self, repo_builder):
        filler = [f"filler {i} zzz" for i in range(8)]
        block = ["def moved():", "    return 42"]
        first = repo_builder.commit({"f.py": text(block + filler)})
        second = repo_builder.commit({"f.py": text(filler + block)})
        source = Region(first, "f.py", make_range(1, 1, 2, 13))
        result = map_region(repo_builder.path, source, second)
        assert result.candidates[0].origin is Origin.MOVEMENT
        got = extract_text(text(filler + block), result.target.range)
        assert got == "\n".join(block)

    def test_movement_detection_runs_once_with_every_report(self, repo_builder, monkeypatch):
        filler = [f"filler {i} zzz" for i in range(8)]
        block = ["def moved():", "    return 42"]
        first = repo_builder.commit({"f.py": text(block + filler)})
        second = repo_builder.commit({"f.py": text(filler + block)})
        parsed, calls = [], []
        parse, detect = pipeline.parse_word_diff, pipeline.detect_movements

        def counting_parse(report):
            parsed.append(report)
            return parse(report)

        def counting_detect(reports, *args):
            calls.append(len(reports))
            return detect(reports, *args)

        monkeypatch.setattr(pipeline, "parse_word_diff", counting_parse)
        monkeypatch.setattr(pipeline, "detect_movements", counting_detect)
        source = Region(first, "f.py", make_range(1, 1, 2, 13))
        result = map_region(repo_builder.path, source, second)
        assert result.selected.origin is Origin.MOVEMENT
        assert calls == [len(parsed)]

    def test_directory_source_path_is_not_found(self, repo_builder):
        repo_builder.commit({"pkg/m.py": BASE})
        repo_builder.commit({"pkg/m.py": BASE + "tail\n"})
        source = Region("HEAD~1", "pkg", make_range(3, 1, 3, 4))
        with pytest.raises(NotFound, match="'pkg' is a tree"):
            map_region(repo_builder.path, source, "HEAD")

    def test_directory_at_target_counts_as_missing(self, repo_builder):
        first = repo_builder.commit({"pkg": BASE})
        second = repo_builder.commit({"pkg": None, "pkg/m.py": "import os\n"})
        result = map_region(repo_builder.path, Region(first, "pkg", make_range(3, 1, 3, 4)), second)
        assert result.target is DELETED
        assert (result.target_file, result.reason) == (None, "file_deleted")

    def test_out_of_bounds_region_rejected(self, repo_builder):
        sha = repo_builder.commit({"f.py": BASE})
        source = Region(sha, "f.py", make_range(99, 1, 99, 2))
        with pytest.raises(OutOfBounds):
            map_region(repo_builder.path, source, sha)

    def test_unknown_commit_raises_repo_error(self, repo_builder):
        repo_builder.commit({"f.py": BASE})
        source = Region("f" * 40, "f.py", make_range(1, 1, 1, 4))
        with pytest.raises(RepoError):
            map_region(repo_builder.path, source, "f" * 40)

    def test_determinism(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 7", "line seven")})
        source = Region(first, "f.py", make_range(7, 1, 7, 6))
        one = map_region(repo_builder.path, source, second)
        two = map_region(repo_builder.path, source, second)
        assert one.target == two.target
        assert [c.range for c in one.candidates] == [c.range for c in two.candidates]
        assert [c.similarity for c in one.candidates] == [c.similarity for c in two.candidates]

    def test_candidates_ranked_best_first(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 3", "line III")})
        source = Region(first, "f.py", make_range(3, 1, 3, 6))
        result = map_region(repo_builder.path, source, second)
        scores = [c.similarity for c in result.candidates]
        assert scores == sorted(scores, reverse=True)
        assert result.region_of(result.selected) == result.target

    def test_ablation_baseline_diff_only(self, repo_builder):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 4", "line FOUR plus")})
        source = Region(first, "f.py", make_range(4, 1, 4, 6))
        config = SelectionConfig(
            context_lines=0, use_refinement=False, use_movement=False, use_search=False
        )
        result = map_region(repo_builder.path, source, second, config)
        assert all(c.origin is Origin.DIFF for c in result.candidates)
        # the raw coarse candidate covers the whole replaced line
        target_text = BASE.replace("line 4", "line FOUR plus")
        assert extract_text(target_text, result.target.range) == "line FOUR plus"

    def test_total_time_covers_the_whole_call(self, repo_builder, monkeypatch):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 7", "line seven")})
        real = GitGateway.read_objects
        calls = []

        def slow_first_read(self, names):
            if not calls:
                time.sleep(0.3)
            calls.append(names)
            return real(self, names)

        monkeypatch.setattr(GitGateway, "read_objects", slow_first_read)
        started = time.perf_counter()
        result = map_region(repo_builder.path, Region(first, "f.py", make_range(7, 1, 7, 6)), second)
        elapsed = time.perf_counter() - started
        assert 0.3 <= result.timings.total_s <= elapsed
        assert result.timings.total_s == pytest.approx(
            result.timings.candidates_s + result.timings.selection_s
        )

    def test_external_diff_tool_does_not_change_the_answer(self, repo_builder, monkeypatch):
        # A caller's GIT_EXTERNAL_DIFF that prints nothing would otherwise
        # leave every diff report empty and the token unrefined.
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 5", "line FIVE")})
        source = Region(first, "f.py", make_range(5, 6, 5, 6))
        clean = map_region(repo_builder.path, source, second)
        monkeypatch.setenv("GIT_EXTERNAL_DIFF", "true")
        assert map_region(repo_builder.path, source, second).target == clean.target

    def test_non_ascii_columns_count_codepoints(self, repo_builder):
        v1 = text(["# Maße prüfen", "wert = größe.alt", "print(wert)"])
        v2 = text(["# Maße prüfen", "wert = größe.neu", "print(wert)"])
        first = repo_builder.commit({"mess.py": v1})
        second = repo_builder.commit({"mess.py": v2})
        # region: "alt" after the non-ASCII identifier
        start = v1.split("\n")[1].index("alt") + 1
        source = Region(first, "mess.py", make_range(2, start, 2, start + 2))
        result = map_region(repo_builder.path, source, second)
        assert isinstance(result.target, Region)
        assert extract_text(v2, result.target.range) == "neu"

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"], ids=["form-feed", "U+2028"])
    def test_edit_on_a_line_holding_a_line_separator(self, repo_builder, separator):
        # Git splits its output at "\n" only; both characters stay inside
        # their fragment.
        before = text(["x = 1", f"total = compute(a){separator}# page", "y = 2"])
        after = before.replace("total", "amount")
        first = repo_builder.commit({"f.py": before})
        second = repo_builder.commit({"f.py": after})
        result = map_region(repo_builder.path, Region(first, "f.py", make_range(2, 1, 2, 5)), second)
        assert extract_text(after, result.target.range) == "amount"

    def test_crlf_content_is_normalized_consistently(self, repo_builder):
        first = repo_builder.commit({"f.txt": "alpha\r\nbravo\r\ncharlie\r\n"})
        second = repo_builder.commit({"f.txt": "intro\r\nalpha\r\nbravo\r\ncharlie\r\n"})
        source = Region(first, "f.txt", make_range(2, 1, 2, 5))
        result = map_region(repo_builder.path, source, second)
        assert result.target.range == make_range(3, 1, 3, 5)

    def test_pipeline_total_over_random_mutations(self, repo_builder):
        # The mapper must return a well-formed verdict for arbitrary edits:
        # a valid range within the target text, or a deletion verdict.
        import random

        rng = random.Random(4242)
        vocabulary = ["x = 1", "y = x", "print(y)", "", "# note", "return x", "if x:"]
        lines = [rng.choice(vocabulary) for _ in range(14)]
        base = text(lines)
        first = repo_builder.commit({"f.py": base})
        previous = base
        shas = []
        for round_no in range(8):
            mutated = previous.split("\n")[:-1]
            for _ in range(rng.randint(1, 5)):
                action = rng.random()
                if action < 0.4 and mutated:
                    mutated[rng.randrange(len(mutated))] = rng.choice(vocabulary)
                elif action < 0.7:
                    mutated.insert(rng.randint(0, len(mutated)), rng.choice(vocabulary))
                elif mutated:
                    mutated.pop(rng.randrange(len(mutated)))
            previous = text(mutated) if mutated else "stub\n"
            shas.append(repo_builder.commit({"f.py": previous}, f"round {round_no}"))

        source_lines = base.split("\n")
        checked = 0
        for target_sha in shas:
            for _ in range(4):
                l1 = rng.randint(1, len(source_lines) - 1)
                if not source_lines[l1 - 1]:
                    continue
                c1 = rng.randint(1, len(source_lines[l1 - 1]))
                c2 = rng.randint(c1, len(source_lines[l1 - 1]))
                source = Region(first, "f.py", make_range(l1, c1, l1, c2))
                result = map_region(repo_builder.path, source, target_sha)
                if isinstance(result.target, Region):
                    content = GitGateway(repo_builder.path).file_content(
                        target_sha, result.target.file
                    )
                    extract_text(content, result.target.range)  # must not raise
                scores = [c.similarity for c in result.candidates]
                assert scores == sorted(scores, reverse=True)
                checked += 1
        assert checked >= 16


def test_a_region_near_the_top_indexes_only_the_top_of_each_text(repo_builder, monkeypatch):
    """A 10k-line file edited near the top: mapping a region near the top
    at context 15 fills only the first blocks of each text's line index."""
    lines = [f"    value_{i} = compute(value_{i - 1}, {i})" for i in range(10_000)]
    first = repo_builder.commit({"big.py": text(lines)})
    lines[20] = "    value_20 = recompute(value_19, 20)"
    second = repo_builder.commit({"big.py": text(lines)})
    fills: dict[int, set[int]] = {}
    fill = regions._newlines

    def counting_fill(file_text, lo, hi):
        fills.setdefault(len(file_text), set()).add(lo)
        return fill(file_text, lo, hi)

    monkeypatch.setattr(regions, "_newlines", counting_fill)
    regions._starts.cache_clear()
    # "value_11 = compute(value_10, 11)": one search hit, no flood.
    source = Region(first, "big.py", make_range(12, 5, 12, 36))
    try:
        result = map_region(repo_builder.path, source, second)
    finally:
        regions._starts.cache_clear()
    assert result.target == Region(second, "big.py", source.range)
    size = len(text(lines))
    assert size // regions._BLOCK > 50
    assert len(fills) == 2  # the two texts differ in length
    assert all(len(blocks) <= 2 for blocks in fills.values())


def test_candidates_are_distinct_under_every_ablation(tmp_path):
    """The one dedup in map_region leaves each range, and the deleted
    verdict, at most once, whichever producers run; every range lies in the
    target text, in the target file."""
    build_corpus(tmp_path)
    records = load_dataset(tmp_path / "dataset.jsonl")
    for variant, overrides in ABLATION_VARIANTS:
        config = SelectionConfig(**overrides)
        for record in records:
            result = map_region(tmp_path / record.repo, record.source, record.target_commit, config)
            found = [c for c in result.candidates if not c.is_deleted]
            assert len({c.range for c in found}) == len(found), (variant, record.name)
            assert len(result.candidates) - len(found) <= 1, (variant, record.name)
            for c in found:
                regions.to_abs_interval(result.target_text, c.range)  # must not raise
                assert result.region_of(c).file == result.target_file


class TestGitProcessBudget:
    """The git commands one mapping runs, logged by a CODEMAPPER_GIT wrapper."""

    @pytest.fixture
    def logged(self, git_wrapper, tmp_path, monkeypatch):
        """Call it once the repository is built: from then on git runs
        through the logging wrapper. Returns the function that takes the log."""
        log = tmp_path / "git.log"
        wrapper = git_wrapper(f'echo "$*" >> "{log}"')

        def take() -> list[list[str]]:
            calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
            log.unlink()
            return calls

        def start():
            monkeypatch.setenv("CODEMAPPER_GIT", wrapper)
            return take

        return start

    def test_file_in_place(self, repo_builder, logged):
        first = repo_builder.commit({"f.py": BASE})
        second = repo_builder.commit({"f.py": BASE.replace("line 7", "line seven")})
        take = logged()
        map_region(repo_builder.path, Region(first, "f.py", make_range(7, 1, 7, 6)), second)
        calls = take()
        assert Counter(call[0] for call in calls) == {"cat-file": 1, "diff": 4}
        assert all("--indent-heuristic" in call for call in calls if call[0] == "diff")
        # The repository's cat-file reader outlives the mapping.
        map_region(repo_builder.path, Region(first, "f.py", make_range(3, 1, 3, 6)), second)
        assert Counter(call[0] for call in take()) == {"diff": 4}

    def test_unchanged_file_runs_no_diffs(self, repo_builder, logged):
        first = repo_builder.commit({"f.py": BASE, "g.py": BASE})
        second = repo_builder.commit({"g.py": BASE.replace("line 7", "line seven")})
        source = Region(first, "f.py", make_range(7, 1, 7, 6))
        take = logged()
        result = map_region(repo_builder.path, source, second)
        assert Counter(call[0] for call in take()) == {"cat-file": 1}
        assert result.target == Region(second, "f.py", source.range)
        assert result.candidates[0].origin is Origin.DIFF

    def test_moved_file_adds_only_rename_tracking(self, repo_builder, logged):
        first = repo_builder.commit({"old_name.py": BASE})
        repo_builder.commit({"old_name.py": None, "new_name.py": BASE})
        third = repo_builder.commit({"new_name.py": BASE.replace("line 11", "line XI")})
        # Rename tracking: one merge base, one listing of the range without
        # rename detection, and `-M` on the one commit that deletes the
        # file; the renamed file is read by the first mapping's cat-file.
        forward = Region(first, "old_name.py", make_range(2, 1, 2, 6))
        take = logged()
        result = map_region(repo_builder.path, forward, third)
        assert result.target_file == "new_name.py"
        calls = take()
        assert Counter(call[0] for call in calls) == {
            "cat-file": 1, "diff": 4, "merge-base": 1, "log": 2,
        }
        assert sum("-M" in call for call in calls) == 1
        # That commit's renames are kept with the reader, so crossing it
        # again, in either direction, needs no `-M`.
        backward = Region(third, "new_name.py", make_range(2, 1, 2, 6))
        result = map_region(repo_builder.path, backward, first)
        assert result.target_file == "old_name.py"
        calls = take()
        assert Counter(call[0] for call in calls) == {"diff": 4, "merge-base": 1, "log": 1}
        assert not any("-M" in call for call in calls)

    def test_evaluation_adds_nothing(self, repo_builder, logged):
        first = repo_builder.commit({"f.py": BASE, "g.py": BASE})
        second = repo_builder.commit({"f.py": text(["head"]) + BASE})
        source = Region(first, "f.py", make_range(7, 1, 7, 6))
        take = logged()
        map_region(repo_builder.path, source, second)
        take()
        # Only the mapping's own diffs: the expected file, whether or not it
        # is the mapped one, is read by the reader the first mapping started.
        for expected_file, exact in [("f.py", True), ("g.py", False)]:
            expected = Region(second, expected_file, make_range(8, 1, 8, 6))
            record = EvalRecord(str(repo_builder.path), source, second, expected)
            result = evaluate_record(record, SelectionConfig())
            assert result.outcome.is_exact == exact
            assert Counter(call[0] for call in take()) == {"diff": 4}
