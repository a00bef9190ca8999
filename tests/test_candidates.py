"""Candidate extraction: classification, offset accounting, refinement."""

import random

import pytest

from codemapper.candidates import (
    Candidate,
    Origin,
    OverlapKind,
    classify_overlap,
    dedup_candidates,
    extract_diff_candidates,
    refine_endpoints,
)
from codemapper.diffparse import Hunk, align, parse_word_diff
from codemapper.gitio import Algorithm, GitGateway
from codemapper.regions import DELETED, extract_text, make_range

MYERS = (Algorithm.MYERS,)


def hunk(hs, he, ts=1, te=1):
    return Hunk(hs, he, ts, te)


class TestClassifyOverlap:
    def test_fully_covered(self):
        kind = classify_overlap(hunk(5, 10), make_range(6, 1, 8, 3))
        assert kind is OverlapKind.FULLY_COVERED

    def test_top(self):
        assert classify_overlap(hunk(5, 7), make_range(6, 1, 10, 3)) is OverlapKind.TOP

    def test_bottom(self):
        assert classify_overlap(hunk(8, 12), make_range(6, 1, 10, 3)) is OverlapKind.BOTTOM

    def test_middle(self):
        assert classify_overlap(hunk(7, 8), make_range(6, 1, 10, 3)) is OverlapKind.MIDDLE

    def test_disjoint(self):
        assert classify_overlap(hunk(20, 22), make_range(6, 1, 8, 3)) is OverlapKind.DISJOINT

    def test_insertion_inside_region_is_middle(self):
        # Empty source block between region lines splits its interior.
        assert classify_overlap(hunk(8, 7), make_range(6, 1, 10, 3)) is OverlapKind.MIDDLE

    def test_insertion_above_region_is_disjoint(self):
        assert classify_overlap(hunk(6, 5), make_range(6, 1, 10, 3)) is OverlapKind.DISJOINT

    def test_exhaustive_totality_small(self):
        predicates = {
            OverlapKind.FULLY_COVERED: lambda hs, he, r1, r2: hs <= r1 and he >= r2,
            OverlapKind.TOP: lambda hs, he, r1, r2: hs <= r1 <= he < r2,
            OverlapKind.BOTTOM: lambda hs, he, r1, r2: r1 < hs <= r2 <= he,
            OverlapKind.MIDDLE: lambda hs, he, r1, r2: r1 < hs and he < r2,
        }
        for hs in range(1, 7):
            for he in range(hs - 1, 7):
                for r1 in range(1, 7):
                    for r2 in range(r1, 7):
                        holds = [k for k, p in predicates.items() if p(hs, he, r1, r2)]
                        assert len(holds) <= 1
                        got = classify_overlap(hunk(hs, he), make_range(r1, 1, r2, 1))
                        expected = holds[0] if holds else OverlapKind.DISJOINT
                        assert got is expected


def lines_to_text(lines):
    return "".join(line + "\n" for line in lines)


@pytest.fixture
def gateway(tmp_path):
    return GitGateway(tmp_path)


def run_extraction(gateway, source, target, rng, refine=True):
    reports = gateway.diff_texts(source, target, algorithms=MYERS)
    parsed = tuple(tuple(parse_word_diff(r)) for r in reports)
    return extract_diff_candidates(parsed, rng, source, target, refine=refine)


class TestExtraction:
    def test_pure_offset_shift(self, gateway):
        source = lines_to_text([f"s{i}" for i in range(1, 12)])
        target = lines_to_text(["new a", "new b"] + [f"s{i}" for i in range(1, 12)])
        rng = make_range(6, 1, 8, 2)
        candidates = run_extraction(gateway, source, target, rng)
        assert candidates
        best = candidates[0]
        assert best.range == make_range(8, 1, 10, 2)
        assert extract_text(target, best.range) == extract_text(source, rng)

    def test_whole_block_deleted_yields_only_the_deleted_candidate(self, gateway):
        source = lines_to_text(["keep1", "gone a", "gone b", "keep2"])
        target = lines_to_text(["keep1", "keep2"])
        candidates = run_extraction(gateway, source, target, make_range(2, 1, 3, 6))
        assert len(candidates) == 1
        assert candidates[0].is_deleted
        assert candidates[0].origin is Origin.DIFF
        assert candidates[0].source_hunk is not None

    def test_refinement_strips_shared_prefix_token(self, gateway):
        # A modified line where only the token after the dot changes: the
        # refined candidate covers exactly the replacement token.
        source = lines_to_text(["before", "x = values.old", "after"])
        target = lines_to_text(["before", "x = values.updated", "after"])
        rng = make_range(2, 12, 2, 14)  # "old"
        candidates = run_extraction(gateway, source, target, rng)
        texts = [extract_text(target, c.range) for c in candidates if not c.is_deleted]
        assert "updated" in texts

    def test_unrefined_candidate_covers_whole_line(self, gateway):
        source = lines_to_text(["before", "x = values.old", "after"])
        target = lines_to_text(["before", "x = values.updated", "after"])
        rng = make_range(2, 12, 2, 14)
        candidates = run_extraction(gateway, source, target, rng, refine=False)
        texts = [extract_text(target, c.range) for c in candidates if not c.is_deleted]
        assert texts == ["x = values.updated"]

    def test_middle_insertion_grows_region(self, gateway):
        source = lines_to_text(["a", "b", "c", "d", "e"])
        target = lines_to_text(["a", "b", "INSERTED", "c", "d", "e"])
        rng = make_range(2, 1, 4, 1)  # b..d
        candidates = run_extraction(gateway, source, target, rng)
        best = candidates[0]
        assert best.range == make_range(2, 1, 5, 1)
        assert extract_text(target, best.range) == "b\nINSERTED\nc\nd"

    def test_top_overlap(self, gateway):
        source = lines_to_text(["ctx1", "old a", "old b", "tail 1", "tail 2", "ctx2"])
        target = lines_to_text(["ctx1", "new a", "tail 1", "tail 2", "ctx2"])
        rng = make_range(2, 1, 5, 6)  # old a .. tail 2
        candidates = run_extraction(gateway, source, target, rng)
        best_texts = [extract_text(target, c.range) for c in candidates if not c.is_deleted]
        assert any(t.endswith("tail 1\ntail 2") for t in best_texts)

    def test_bottom_overlap(self, gateway):
        source = lines_to_text(["ctx1", "head 1", "head 2", "old a", "old b", "ctx2"])
        target = lines_to_text(["ctx1", "head 1", "head 2", "new a", "ctx2"])
        rng = make_range(2, 1, 5, 5)
        candidates = run_extraction(gateway, source, target, rng)
        best_texts = [extract_text(target, c.range) for c in candidates if not c.is_deleted]
        assert any(t.startswith("head 1\nhead 2") for t in best_texts)

    def test_changed_first_and_last_lines_join_into_one_candidate(self, gateway):
        # A top hunk and a bottom hunk around an unchanged middle line: each
        # gives its refined half, and the two halves join.
        source = lines_to_text(["ctx", "alpha = old_a", "middle", "omega = old_b", "ctx2"])
        target = lines_to_text(["ctx", "alpha = new_a", "middle", "omega = new_b", "ctx2"])
        candidates = run_extraction(gateway, source, target, make_range(2, 9, 4, 13))
        assert [c.range for c in candidates] == [
            make_range(2, 9, 3, 6),  # top
            make_range(3, 1, 4, 13),  # bottom
            make_range(2, 9, 4, 13),  # joined
        ]
        assert extract_text(target, candidates[2].range) == "new_a\nmiddle\nomega = new_b"

    def test_top_candidate_stops_above_a_middle_hunk(self, gateway):
        # The top candidate ends at the end of the last source line above
        # the middle hunk; the flank candidate spans the whole region.
        source = lines_to_text(["ctx", "alpha = old_a", "keep one", "x = 1", "keep two", "tail"])
        target = lines_to_text(["ctx", "alpha = new_a", "keep one", "x = 2", "keep two", "tail"])
        candidates = run_extraction(gateway, source, target, make_range(2, 9, 6, 2))
        assert [c.range for c in candidates] == [
            make_range(2, 9, 3, 8),
            make_range(2, 9, 6, 2),
        ]
        assert extract_text(target, candidates[0].range) == "new_a\nkeep one"

    def test_dedup_keeps_first_origin(self):
        rng = make_range(1, 1, 1, 3)
        cands = [
            Candidate(rng, Origin.DIFF),
            Candidate(rng, Origin.SEARCH),
            Candidate(DELETED, Origin.DIFF),
            Candidate(DELETED, Origin.DIFF),
        ]
        deduped = dedup_candidates(cands)
        assert len(deduped) == 2
        assert deduped[0].origin is Origin.DIFF


class TestRefineDirect:
    """Direct refinement checks on hand-built and git-made alignments."""

    SOURCE = lines_to_text(["before", "x = values.old", "after"])
    TARGET = lines_to_text(["before", "x = values.updated", "after"])

    def fig4_parts(self):
        ref = Hunk(2, 2, 2, 2, body=" x = values.\n-old\n+updated\n~")
        coarse = make_range(2, 1, 2, 18)
        return align(ref, self.SOURCE, self.TARGET), coarse

    def test_refine_start_excludes_shared_prefix(self):
        alignment, coarse = self.fig4_parts()
        rng = make_range(2, 12, 2, 14)
        refined = refine_endpoints(rng, alignment, coarse, self.SOURCE, self.TARGET, ("start",))
        assert (refined.l1, refined.c1) == (2, 12)

    def test_refine_end_keeps_whole_replacement(self):
        alignment, coarse = self.fig4_parts()
        rng = make_range(2, 12, 2, 14)
        refined = refine_endpoints(rng, alignment, coarse, self.SOURCE, self.TARGET, ("end",))
        assert (refined.l2, refined.c2) == (2, 18)

    def test_start_at_column_one_of_rewritten_line(self):
        source, target = "entire old line\n", "brand new text\n"
        ref = Hunk(1, 1, 1, 1, body="-entire old line\n+brand new text\n~")
        coarse = make_range(1, 1, 1, 14)
        alignment = align(ref, source, target)
        refined = refine_endpoints(make_range(1, 1, 1, 15), alignment, coarse, source, target, ("start",))
        assert (refined.l1, refined.c1) == (1, 1)

    def test_no_delete_returns_coarse(self):
        source, target = "", "added only\n"
        alignment = align(Hunk(1, 0, 1, 1, body="+added only\n~"), source, target)  # pure insertion
        coarse = make_range(1, 1, 1, 10)
        region = make_range(1, 1, 1, 5)
        for ends in [("start",), ("end",), ("start", "end")]:
            assert refine_endpoints(region, alignment, coarse, source, target, ends) == coarse

    def test_mid_line_substitution(self, gateway):
        # "aa bb cc" -> "aa XX cc" with the region covering "bb cc"
        source = "aa bb cc\n"
        target = "aa XX cc\n"
        report = gateway.diff_texts(source, target, algorithms=MYERS)[0]
        alignment = align(parse_word_diff(report)[0], source, target)
        coarse = make_range(1, 1, 1, 8)
        rng = make_range(1, 4, 1, 8)
        refined = refine_endpoints(rng, alignment, coarse, source, target, ("start",))
        assert (refined.l1, refined.c1) == (1, 4)
        assert refine_endpoints(rng, alignment, refined, source, target, ("end",)) == rng
        assert refine_endpoints(rng, alignment, coarse, source, target) == rng

    def test_mirrored_suffix_case(self, gateway):
        # "old.values" -> "updated.values", region "old": the end refinement
        # must stop before ".values".
        source = "old.values\n"
        target = "updated.values\n"
        report = gateway.diff_texts(source, target, algorithms=MYERS)[0]
        alignment = align(parse_word_diff(report)[0], source, target)
        coarse = make_range(1, 1, 1, 14)
        rng = make_range(1, 1, 1, 3)
        refined = refine_endpoints(rng, alignment, coarse, source, target)
        assert extract_text(target, refined) == "updated"

    def test_whitespace_start_counts_from_its_kept_neighbour(self, gateway):
        source = "if a:\n    x = old\n"
        target = "if a:\n    x = new\n"
        report = gateway.diff_texts(source, target, algorithms=MYERS)[0]
        alignment = align(parse_word_diff(report)[0], source, target)
        coarse = make_range(2, 1, 2, 11)
        refined = refine_endpoints(make_range(2, 1, 2, 11), alignment, coarse, source, target, ("start",))
        assert refined == coarse
        refined = refine_endpoints(make_range(2, 8, 2, 11), alignment, coarse, source, target, ("start",))
        assert (refined.l1, refined.c1) == (2, 8)

    @pytest.mark.parametrize(
        "source, target, rng, expected",
        [
            # A leading indent before a renamed first word.
            ("    total = compute(a, 3)\n", "    amount = compute(a, 3)\n", (1, 1, 1, 25), (1, 1, 1, 26)),
            # A leading indent before an inserted first word.
            ("    x = 1\n", "    y, x = 1\n", (1, 1, 1, 9), (1, 1, 1, 12)),
            # A leading indent that shrank, then vanished.
            ("    x = 1\n", "  x = 1\n", (1, 3, 1, 9), (1, 3, 1, 7)),
            ("    x = 1\n", "x = 1\n", (1, 3, 1, 9), (1, 1, 1, 5)),
            # The end is the space after "x": the nearer kept "b" lies behind
            # the renamed word, the kept "=" on the side with no deleted text.
            ("ab x      = 1\n", "ab yyyy      = 1\n", (1, 4, 1, 5), (1, 4, 1, 8)),
        ],
    )
    def test_whitespace_endpoint(self, gateway, source, target, rng, expected):
        report = gateway.diff_texts(source, target, algorithms=MYERS)[0]
        alignment = align(parse_word_diff(report)[0], source, target)
        coarse = make_range(1, 1, 1, len(target) - 1)
        rng = make_range(*rng)
        assert refine_endpoints(rng, alignment, coarse, source, target) == make_range(*expected)


class TestRenameBelowInsertedLine:
    """A token renamed on a line that git's word diff joins to a new line
    inserted directly above it."""

    def test_renamed_token_stays_on_its_line(self, gateway):
        source = lines_to_text(["def f(a):", "    x = 1", "    total = compute(a, 3)", "    return x"])
        target = lines_to_text(
            ["def f(a):", "    x = 1", "    y = x + 2", "    amount = compute(a, 3)", "    return x"]
        )
        candidates = run_extraction(gateway, source, target, make_range(3, 5, 3, 9))
        assert candidates[0].range == make_range(4, 5, 4, 10)
        assert extract_text(target, candidates[0].range) == "amount"

    def test_token_below_a_blank_line_that_became_statements(self, gateway):
        # An empty source line replaced by two statements, and a rename on
        # the next line: the word diff holds no fragment for the empty line.
        source = lines_to_text(
            [
                "    delta_a = lookup(zq_alpha, index_b)",
                "",
                "    cursor_a = lookup(zq_alpha, entry_b)",
                "    item_a = lookup(zq_beta, slot_b)",
            ]
        )
        target = lines_to_text(
            [
                "    delta_a = lookup(zq_alpha, index_b)",
                "    buffer_a += queue_b * 779",
                "    if token_a > 542:",
                "    value_a = lookup(zq_alpha, entry_b)",
                "    item_a = lookup(zq_beta, slot_b)",
            ]
        )
        candidates = run_extraction(gateway, source, target, make_range(3, 23, 3, 30))
        assert extract_text(source, make_range(3, 23, 3, 30)) == "zq_alpha"
        assert candidates[0].range == make_range(4, 22, 4, 29)


class TestOffsetAccountingOracle:
    def test_random_edit_scripts_above_and_below(self, gateway):
        rng = random.Random(11)
        for _ in range(40):
            size = rng.randint(8, 20)
            lines = [f"line {i} {rng.choice('abcdef')}" for i in range(size)]
            r1 = rng.randint(3, size - 3)
            r2 = min(size - 2, r1 + rng.randint(0, 2))
            region = make_range(r1, 1, r2, len(lines[r2 - 1]))
            marked = lines[r1 - 1 : r2]

            target_lines = list(lines)
            tracked_first = r1
            for _ in range(rng.randint(1, 5)):
                # whole-line edits strictly above or below the tracked block
                tracked_last = tracked_first + (r2 - r1)
                above = rng.random() < 0.5
                if above and tracked_first > 1:
                    where = rng.randint(0, tracked_first - 2)
                elif tracked_last < len(target_lines):
                    where = rng.randint(tracked_last, len(target_lines))
                    above = False
                else:
                    continue
                if rng.random() < 0.5:
                    target_lines.insert(where, f"inserted {rng.random():.3f}")
                    if above:
                        tracked_first += 1
                elif where < len(target_lines) and (
                    where < tracked_first - 1 or where >= tracked_last
                ):
                    if target_lines[where] in marked and not above:
                        continue
                    del target_lines[where]
                    if above:
                        tracked_first -= 1

            source = lines_to_text(lines)
            target = lines_to_text(target_lines)
            # Unrefined, so only the offset accounting places the block.
            candidates = run_extraction(gateway, source, target, region, refine=False)
            extracted = [
                extract_text(target, c.range)
                for c in candidates
                if not c.is_deleted
            ]
            assert "\n".join(marked) in extracted
