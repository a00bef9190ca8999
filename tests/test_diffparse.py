"""Diff parsing: hunks and porcelain word fragments, reconstruction."""

import random

import pytest

from codemapper.diffparse import FragmentKind, Hunk, MalformedDiff, parse_word_diff
from codemapper.gitio import Algorithm, GitGateway

MYERS = (Algorithm.MYERS,)


@pytest.fixture
def gateway(tmp_path):
    return GitGateway(tmp_path)


def myers_hunks(gateway, source, target):
    return parse_word_diff(gateway.diff_texts(source, target, algorithms=MYERS)[0])


class TestParseLineDiff:
    """Line-level hunk bounds, as read from the word diff's @@ headers."""

    def test_empty_report(self):
        assert parse_word_diff("") == []

    def test_replaced_line(self, gateway):
        source = "".join(f"l{i}\n" for i in range(1, 10))
        target = source.replace("l7", "L7")
        hunks = myers_hunks(gateway, source, target)
        assert len(hunks) == 1
        hunk = hunks[0]
        assert (hunk.source_start, hunk.source_end) == (7, 7)
        assert (hunk.target_start, hunk.target_end) == (7, 7)
        assert [(u.source_line, u.target_line) for u in hunk.line_fragments] == [(7, 7)]

    def test_pure_deletion_encodes_empty_target(self, gateway):
        source = "a\nb\nc\nd\ne\n"
        target = "a\nb\ne\n"
        hunks = myers_hunks(gateway, source, target)
        assert len(hunks) == 1
        hunk = hunks[0]
        assert (hunk.source_start, hunk.source_end) == (3, 4)
        assert hunk.target_end == hunk.target_start - 1
        assert hunk.target_is_empty

    def test_pure_insertion_encodes_empty_source(self, gateway):
        source = "a\nb\n"
        target = "a\nx\ny\nb\n"
        hunk = myers_hunks(gateway, source, target)[0]
        assert hunk.source_is_empty
        assert hunk.source_end == hunk.source_start - 1
        assert (hunk.target_start, hunk.target_end) == (2, 3)

    def test_malformed_header(self):
        with pytest.raises(MalformedDiff):
            parse_word_diff("--- a/f\n+++ b/f\n@@ bogus @@\n-x\n~\n")

    def test_no_newline_marker_skipped(self, gateway):
        units = myers_hunks(gateway, "one", "two")[0].line_fragments
        assert [(u.source_text, u.target_text) for u in units] == [("one", "two")]


def replay_ops(source_lines: list[str], hunks: list[Hunk]) -> list[str]:
    """Splice each hunk's target-side units into the source."""
    out = []
    consumed = 0
    for hunk in sorted(hunks, key=lambda h: h.source_start):
        out.extend(source_lines[consumed : hunk.source_start - 1])
        consumed = hunk.source_end if not hunk.source_is_empty else hunk.source_start - 1
        added = sorted(
            (u for u in hunk.line_fragments if u.target_line is not None),
            key=lambda u: u.target_line,
        )
        out.extend(u.target_text for u in added)
    out.extend(source_lines[consumed:])
    return out


class TestReconstruction:
    def test_replay_reproduces_target(self, gateway):
        rng = random.Random(7)
        vocabulary = ["alpha", "beta", "gamma", "delta", "x = 1", "return y", ""]
        for _ in range(25):
            source_lines = [rng.choice(vocabulary) for _ in range(rng.randint(1, 14))]
            target_lines = list(source_lines)
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["insert", "delete", "replace"])
                if kind == "insert":
                    target_lines.insert(rng.randint(0, len(target_lines)), rng.choice(vocabulary))
                elif target_lines:
                    index = rng.randrange(len(target_lines))
                    if kind == "delete":
                        target_lines.pop(index)
                    else:
                        target_lines[index] = target_lines[index] + " edited"
            source = "".join(line + "\n" for line in source_lines)
            target = "".join(line + "\n" for line in target_lines)
            reports = gateway.diff_texts(source, target, algorithms=MYERS)
            if not reports:
                assert source == target
                continue
            hunks = parse_word_diff(reports[0])
            assert replay_ops(source_lines, hunks) == target_lines


class TestParseWordDiff:
    def test_token_replacement_fragments(self, gateway):
        source = "x = values.old\n"
        target = "x = values.updated\n"
        report = gateway.diff_texts(source, target, algorithms=MYERS)[0]
        hunks = parse_word_diff(report)
        assert len(hunks) == 1
        lines = hunks[0].line_fragments
        assert len(lines) == 1
        fragments = [(f.kind, f.text) for f in lines[0].fragments]
        assert fragments == [
            (FragmentKind.UNCHANGED, "x = values."),
            (FragmentKind.DELETED, "old"),
            (FragmentKind.ADDED, "updated"),
        ]
        assert lines[0].source_line == 1 and lines[0].target_line == 1

    def test_fully_added_line(self, gateway):
        report = gateway.diff_texts("a\nb\n", "a\nnew line\nb\n", algorithms=MYERS)[0]
        lines = parse_word_diff(report)[0].line_fragments
        assert len(lines) == 1
        assert [f.kind for f in lines[0].fragments] == [FragmentKind.ADDED]
        assert lines[0].target_line == 2 and lines[0].source_line is None

    def test_fully_deleted_line(self, gateway):
        report = gateway.diff_texts("a\ngone\nb\n", "a\nb\n", algorithms=MYERS)[0]
        lines = parse_word_diff(report)[0].line_fragments
        assert [f.kind for f in lines[0].fragments] == [FragmentKind.DELETED]
        assert lines[0].source_line == 2 and lines[0].target_line is None

    def test_replacement_pairs_lines(self, gateway):
        source = "one\ntwo\nthree\nfour\nfive\n"
        target = "one\nTWO changed\nnew line\nfour\nfive\n"
        report = gateway.diff_texts(source, target, algorithms=MYERS)[0]
        lines = parse_word_diff(report)[0].line_fragments
        by_source = {l.source_line: l for l in lines if l.source_line}
        by_target = {l.target_line: l for l in lines if l.target_line}
        assert set(by_source) == {2, 3}
        assert set(by_target) == {2, 3}

    def test_empty_line_units_consume_quota(self, gateway):
        report = gateway.diff_texts("x\n\ny\n", "x\ny\n", algorithms=MYERS)[0]
        lines = parse_word_diff(report)[0].line_fragments
        assert len(lines) == 1
        assert lines[0].fragments == ()
        assert lines[0].source_line == 2 and lines[0].target_line is None

    def test_target_side_reconstruction_is_exact(self, gateway):
        rng = random.Random(21)
        tokens = ["foo", "bar", "baz", "qux", "value", "x1"]
        for _ in range(20):
            source_words = [rng.choice(tokens) for _ in range(rng.randint(2, 6))]
            target_words = list(source_words)
            target_words[rng.randrange(len(target_words))] = rng.choice(tokens) + "_new"
            source = " ".join(source_words) + "\n"
            target = " ".join(target_words) + "\n"
            reports = gateway.diff_texts(source, target, algorithms=MYERS)
            if not reports:
                continue
            for hunk in parse_word_diff(reports[0]):
                for line in hunk.line_fragments:
                    if line.target_line is not None:
                        assert line.target_text == target.split("\n")[line.target_line - 1]
                    if line.source_line is not None:
                        assert line.source_text == source.split("\n")[line.source_line - 1]
