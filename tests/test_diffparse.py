"""Diff parsing: hunk bounds, and word fragments placed on the real texts."""

import random

import pytest

from codemapper.diffparse import Hunk, MalformedDiff, WordAlignment, align, parse_word_diff
from codemapper.gitio import Algorithm, GitGateway

MYERS = (Algorithm.MYERS,)


@pytest.fixture
def gateway(tmp_path):
    return GitGateway(tmp_path)


def myers_hunks(gateway, source, target):
    return parse_word_diff(gateway.diff_texts(source, target, algorithms=MYERS)[0])


def kept_pairs(alignment: WordAlignment) -> list[tuple[int, int]]:
    """(source offset, target offset) of every kept character."""
    return [
        (alignment.source_start + i, t) for i, t in enumerate(alignment.kept) if t >= 0
    ]


def kept_text(alignment: WordAlignment, source: str) -> str:
    return "".join(source[s] for s, _ in kept_pairs(alignment))


def blocks(alignment: WordAlignment, source: str, target: str) -> tuple[str, str]:
    return (
        source[alignment.source_start : alignment.source_end],
        target[alignment.target_start : alignment.target_end],
    )


def fragment_text(hunk: Hunk, tags: str) -> str:
    return "".join(line[1:] for line in hunk.body.split("\n") if line[:1] and line[0] in tags)


def non_space(text: str) -> str:
    return "".join(c for c in text if not c.isspace())


class TestParseLineDiff:
    """Line-level hunk bounds, as read from the word diff's @@ headers."""

    def test_empty_report(self):
        assert parse_word_diff("") == []

    def test_a_report_without_a_hunk_is_malformed(self):
        with pytest.raises(MalformedDiff, match="no hunk"):
            parse_word_diff("warning: something\n")

    def test_replaced_line(self, gateway):
        source = "".join(f"l{i}\n" for i in range(1, 10))
        target = source.replace("l7", "L7")
        hunks = myers_hunks(gateway, source, target)
        assert len(hunks) == 1
        hunk = hunks[0]
        assert (hunk.source_start, hunk.source_end) == (7, 7)
        assert (hunk.target_start, hunk.target_end) == (7, 7)
        alignment = align(hunk, source, target)
        assert blocks(alignment, source, target) == ("l7\n", "L7\n")
        assert kept_pairs(alignment) == []

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
        assert hunk.source_end == hunk.source_start - 1
        assert (hunk.target_start, hunk.target_end) == (2, 3)

    def test_malformed_header(self):
        with pytest.raises(MalformedDiff):
            parse_word_diff("--- a/f\n+++ b/f\n@@ bogus @@\n-x\n~\n")

    def test_no_newline_marker_skipped(self, gateway):
        hunk = myers_hunks(gateway, "one", "two")[0]
        alignment = align(hunk, "one", "two")
        assert blocks(alignment, "one", "two") == ("one", "two")
        assert kept_pairs(alignment) == []


def replay(source: str, target: str, hunks: list[Hunk]) -> str:
    """Splice each hunk's aligned target block over its source block."""
    out, consumed = [], 0
    for hunk in hunks:
        alignment = align(hunk, source, target)
        out.append(source[consumed : alignment.source_start])
        out.append(target[alignment.target_start : alignment.target_end])
        consumed = alignment.source_end
    out.append(source[consumed:])
    return "".join(out)


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
            assert replay(source, target, parse_word_diff(reports[0])) == target


class TestParseWordDiff:
    def test_token_replacement_fragments(self, gateway):
        source = "x = values.old\n"
        target = "x = values.updated\n"
        (hunk,) = myers_hunks(gateway, source, target)
        alignment = align(hunk, source, target)
        # "x = values." is kept in place; "old" is deleted.
        assert kept_pairs(alignment) == [(i, i) for i in range(11) if source[i] != " "]
        assert list(alignment.kept[11:14]) == [-1, -1, -1]

    def test_fully_added_line(self, gateway):
        source, target = "a\nb\n", "a\nnew line\nb\n"
        (hunk,) = myers_hunks(gateway, source, target)
        alignment = align(hunk, source, target)
        assert blocks(alignment, source, target) == ("", "new line\n")
        assert kept_pairs(alignment) == []

    def test_fully_deleted_line(self, gateway):
        source, target = "a\ngone\nb\n", "a\nb\n"
        (hunk,) = myers_hunks(gateway, source, target)
        alignment = align(hunk, source, target)
        assert blocks(alignment, source, target) == ("gone\n", "")
        assert kept_pairs(alignment) == []

    def test_kept_word_below_an_inserted_line(self, gateway):
        # The renamed line's indent is reported as unchanged text of the
        # inserted line; its kept words still land on the renamed line.
        source = "a\n    total = compute(a, 3)\nb\n"
        target = "a\n    y = x + 2\n    amount = compute(a, 3)\nb\n"
        (hunk,) = myers_hunks(gateway, source, target)
        alignment = align(hunk, source, target)
        equals = source.index("=")
        assert alignment.kept[equals - alignment.source_start] == target.index("= compute")

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
                alignment = align(hunk, source, target)
                source_block, target_block = blocks(alignment, source, target)
                assert fragment_text(hunk, " +") == target_block.replace("\n", "")
                assert non_space(fragment_text(hunk, " -")) == non_space(source_block)
                assert all(source[s] == target[t] for s, t in kept_pairs(alignment))

    def test_fragment_not_in_the_texts_raises(self):
        hunk = Hunk(1, 1, 1, 1, body=" x = \n-old\n+new\n~")
        assert kept_text(align(hunk, "x = old\n", "x = new\n"), "x = old\n") == "x="
        with pytest.raises(MalformedDiff):
            align(hunk, "x = odd\n", "x = new\n")
        with pytest.raises(MalformedDiff):
            align(hunk, "x = old\n", "x = newer\n")
        with pytest.raises(MalformedDiff):
            align(hunk, "x = old tail\n", "x = new\n")
        with pytest.raises(MalformedDiff):
            align(Hunk(1, 1, 1, 1, body="?x\n~"), "x\n", "x\n")


# Characters that git's word regex and str.isspace() may class differently
# (NBSP, U+3000, U+180E, ZWSP, form feed, U+2028), plus plain spacing; the
# edits below mix them into the texts.
ODD_CHARACTERS = ["\t", " ", "\u00a0", "\u3000", "\u180e", "\u200b", "\x0c", "\u2028", "  "]
WORDS = ["alpha", "beta_2", "(", ")", "=", "x", "na\u00efve", "return", "+", "gamma.delta"]


def _odd_line(rng) -> str:
    pieces = [rng.choice(WORDS) for _ in range(rng.randint(0, 6))]
    return "".join(p + rng.choice(ODD_CHARACTERS) for p in pieces).rstrip(" ")


def _odd_pair(rng) -> tuple[str, str]:
    lines = [_odd_line(rng) for _ in range(rng.randint(1, 10))]
    edited = list(lines)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(edited) + 1)
        kind = rng.choice(["insert", "delete", "token", "spacing", "indent"])
        if kind == "insert" or i == len(edited):
            edited.insert(i, _odd_line(rng))
        elif kind == "delete":
            edited.pop(i)
        elif kind == "token":
            words = edited[i].split(" ")
            words[rng.randrange(len(words))] = rng.choice(WORDS)
            edited[i] = " ".join(words)
        elif kind == "spacing":
            edited[i] = edited[i].replace(" ", rng.choice(ODD_CHARACTERS))
        else:
            edited[i] = rng.choice(ODD_CHARACTERS) + edited[i]

    def join(ls):
        text = "".join(line + "\n" for line in ls)
        return text[:-1] if text and rng.random() < 0.3 else text  # no final newline

    return join(lines), join(edited)


class TestAlignmentOracle:
    """Every hunk of every algorithm's report is placed, exactly, on the texts."""

    def test_seeded_random_edits_under_every_algorithm(self, gateway):
        rng = random.Random(2615)
        hunks = 0
        for _ in range(100):
            source, target = _odd_pair(rng)
            for report in gateway.diff_texts(source, target):
                for hunk in parse_word_diff(report):
                    alignment = align(hunk, source, target)  # never MalformedDiff
                    hunks += 1
                    source_block, target_block = blocks(alignment, source, target)
                    # The fragments hold both blocks: the target verbatim
                    # but for newlines, the source's non-space characters.
                    assert fragment_text(hunk, " +") == target_block.replace("\n", "")
                    assert non_space(fragment_text(hunk, " -")) == non_space(source_block)
                    pairs = kept_pairs(alignment)
                    assert all(source[s] == target[t] for s, t in pairs)
                    targets = [t for _, t in pairs]
                    assert all(a < b for a, b in zip(targets, targets[1:]))
                    assert all(alignment.target_start <= t < alignment.target_end for t in targets)
        assert hunks >= 100, hunks
