"""Movement detection: verbatim and whitespace-shifted relocations."""

import pytest

from codemapper.diffparse import Hunk, parse_word_diff
from codemapper.gitio import Algorithm, GitGateway
from codemapper.movement import detect_movements, region_fully_deleted
from codemapper.regions import extract_text, make_range

@pytest.fixture
def gateway(tmp_path):
    return GitGateway(tmp_path)


def hunks_for(gateway, source, target):
    reports = gateway.diff_texts(source, target, algorithms=(Algorithm.MYERS,))
    return parse_word_diff(reports[0]) if reports else []


def text(lines):
    return "".join(line + "\n" for line in lines)


class TestDetectMovements:
    def test_swapped_lines(self, gateway):
        source = text(["a", "b", "c", "X marks the spot", "d", "e", "last line"])
        target = text(["a", "b", "c", "last line", "d", "e", "X marks the spot"])
        hunks = hunks_for(gateway, source, target)
        rng = make_range(7, 1, 7, 9)  # "last line"
        found = detect_movements((hunks,), rng, source, target)
        assert found
        best = found[0]
        assert best.range == make_range(4, 1, 4, 9)
        assert extract_text(target, best.range) == "last line"

    def test_block_moved_down_and_reindented(self, gateway):
        block = ["def helper():", "    return 1"]
        source = text(block + ["x = 1", "y = 2", "z = 3", "w = 4", "v = 5"])
        target = text(
            ["x = 1", "y = 2", "z = 3", "w = 4", "v = 5"]
            + ["    " + line for line in block]
        )
        hunks = hunks_for(gateway, source, target)
        rng = make_range(1, 1, 2, len(block[1]))
        found = detect_movements((hunks,), rng, source, target)
        assert found
        got = extract_text(target, found[0].range)
        assert [l.strip() for l in got.split("\n")] == [l.strip() for l in block]

    def test_deleted_without_readd_gives_nothing(self, gateway):
        source = text(["a", "b", "unique gone line", "c"])
        target = text(["a", "b", "c"])
        hunks = hunks_for(gateway, source, target)
        rng = make_range(3, 1, 3, 16)
        assert detect_movements((hunks,), rng, source, target) == []

    def test_never_fires_when_region_line_survives(self, gateway):
        source = text(["a", "kept line", "b", "c"])
        target = text(["changed", "kept line", "b", "c"])
        hunks = hunks_for(gateway, source, target)
        rng = make_range(2, 1, 2, 9)
        assert not region_fully_deleted(rng, hunks)
        assert detect_movements((hunks,), rng, source, target) == []

    def test_vertical_candidate_text_is_exact(self, gateway):
        block = ["first moved", "second moved", "third moved"]
        filler = [f"filler {i}" for i in range(6)]
        source = text(block + filler)
        target = text(filler + block)
        hunks = hunks_for(gateway, source, target)
        rng = make_range(1, 1, 3, len(block[2]))
        found = detect_movements((hunks,), rng, source, target)
        assert found
        assert extract_text(target, found[0].range) == "\n".join(block)

    def test_partial_line_region_columns_recovered(self, gateway):
        source = text(["alpha beta gamma", "x", "y", "z", "q", "r"])
        target = text(["x", "y", "z", "q", "r", "alpha beta gamma"])
        hunks = hunks_for(gateway, source, target)
        rng = make_range(1, 7, 1, 10)  # "beta"
        found = detect_movements((hunks,), rng, source, target)
        assert found
        assert extract_text(target, found[0].range) == "beta"

    def test_every_report_that_deletes_the_region_in_order(self):
        # Source line 2 moved to the end. The first and third reports delete
        # it and re-add it at different places; the second keeps it, so it
        # gives no candidate. Candidates come report by report, then hunk by
        # hunk.
        source = text(["a", "moved", "b", "c"])
        target = text(["moved", "a", "b", "c", "moved"])
        rng = make_range(2, 1, 2, 5)
        deletes_twice = (Hunk(1, 0, 1, 1), Hunk(2, 2, 2, 1), Hunk(4, 3, 5, 5))
        keeps = (Hunk(1, 0, 1, 1), Hunk(4, 3, 5, 5))
        deletes_once = (Hunk(2, 2, 3, 2), Hunk(4, 3, 5, 5))
        found = detect_movements((deletes_twice, keeps, deletes_once), rng, source, target)
        assert [c.range for c in found] == [
            make_range(1, 1, 1, 5),
            make_range(5, 1, 5, 5),
            make_range(5, 1, 5, 5),
        ]
