"""Region model: range validation, offset arithmetic, text extraction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codemapper.regions import (
    DELETED,
    AbsInterval,
    CharacterRange,
    DeletedRegion,
    InvalidRange,
    OutOfBounds,
    Region,
    extract_text,
    line_count,
    line_text,
    make_range,
    normalize_newlines,
    position_of_offset,
    range_of_interval,
    to_abs_interval,
)


class TestMakeRange:
    def test_single_line_span(self):
        rng = make_range(3, 5, 3, 8)
        assert rng.as_tuple() == (3, 5, 3, 8)

    def test_multi_line_span(self):
        rng = make_range(2, 1, 4, 10)
        assert rng.start == (2, 1) and rng.end == (4, 10)

    def test_reversed_lines_rejected(self):
        with pytest.raises(InvalidRange):
            make_range(5, 2, 3, 1)

    def test_reversed_columns_on_same_line_rejected(self):
        with pytest.raises(InvalidRange):
            make_range(3, 8, 3, 5)

    def test_multi_line_may_have_smaller_end_column(self):
        assert make_range(1, 9, 2, 1).c2 == 1

    @pytest.mark.parametrize("coords", [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_zero_coordinates_rejected(self, coords):
        with pytest.raises(InvalidRange):
            make_range(*coords)


class TestAbsInterval:
    def test_first_line(self):
        assert to_abs_interval("ab\ncd", make_range(1, 1, 1, 2)) == AbsInterval(0, 2)

    def test_second_line_counts_newline_as_one_char(self):
        assert to_abs_interval("ab\ncd", make_range(2, 1, 2, 2)) == AbsInterval(3, 5)

    def test_cross_line(self):
        interval = to_abs_interval("ab\ncd", make_range(1, 2, 2, 1))
        assert interval == AbsInterval(1, 4)
        assert "ab\ncd"[interval.start : interval.end] == "b\nc"

    def test_out_of_bounds_line(self):
        with pytest.raises(OutOfBounds):
            to_abs_interval("ab\ncd", make_range(3, 1, 3, 1))

    def test_out_of_bounds_column(self):
        with pytest.raises(OutOfBounds):
            to_abs_interval("ab\ncd", make_range(1, 3, 2, 1))

    def test_column_must_hit_a_real_character(self):
        # c2 = line length + 1 (the newline position) is rejected
        with pytest.raises(OutOfBounds):
            to_abs_interval("ab\ncd", make_range(1, 1, 1, 3))


FIXTURE = "alpha\nbr\ngamma12"


def all_valid_ranges(text):
    lines = text.split("\n")
    for l1 in range(1, len(lines) + 1):
        for c1 in range(1, len(lines[l1 - 1]) + 1):
            for l2 in range(l1, len(lines) + 1):
                for c2 in range(1, len(lines[l2 - 1]) + 1):
                    if l1 == l2 and c2 < c1:
                        continue
                    yield make_range(l1, c1, l2, c2)


def brute_force_slice(text, rng):
    """Independent oracle: slice by walking characters and counting lines."""
    out = []
    line, col = 1, 1
    collecting = False
    for ch in text:
        if (line, col) == (rng.l1, rng.c1):
            collecting = True
        if collecting:
            out.append(ch)
        if (line, col) == (rng.l2, rng.c2):
            break
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    return "".join(out)


def test_extraction_matches_slicing_oracle_on_all_ranges():
    for rng in all_valid_ranges(FIXTURE):
        interval = to_abs_interval(FIXTURE, rng)
        assert FIXTURE[interval.start : interval.end] == extract_text(FIXTURE, rng)
        assert extract_text(FIXTURE, rng) == brute_force_slice(FIXTURE, rng)


def test_extract_text_examples():
    assert extract_text("x = old\n", make_range(1, 5, 1, 7)) == "old"
    assert extract_text("ab\ncd", make_range(1, 1, 2, 2)) == "ab\ncd"
    assert extract_text("ab\ncd", make_range(1, 2, 2, 1)) == "b\nc"


def test_start_monotonicity():
    ranges = sorted(all_valid_ranges(FIXTURE), key=lambda r: r.start)
    offsets = [to_abs_interval(FIXTURE, r).start for r in ranges]
    for earlier, later in zip(ranges, ranges[1:]):
        if earlier.start < later.start:
            a = to_abs_interval(FIXTURE, earlier).start
            b = to_abs_interval(FIXTURE, later).start
            assert a < b
    assert offsets == sorted(offsets)


@given(st.text(alphabet="ab\n", min_size=1, max_size=60))
def test_every_offset_has_exactly_one_position(text):
    seen = {}
    for offset in range(len(text)):
        pos = position_of_offset(text, offset)
        assert pos not in seen.values() or True  # injective check below
        seen[offset] = pos
    assert len(set(seen.values())) == len(seen)


@given(st.text(alphabet="abc \n", min_size=1, max_size=60))
def test_interval_round_trip(text):
    for offset in range(len(text)):
        if text[offset] == "\n":
            continue
        interval = AbsInterval(offset, offset + 1)
        rng = range_of_interval(text, interval)
        assert to_abs_interval(text, rng) == interval


def test_normalize_newlines():
    assert normalize_newlines("a\r\nb\rc\n") == "a\nb\nc\n"


def test_normalize_newlines_returns_a_text_without_cr_as_it_is():
    text = "".join(f"line {i}\n" for i in range(100))
    assert normalize_newlines(text) is text


@given(
    st.lists(
        st.text(alphabet="ab\n\U0001F600", max_size=40), min_size=3, max_size=3, unique=True
    )
)
def test_line_index_matches_split_across_cache_evictions(texts):
    # A fourth text equal to the first but built separately: the 2-entry
    # cache must treat it as the same text, whether it hits or evicts.
    texts.append("".join(list(texts[0])))
    for text in texts + texts[::-1]:
        lines = text.split("\n")
        assert line_count(text) == len(lines)
        assert [line_text(text, k) for k in range(1, len(lines) + 1)] == lines
        with pytest.raises(IndexError):
            line_text(text, len(lines) + 1)
        with pytest.raises(IndexError):
            line_text(text, 0)
        for offset, char in enumerate(text):
            if char != "\n":
                interval = AbsInterval(offset, offset + 1)
                assert to_abs_interval(text, range_of_interval(text, interval)) == interval


class TestRegion:
    def test_requires_commit_and_file(self):
        with pytest.raises(ValueError):
            Region("", "f.py", make_range(1, 1, 1, 1))
        with pytest.raises(ValueError):
            Region("abc", "", make_range(1, 1, 1, 1))

    def test_deleted_is_a_singleton(self):
        assert DeletedRegion() is DELETED
        assert repr(DELETED) == "DELETED"
