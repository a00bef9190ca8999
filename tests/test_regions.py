"""Region model: range validation, offset arithmetic, text extraction."""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemapper import regions
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
    line_start,
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


@st.composite
def block_crossing_texts(draw, block):
    """Texts whose lines straddle blocks of `block` characters: lines whose
    newline is the last or the first character of a block, lines several
    blocks long, empty lines, astral code points, with or without a final
    newline; no line at all gives the empty text."""
    units = st.text(alphabet="ab \U0001F600", min_size=1, max_size=3)
    lines, pos = [], 0  # pos: offset of the next line's first character
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["ends_block", "starts_block", "long", "any"]))
        if kind == "ends_block":
            n = (block - 1 - pos) % block
        elif kind == "starts_block":
            n = -pos % block
        elif kind == "long":
            n = 3 * block + 2
        else:
            n = draw(st.integers(0, 2 * block))
        unit = draw(units)
        lines.append((unit * (n // len(unit) + 1))[:n])
        pos += n + 1
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture
def fresh_index():
    """Empties the line-index cache around a test, so no index built under
    one block size is read under another."""
    regions._starts.cache_clear()
    yield
    regions._starts.cache_clear()


def split_reference(text):
    """Line starts (then len(text) + 1) and the (line, col) of every offset,
    from text.split alone."""
    lines = text.split("\n")
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    positions = [(k, c) for k, line in enumerate(lines, 1) for c in range(1, len(line) + 2)]
    return lines, starts, positions[: len(text)]


class TestLazyLineIndex:
    """The block-wise index against text.split, with blocks small enough
    that every generated text crosses many of them."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, regions._BLOCK])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_lookups_match_split_at_every_block_size(self, block, data):
        text = data.draw(block_crossing_texts(block))
        backward = data.draw(st.booleans())
        lines, starts, positions = split_reference(text)
        count = len(lines)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions, "_BLOCK", block)
            regions._starts.cache_clear()
            try:
                assert line_count(text) == count
                ks = range(1, count + 2)
                for k in reversed(ks) if backward else ks:
                    assert line_start(text, k) == starts[k - 1]
                for k in (0, count + 2):
                    with pytest.raises(IndexError):
                        line_start(text, k)
                assert [line_text(text, k) for k in range(1, count + 1)] == lines
                for k in (0, count + 1):
                    with pytest.raises(IndexError):
                        line_text(text, k)
                # A fresh index, so offsets fill the blocks themselves.
                regions._starts.cache_clear()
                offsets = range(len(text))
                for offset in reversed(offsets) if backward else offsets:
                    assert position_of_offset(text, offset) == positions[offset]
                for offset in (-1, len(text)):
                    with pytest.raises(OutOfBounds):
                        position_of_offset(text, offset)
            finally:
                regions._starts.cache_clear()

    def test_threads_never_see_a_half_filled_block(self, monkeypatch, fresh_index):
        """Threads look up lines and offsets of three multi-block texts
        through the 2-entry cache while blocks fill lazily; a watcher reads
        the cached indexes' blocks throughout. Every answer and every block
        it sees must equal the reference."""
        block = 64
        monkeypatch.setattr(regions, "_BLOCK", block)
        gen = random.Random(3)
        texts = [
            "".join("x" * gen.randrange(0, 150) + "\n" for _ in range(400)) + str(n)
            for n in range(3)
        ]
        refs = {text: split_reference(text) for text in texts}
        blocks = {
            text: [
                [i for i in range(lo, min(lo + block, len(text))) if text[i] == "\n"]
                for lo in range(0, len(text), block)
            ]
            for text in texts
        }
        fill = regions._newlines

        def slow_fill(text, lo, hi):
            found = fill(text, lo, hi)
            time.sleep(0)  # another thread runs between finding and storing
            return found

        monkeypatch.setattr(regions, "_newlines", slow_fill)
        errors: list[str] = []
        done = threading.Event()

        def resolve(seed):
            rng = random.Random(seed)
            for _ in range(2000):
                # The third text is rarer, so the cache both hits and evicts.
                text = texts[rng.choice((0, 0, 1, 1, 1, 2))]
                lines, starts, positions = refs[text]
                k = rng.randrange(1, len(lines) + 2)
                if line_start(text, k) != starts[k - 1]:
                    errors.append(f"line_start {k}")
                offset = rng.randrange(len(text))
                if position_of_offset(text, offset) != positions[offset]:
                    errors.append(f"position_of_offset {offset}")

        def watch():
            while not done.is_set():
                for text in texts[:2]:
                    for b, found in enumerate(list(regions._starts(text).blocks)):
                        if found is not None and list(found) != blocks[text][b]:
                            errors.append(f"block {b} seen as {list(found)}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher = threading.Thread(target=watch)
            watcher.start()
            workers = [threading.Thread(target=resolve, args=(n,)) for n in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            done.set()
            watcher.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers + [watcher])
        assert errors == []


class TestRegion:
    def test_requires_commit_and_file(self):
        with pytest.raises(ValueError):
            Region("", "f.py", make_range(1, 1, 1, 1))
        with pytest.raises(ValueError):
            Region("abc", "", make_range(1, 1, 1, 1))

    def test_deleted_is_a_singleton(self):
        assert DeletedRegion() is DELETED
        assert repr(DELETED) == "DELETED"
