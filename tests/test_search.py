"""Exact text search over the target file."""

from hypothesis import given
from hypothesis import strategies as st

from codemapper import regions
from codemapper.candidates import Origin
from codemapper.regions import AbsInterval, extract_text, range_of_interval
from codemapper.search import search_text


def naive_positions(needle: str, haystack: str) -> list[int]:
    return [
        i
        for i in range(len(haystack) - len(needle) + 1)
        if haystack[i : i + len(needle)] == needle
    ]


def test_two_occurrences():
    target = "x = self.y\nprint(self.y)\n"
    found = search_text("self.y", target)
    assert len(found) == 2
    assert all(extract_text(target, c.range) == "self.y" for c in found)

def test_absent_text():
    assert search_text("missing", "nothing here\n") == []


def test_empty_needle():
    assert search_text("", "abc\n") == []


def test_token_in_changed_line():
    target = "total = self.y * 2\n"
    found = search_text("self.y", target)
    assert len(found) == 1
    rng = found[0].range
    assert (rng.l1, rng.c1, rng.l2, rng.c2) == (1, 9, 1, 14)


def test_overlapping_occurrences_all_reported():
    found = search_text("aa", "aaaa\n")
    assert len(found) == 3


def test_multi_line_needle():
    target = "one\ntwo\nthree\none\ntwo\n"
    found = search_text("one\ntwo", target)
    assert len(found) == 2
    assert found[0].range.l1 == 1
    assert found[1].range.l1 == 4


def test_ascending_deterministic_order():
    target = "ab ab ab\n"
    found = search_text("ab", target)
    starts = [c.range.c1 for c in found]
    assert starts == sorted(starts)


@given(
    st.text(alphabet="ab\n", min_size=1, max_size=8),
    st.text(alphabet="ab \n", max_size=60),
)
def test_count_matches_naive_scan(needle, haystack):
    """Every hit's range is the one the per-offset conversion gives at the
    naive scan's position; no range starts or ends on a newline."""
    found = search_text(needle, haystack)
    if "\n" in (needle[0], needle[-1]):
        assert found == []
        return
    expected = [
        range_of_interval(haystack, AbsInterval(i, i + len(needle)))
        for i in naive_positions(needle, haystack)
    ]
    assert [cand.range for cand in found] == expected
    for cand in found:
        assert cand.origin is Origin.SEARCH
        assert extract_text(haystack, cand.range) == needle


class _NewlineScans(str):
    """A text that counts the characters its own newline scans cover and
    refuses to be searched backward."""

    def __new__(cls, value):
        text = super().__new__(cls, value)
        text.scanned = 0
        return text

    def _scan(self, sub, start, end):
        if sub == "\n":
            start = 0 if start is None else start
            end = len(self) if end is None else min(end, len(self))
            self.scanned += max(0, end - start)

    def find(self, sub, start=None, end=None):
        self._scan(sub, start, end)
        return str.find(self, sub, start, end)

    def count(self, sub, start=None, end=None):
        self._scan(sub, start, end)
        return str.count(self, sub, start, end)

    def rfind(self, *args):
        raise AssertionError("scanned backward")

    rindex = rfind


def test_a_one_line_text_places_each_hit_without_walking_its_line(monkeypatch):
    """10,500 hits on one 1.05 MB line: every block of the line index is
    filled at most once, and no newline scan covers the text more than twice
    in all (once for the per-block counts, once for the fills), so no hit's
    column comes from scanning back along the line."""
    target = _NewlineScans(("a" * 99 + "x") * 10_500)
    fills = []
    fill = regions._newlines

    def counting_fill(text, lo, hi):
        fills.append(lo)
        return fill(text, lo, hi)

    monkeypatch.setattr(regions, "_newlines", counting_fill)
    regions._starts.cache_clear()
    try:
        found = search_text("x", target)
    finally:
        regions._starts.cache_clear()
    assert len(found) == 10_500
    assert [c.range.c1 for c in found[:3]] == [100, 200, 300]
    assert found[-1].range.as_tuple() == (1, len(target), 1, len(target))
    assert len(fills) == len(set(fills)) <= -(-len(target) // regions._BLOCK)
    assert target.scanned <= 2 * len(target)
