"""Core value types and line/column arithmetic shared by all other modules.

All file contents are normalized to "\\n" line endings before any range
arithmetic; a newline counts as one character. Columns count Unicode code
points, not bytes.

Line arithmetic goes through one line index per text, kept for the two most
recent texts. The index is filled lazily, block by block, so a mapping that
reads a few hundred lines of a large file pays for the blocks those lines lie
in, plus one C-speed newline count over the text. Every lookup costs
O(log lines + block size), whatever the line's length or the offset.
"""

import functools
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class InvalidRange(ValueError):
    """The four coordinates do not form a valid character range."""


class OutOfBounds(ValueError):
    """A range does not fit inside the file it is applied to."""


@dataclass(frozen=True, order=True)
class CharacterRange:
    """1-based (line, col)..(line, col) span, inclusive at both ends."""

    l1: int
    c1: int
    l2: int
    c2: int

    def __post_init__(self):
        if min(self.l1, self.c1, self.l2, self.c2) < 1:
            raise InvalidRange(f"coordinates must be >= 1, got {self.as_tuple()}")
        if (self.l1, self.c1) > (self.l2, self.c2):
            raise InvalidRange(f"start must not follow end, got {self.as_tuple()}")

    @property
    def start(self) -> tuple[int, int]:
        return (self.l1, self.c1)

    @property
    def end(self) -> tuple[int, int]:
        return (self.l2, self.c2)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l1, self.c1, self.l2, self.c2)

    def __str__(self):
        return f"{self.l1}:{self.c1}-{self.l2}:{self.c2}"


def make_range(l1: int, c1: int, l2: int, c2: int) -> CharacterRange:
    """Build a validated CharacterRange; raises InvalidRange otherwise."""
    return CharacterRange(l1, c1, l2, c2)


@dataclass(frozen=True)
class Region:
    """A character range pinned to a commit and file path."""

    commit: str
    file: str
    range: CharacterRange

    def __post_init__(self):
        if not self.commit or not self.file:
            raise ValueError("a region needs a non-empty commit and file path")

    def __str__(self):
        return f"{self.commit[:12]}:{self.file}:{self.range}"


class DeletedRegion:
    """Marker for a region that has no counterpart in the target commit."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DELETED"


DELETED = DeletedRegion()

Target = Region | DeletedRegion


@dataclass(frozen=True)
class AbsInterval:
    """Half-open [start, end) character-offset span within a normalized text."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"need 0 <= start < end, got [{self.start}, {self.end})")

    def __len__(self):
        return self.end - self.start

    def intersection_size(self, other: "AbsInterval") -> int:
        return max(0, min(self.end, other.end) - max(self.start, other.start))


def normalize_newlines(text: str) -> str:
    """`text` with "\\r\\n" and lone "\\r" turned into "\\n"; a text without
    "\\r" is returned as it is."""
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


# Characters per block of the line index: a lookup fills at most one or two
# blocks, so it costs O(log lines + _BLOCK) however long the text is.
_BLOCK = 4096


def _newlines(text: str, lo: int, hi: int) -> array:
    """Offsets of the newlines in text[lo:hi], ascending."""
    found = array("q")
    pos = text.find("\n", lo, hi)
    while pos != -1:
        found.append(pos)
        pos = text.find("\n", pos + 1, hi)
    return found


class _LineIndex:
    """Line index of one text, filled block by block as lookups land.

    The text is cut into _BLOCK-character blocks. `before[b]` counts the
    newlines ahead of block b (one C-speed count per block, made up front),
    and its last entry counts them all. A block's own newline offsets are
    found only when a lookup first needs them; the finished array is then
    stored in one assignment, so a concurrent reader sees a block either
    unfilled or whole, and at worst fills it twice.
    """

    __slots__ = ("text", "before", "blocks")

    def __init__(self, text: str):
        before = [0]
        total = 0
        for lo in range(0, len(text), _BLOCK):
            total += text.count("\n", lo, lo + _BLOCK)
            before.append(total)
        self.text = text
        self.before = before
        self.blocks: list[array | None] = [None] * (len(before) - 1)

    def _fill(self, b: int) -> array:
        lo = b * _BLOCK
        block = self.blocks[b] = _newlines(self.text, lo, lo + _BLOCK)
        return block

    def count(self) -> int:
        return self.before[-1] + 1

    def start(self, k: int) -> int:
        """Offset of the first character of line k >= 1; len(text) + 1 for
        the line after the last."""
        before = self.before
        j = k - 2  # the newline that ends line k - 1
        if 0 <= j < before[-1]:
            b = bisect_right(before, j) - 1
            block = self.blocks[b]
            if block is None:
                block = self._fill(b)
            return block[j - before[b]] + 1
        if j == -1:
            return 0
        if j == before[-1]:
            return len(self.text) + 1
        raise IndexError(f"line {k} out of range")

    def bounds(self, k: int) -> tuple[int, int]:
        """[start, end) offsets of line k >= 1, its newline excluded."""
        return self.start(k), self.start(k + 1) - 1

    def position(self, offset: int) -> tuple[int, int]:
        """(line, col) of an offset inside the text."""
        b = offset // _BLOCK
        block = self.blocks[b]
        if block is None:
            block = self._fill(b)
        i = bisect_left(block, offset)  # newlines of this block before offset
        line = self.before[b] + i + 1
        if i:
            return line, offset - block[i - 1]
        return line, offset - self.start(line) + 1


@functools.lru_cache(maxsize=2)
def _starts(text: str) -> _LineIndex:
    """The lazily filled line index of `text`.

    One mapping touches two texts, source and target; two entries keep both
    indexed while holding only newline offsets, never line strings, and only
    for the blocks that lookups reached.
    """
    return _LineIndex(text)


def line_count(text: str) -> int:
    """Number of lines, counted as len(text.split("\\n")) counts them."""
    return _starts(text).count()


def line_start(text: str, k: int) -> int:
    """Offset of the first character of line k (1-based); for the line
    after the last one, len(text) + 1."""
    return _starts(text).start(k)


def line_text(text: str, k: int) -> str:
    """Line k (1-based) of `text`, without its newline."""
    start, end = _starts(text).bounds(k)
    return text[start:end]


def _check_endpoint(index: _LineIndex, line: int, col: int, what: str) -> int:
    """Offset of (line, col), which must name a character of its line."""
    count = index.count()
    if line > count:
        raise OutOfBounds(f"{what} line {line} beyond file of {count} lines")
    start, end = index.bounds(line)
    length = end - start
    if col > length:
        raise OutOfBounds(f"{what} column {col} beyond line {line} of length {length}")
    return start + col - 1


def to_abs_interval(file_text: str, rng: CharacterRange) -> AbsInterval:
    """Absolute [start, end) offsets of `rng` within `file_text`.

    Both endpoints must land on real characters of their lines; newlines are
    covered implicitly by multi-line spans.
    """
    index = _starts(file_text)
    start = _check_endpoint(index, rng.l1, rng.c1, "start")
    end = _check_endpoint(index, rng.l2, rng.c2, "end")
    return AbsInterval(start, end + 1)


def extract_text(file_text: str, rng: CharacterRange) -> str:
    interval = to_abs_interval(file_text, rng)
    return file_text[interval.start : interval.end]


def position_of_offset(file_text: str, offset: int) -> tuple[int, int]:
    """(line, col) of a 0-based character offset.

    Total over all offsets in the file; the newline terminating a line
    belongs to that line, at column len(line) + 1.
    """
    if offset < 0 or offset >= len(file_text):
        raise OutOfBounds(f"offset {offset} outside text of length {len(file_text)}")
    return _starts(file_text).position(offset)


def range_of_interval(file_text: str, interval: AbsInterval) -> CharacterRange:
    """Inverse of to_abs_interval; both endpoints must be non-newline chars."""
    l1, c1 = position_of_offset(file_text, interval.start)
    l2, c2 = position_of_offset(file_text, interval.end - 1)
    if "\n" in (file_text[interval.start], file_text[interval.end - 1]):
        raise OutOfBounds("interval endpoint lands on a newline")
    return CharacterRange(l1, c1, l2, c2)
