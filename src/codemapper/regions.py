"""Core value types and line/column arithmetic shared by all other modules.

All file contents are normalized to "\\n" line endings before any range
arithmetic; a newline counts as one character. Columns count Unicode code
points, not bytes.
"""

import functools
from array import array
from bisect import bisect_right
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


@functools.lru_cache(maxsize=2)
def _starts(text: str) -> array:
    """Offset of the first character of each 1-based line of `text`, then
    len(text) + 1, so line k spans starts[k - 1] .. starts[k] - 1.

    One mapping touches two texts, source and target; two entries keep both
    indexed while holding only offsets, never line strings.
    """
    starts = array("q", [0])
    pos = text.find("\n")
    while pos != -1:
        starts.append(pos + 1)
        pos = text.find("\n", pos + 1)
    starts.append(len(text) + 1)
    return starts


def line_starts(text: str) -> array:
    """The cached line index of `text`: the offset of each line's first
    character, then len(text) + 1. Callers that place many positions in one
    text slice or bisect it directly; it must not be modified."""
    return _starts(text)


def line_count(text: str) -> int:
    """Number of lines, counted as len(text.split("\\n")) counts them."""
    return len(_starts(text)) - 1


def line_start(text: str, k: int) -> int:
    """Offset of the first character of line k (1-based); for the line
    after the last one, len(text) + 1."""
    if k < 1:
        raise IndexError(f"line {k} out of range")
    return _starts(text)[k - 1]


def line_text(text: str, k: int) -> str:
    """Line k (1-based) of `text`, without its newline."""
    if k < 1:
        raise IndexError(f"line {k} out of range")
    starts = _starts(text)
    return text[starts[k - 1] : starts[k] - 1]


def _check_endpoint(starts: array, line: int, col: int, what: str) -> None:
    count = len(starts) - 1
    if line > count:
        raise OutOfBounds(f"{what} line {line} beyond file of {count} lines")
    length = starts[line] - starts[line - 1] - 1
    if col > length:
        raise OutOfBounds(f"{what} column {col} beyond line {line} of length {length}")


def to_abs_interval(file_text: str, rng: CharacterRange) -> AbsInterval:
    """Absolute [start, end) offsets of `rng` within `file_text`.

    Both endpoints must land on real characters of their lines; newlines are
    covered implicitly by multi-line spans.
    """
    starts = _starts(file_text)
    _check_endpoint(starts, rng.l1, rng.c1, "start")
    _check_endpoint(starts, rng.l2, rng.c2, "end")
    return AbsInterval(starts[rng.l1 - 1] + rng.c1 - 1, starts[rng.l2 - 1] + rng.c2)


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
    starts = _starts(file_text)
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def range_of_interval(file_text: str, interval: AbsInterval) -> CharacterRange:
    """Inverse of to_abs_interval; both endpoints must be non-newline chars."""
    l1, c1 = position_of_offset(file_text, interval.start)
    l2, c2 = position_of_offset(file_text, interval.end - 1)
    if "\n" in (file_text[interval.start], file_text[interval.end - 1]):
        raise OutOfBounds("interval endpoint lands on a newline")
    return CharacterRange(l1, c1, l2, c2)
