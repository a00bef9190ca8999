"""Parse porcelain word-level diff output into hunks, and place each
hunk's word fragments on the real source and target texts.

Accepts exactly the format produced by the git gateway's pinned invocation
flags (--unified=0 --word-diff=porcelain); a captured sample lives in
docs/diff-formats.md.
"""

import re
from array import array
from dataclasses import dataclass, field

from codemapper.regions import line_count, line_start


class MalformedDiff(ValueError):
    """The diff text does not follow the expected format."""


HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


@dataclass(frozen=True)
class Hunk:
    """Contiguous changed block; an empty side is encoded as end = start - 1.

    `body` is the hunk's porcelain word-diff text, one fragment per line;
    `align` places it on the two texts.
    """

    source_start: int
    source_end: int
    target_start: int
    target_end: int
    body: str = field(default="", repr=False, compare=False)

    @property
    def target_is_empty(self) -> bool:
        return self.target_end < self.target_start

    def source_lines(self) -> range:
        return range(self.source_start, self.source_end + 1)

    def line_delta(self) -> int:
        return (self.target_end - self.target_start) - (self.source_end - self.source_start)


@dataclass(frozen=True)
class WordAlignment:
    """Where git's word diff put one hunk's characters.

    The hunk's source block is source_text[source_start:source_end] and its
    target block target_text[target_start:target_end]. `kept[i]` is the
    target offset that source character source_start + i was kept as, or -1
    when it was deleted or is whitespace; kept offsets strictly increase.
    """

    source_start: int
    source_end: int
    target_start: int
    target_end: int
    kept: array = field(repr=False)


def _parse_header(line: str) -> tuple[int, int, int, int]:
    match = HUNK_HEADER.match(line)
    if not match:
        raise MalformedDiff(f"bad hunk header: {line!r}")
    s, n, t, m = match.groups()
    s, t = int(s), int(t)
    n = 1 if n is None else int(n)
    m = 1 if m is None else int(m)
    source_start, source_end = (s, s + n - 1) if n else (s + 1, s)
    target_start, target_end = (t, t + m - 1) if m else (t + 1, t)
    return source_start, source_end, target_start, target_end


def parse_word_diff(text: str) -> list[Hunk]:
    """Hunks of a porcelain word-level report, each with its raw body.

    Git ends lines with "\\n" only; a form feed or U+2028 inside a fragment
    belongs to the fragment. Body lines never start with "@", so every line
    that does is a hunk header. A report that is not empty holds a hunk:
    one without (a warning where the diff should be) raises MalformedDiff.
    """
    chunks = ("\n" + text).split("\n@@")
    if text and len(chunks) == 1:
        raise MalformedDiff(f"no hunk in a non-empty report: {text[:80]!r}")
    hunks = []
    for chunk in chunks[1:]:  # chunks[0] is the file header
        header, _, body = chunk.partition("\n")
        hunks.append(Hunk(*_parse_header("@@" + header), body=body.removesuffix("\n")))
    hunks.sort(key=lambda h: (h.source_start, h.target_start))
    return hunks


def _block(text: str, first: int, last: int) -> tuple[int, int]:
    """Offsets [start, end) of lines first..last of `text`, newlines included."""
    if first < 1 or last > line_count(text):
        raise MalformedDiff(f"lines {first}..{last} are not in a text of {line_count(text)} lines")
    end = len(text)
    return min(line_start(text, first), end), min(line_start(text, last + 1), end)


def align(hunk: Hunk, source_text: str, target_text: str) -> WordAlignment:
    """Place the hunk's fragments on the two texts.

    Unchanged and added fragments are target text verbatim; newlines, which
    `~` lines stand for, are skipped before each one. Unchanged and deleted
    fragments hold the source block's non-space characters in order (git's
    words hold no whitespace, and unchanged fragments carry the target's
    spacing), so whitespace is skipped on both sides there. Any mismatch, or
    non-space text left unplaced, raises MalformedDiff.
    """
    s0, s_end = _block(source_text, hunk.source_start, hunk.source_end)
    t0, t_end = _block(target_text, hunk.target_start, hunk.target_end)
    kept = array("q", [-1]) * (s_end - s0)
    s, t = s0, t0
    for line in hunk.body.split("\n") if hunk.body else ():
        tag, fragment = line[:1], line[1:]
        if line == "~" or tag == "\\":
            continue
        if tag not in (" ", "-", "+"):
            raise MalformedDiff(f"unexpected word-diff line: {line!r}")
        if tag != "-":
            while t < t_end and target_text[t] == "\n":
                t += 1
            if t + len(fragment) > t_end or not target_text.startswith(fragment, t):
                raise MalformedDiff(f"fragment {fragment!r} is not in the target at {t}")
        if tag != "+":
            for j, char in enumerate(fragment):
                if char.isspace():
                    continue
                while s < s_end and source_text[s].isspace():
                    s += 1
                if s == s_end or source_text[s] != char:
                    raise MalformedDiff(f"fragment {fragment!r} is not in the source at {s}")
                if tag == " ":
                    kept[s - s0] = t + j
                s += 1
        if tag != "-":
            t += len(fragment)
    if source_text[s:s_end].strip() or target_text[t:t_end].strip():
        raise MalformedDiff(f"hunk {hunk.source_start},{hunk.target_start} leaves text unplaced")
    return WordAlignment(s0, s_end, t0, t_end, kept)
