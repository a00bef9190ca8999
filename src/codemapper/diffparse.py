"""Parse porcelain word-level diff output into hunks.

Accepts exactly the format produced by the git gateway's pinned invocation
flags (--unified=0 --word-diff=porcelain); a captured sample lives in
docs/diff-formats.md.
"""

import re
from dataclasses import dataclass
from enum import Enum


class MalformedDiff(ValueError):
    """The diff text does not follow the expected format."""


HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


class FragmentKind(Enum):
    DELETED = "deleted"
    ADDED = "added"
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class Fragment:
    kind: FragmentKind
    text: str


@dataclass(frozen=True)
class FragmentLine:
    """Intra-line fragments of one diff line unit.

    A unit consumes a source line, a target line, or both. Unchanged
    fragments carry the post-image whitespace, so target_text reconstructs
    the target line exactly, while source_text can drift by whitespace when
    an edit changed the spacing between words.
    """

    source_line: int | None
    target_line: int | None
    fragments: tuple[Fragment, ...]

    @property
    def source_text(self) -> str:
        return "".join(
            f.text for f in self.fragments if f.kind is not FragmentKind.ADDED
        )

    @property
    def target_text(self) -> str:
        return "".join(
            f.text for f in self.fragments if f.kind is not FragmentKind.DELETED
        )


@dataclass(frozen=True)
class Hunk:
    """Contiguous changed block; an empty side is encoded as end = start - 1."""

    source_start: int
    source_end: int
    target_start: int
    target_end: int
    line_fragments: tuple[FragmentLine, ...] = ()

    @property
    def source_size(self) -> int:
        return self.source_end - self.source_start + 1

    @property
    def target_size(self) -> int:
        return self.target_end - self.target_start + 1

    @property
    def source_is_empty(self) -> bool:
        return self.source_end < self.source_start

    @property
    def target_is_empty(self) -> bool:
        return self.target_end < self.target_start

    def source_lines(self) -> range:
        return range(self.source_start, self.source_end + 1)

    def line_delta(self) -> int:
        return self.target_size - self.source_size


def _report_text(report) -> str:
    return report if isinstance(report, str) else report.text


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


_FRAGMENT_PREFIX = {
    " ": FragmentKind.UNCHANGED,
    "-": FragmentKind.DELETED,
    "+": FragmentKind.ADDED,
}


def _assign_unit_lines(units, bounds) -> list[FragmentLine]:
    """Attach source/target line numbers to raw fragment units.

    A unit consumes a source line if it has deleted or unchanged content and
    a target line if it has added or unchanged content. Units representing
    empty lines carry no fragments at all, so leftover line quota from the
    @@ header is distributed to them (and then to any unit missing a side).
    """
    source_start, source_end, target_start, target_end = bounds
    needs_src = [any(f.kind is not FragmentKind.ADDED for f in unit) for unit in units]
    needs_tgt = [any(f.kind is not FragmentKind.DELETED for f in unit) for unit in units]
    slack_src = (source_end - source_start + 1) - sum(needs_src)
    slack_tgt = (target_end - target_start + 1) - sum(needs_tgt)
    for i, unit in enumerate(units):
        if unit:
            continue
        if slack_src > 0 and not needs_src[i]:
            needs_src[i] = True
            slack_src -= 1
        elif slack_tgt > 0 and not needs_tgt[i]:
            needs_tgt[i] = True
            slack_tgt -= 1
    for i in range(len(units)):
        if slack_src > 0 and not needs_src[i]:
            needs_src[i] = True
            slack_src -= 1
        if slack_tgt > 0 and not needs_tgt[i]:
            needs_tgt[i] = True
            slack_tgt -= 1

    lines: list[FragmentLine] = []
    src, tgt = source_start, target_start
    for i, unit in enumerate(units):
        source_line = target_line = None
        if needs_src[i]:
            source_line = src
            src += 1
        if needs_tgt[i]:
            target_line = tgt
            tgt += 1
        lines.append(FragmentLine(source_line, target_line, tuple(unit)))
    return lines


def parse_word_diff(report) -> list[Hunk]:
    """Hunks of a porcelain word-level report, with per-line fragments."""
    text = _report_text(report)
    hunks: list[Hunk] = []
    bounds = None
    units: list[list[Fragment]] = []
    current: list[Fragment] = []

    def close():
        if bounds is None:
            return
        if current:
            units.append(list(current))  # defensive: git always emits a closing ~
        fragment_lines = tuple(_assign_unit_lines(units, bounds))
        hunks.append(Hunk(*bounds, line_fragments=fragment_lines))

    for line in text.splitlines():
        if line.startswith("@@"):
            close()
            bounds = _parse_header(line)
            units = []
            current = []
        elif bounds is None:
            continue
        elif line == "~":
            units.append(list(current))
            current = []
        elif line[:1] in _FRAGMENT_PREFIX:
            current.append(Fragment(_FRAGMENT_PREFIX[line[0]], line[1:]))
        elif line.startswith("\\"):
            continue
        else:
            raise MalformedDiff(f"unexpected word-diff line: {line!r}")
    close()
    hunks.sort(key=lambda h: (h.source_start, h.target_start))
    return hunks
