"""Exact-occurrence text search in the target file."""

from bisect import bisect_right

from codemapper.candidates import Candidate, Origin
from codemapper.regions import CharacterRange, Region, line_starts


def search_text(
    source_region_text: str,
    target_file: str,
    target_commit: str,
    target_text: str,
) -> list[Candidate]:
    """One search candidate per exact occurrence, overlapping ones included,
    in ascending position order.

    A range cannot start or end on a newline, so a pattern that does yields
    no candidates at all. Hits come in ascending order, so one line cursor
    moves forward through the target's line index: each hit's line is
    bisected from the previous hit's line on.
    """
    pattern = source_region_text
    if not pattern or "\n" in (pattern[0], pattern[-1]):
        return []
    starts = line_starts(target_text)
    newlines = pattern.count("\n")
    last = len(pattern) - 1
    candidates: list[Candidate] = []
    line = 1  # the previous hit's line; the next hit lies on it or below
    pos = target_text.find(pattern)
    while pos != -1:
        line = bisect_right(starts, pos, line)
        end_line = line + newlines
        rng = CharacterRange(
            line,
            pos - starts[line - 1] + 1,
            end_line,
            pos + last - starts[end_line - 1] + 1,
        )
        candidates.append(Candidate(Region(target_commit, target_file, rng), Origin.SEARCH))
        pos = target_text.find(pattern, pos + 1)
    return candidates
