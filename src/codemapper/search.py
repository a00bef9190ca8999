"""Exact-occurrence text search in the target text."""

from codemapper.candidates import Candidate, Origin
from codemapper.regions import CharacterRange, position_of_offset


def search_text(source_region_text: str, target_text: str) -> list[Candidate]:
    """One search candidate per exact occurrence, overlapping ones included,
    in ascending position order.

    A range cannot start or end on a newline, so a pattern that does yields
    no candidates at all. Each hit is placed by `position_of_offset`, whose
    cost does not grow with the hit's column, so a long line with many hits
    stays linear in the hits.
    """
    pattern = source_region_text
    if not pattern or "\n" in (pattern[0], pattern[-1]):
        return []
    multiline = "\n" in pattern
    last = len(pattern) - 1
    candidates: list[Candidate] = []
    pos = target_text.find(pattern)
    while pos != -1:
        line, col = position_of_offset(target_text, pos)
        if multiline:
            rng = CharacterRange(line, col, *position_of_offset(target_text, pos + last))
        else:
            rng = CharacterRange(line, col, line, col + last)
        candidates.append(Candidate(rng, Origin.SEARCH))
        pos = target_text.find(pattern, pos + 1)
    return candidates
