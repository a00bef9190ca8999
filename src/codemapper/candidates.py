"""Diff-based candidate extraction.

Classifies the positional relationship between each hunk and the source
region, derives coarse candidate regions per relationship with line-offset
accounting for hunks above, and refines candidate boundaries to character
precision through each hunk's word alignment.
"""

from dataclasses import dataclass, replace
from enum import Enum
from os.path import commonprefix

from codemapper.diffparse import Hunk, WordAlignment, align
from codemapper.regions import (
    DELETED,
    CharacterRange,
    DeletedRegion,
    line_count,
    line_start,
    line_text,
    position_of_offset,
)


class OverlapKind(Enum):
    FULLY_COVERED = "fully_covered"
    TOP = "top"
    MIDDLE = "middle"
    BOTTOM = "bottom"
    DISJOINT = "disjoint"


class Origin(Enum):
    DIFF = "diff"
    MOVEMENT = "movement"
    SEARCH = "search"


ORIGIN_PRIORITY = {Origin.DIFF: 0, Origin.MOVEMENT: 1, Origin.SEARCH: 2}


@dataclass(frozen=True)
class Candidate:
    """One possible target: a range in the mapping's target text, or DELETED.

    Every candidate of one mapping lies in the same file at the same commit;
    `MappingResult.region_of` is the one place that makes it a `Region`.
    """

    range: CharacterRange | DeletedRegion
    origin: Origin
    similarity: float | None = None
    # Hunk that evidenced a deletion; lets the selector score the DELETED
    # candidate against the context around the deletion site.
    source_hunk: Hunk | None = None
    # True when movement detection also produced this range; such regions are
    # scored without context even if a diff report recorded them first.
    via_movement: bool = False

    @property
    def is_deleted(self) -> bool:
        return isinstance(self.range, DeletedRegion)

    @property
    def movement_detected(self) -> bool:
        return self.origin is Origin.MOVEMENT or self.via_movement


def classify_overlap(hunk: Hunk, source_range: CharacterRange) -> OverlapKind:
    """Positional relationship of a hunk's source block to the region lines.

    The five kinds are mutually exclusive and jointly exhaustive for every
    block combination, including empty hunk source blocks (insertions).
    """
    hs, he = hunk.source_start, hunk.source_end
    r1, r2 = source_range.l1, source_range.l2
    if hs <= r1 and he >= r2:
        return OverlapKind.FULLY_COVERED
    if hs <= r1 <= he < r2:
        return OverlapKind.TOP
    if r1 < hs <= r2 <= he:
        return OverlapKind.BOTTOM
    if r1 < hs and he < r2:
        return OverlapKind.MIDDLE
    return OverlapKind.DISJOINT


def dedup_candidates(candidates) -> list[Candidate]:
    """Drop duplicate ranges, DELETED included, keeping the first producer.

    Producers run in priority order (diff, movement, search), so the kept
    origin is the highest-priority one; a movement duplicate still marks the
    kept candidate as movement-detected for scoring purposes.
    """
    index: dict[CharacterRange | DeletedRegion, int] = {}
    out: list[Candidate] = []
    for cand in candidates:
        key = cand.range
        if key in index:
            kept = out[index[key]]
            if cand.movement_detected and not kept.movement_detected:
                out[index[key]] = replace(kept, via_movement=True)
            continue
        index[key] = len(out)
        out.append(cand)
    return out


def _clamped(text: str, l1: int, c1: int, l2: int, c2: int) -> CharacterRange | None:
    """Snap endpoints onto real characters of `text`, or None if impossible.

    The start moves forward past empty/short lines, the end moves backward;
    a span left without any character yields None.
    """
    l1, c1 = max(l1, 1), max(c1, 1)
    l2 = min(l2, line_count(text))
    while l1 <= l2 and c1 > len(line_text(text, l1)):
        l1 += 1
        c1 = 1
    if l1 > l2:
        return None
    c2 = min(c2, len(line_text(text, l2)))
    while l2 >= l1 and not line_text(text, l2):
        l2 -= 1
        if l2 >= l1:
            c2 = len(line_text(text, l2))
    if l2 < l1 or c2 < 1 or (l1, c1) > (l2, c2):
        return None
    return CharacterRange(l1, c1, l2, c2)


# -- refinement --------------------------------------------------------------


def _start_in_replacement(deleted: str, offset: int, replacement: str) -> int:
    """Index in `replacement` where a start at `deleted[offset]` lands.

    The covered tail of the deletion anchors to a matching suffix of the
    replacement (a token that grew a prefix); otherwise the uncovered prefix
    is excluded when the replacement shares it; otherwise the offset
    transfers positionally.
    """
    covered, prefix = deleted[offset:], deleted[:offset]
    if replacement.endswith(covered):
        return len(replacement) - len(covered)
    if prefix and replacement.startswith(prefix):
        return len(prefix)
    if prefix and offset < len(replacement):
        return offset
    return 0


def _end_in_replacement(deleted: str, offset: int, replacement: str) -> int:
    """How many leading characters of `replacement` an end at
    `deleted[offset]` covers.

    The excluded tail of the deletion anchors to a matching suffix of the
    replacement; a covered part that prefixes the replacement closes the
    range right after it (a token that grew a suffix); a replacement sharing
    neither affix is taken whole, matching the worked example where a
    region ending at a replaced token's last character covers the entire
    replacement token.
    """
    excluded, covered = deleted[offset + 1 :], deleted[: offset + 1]
    if excluded and replacement.endswith(excluded) and len(replacement) > len(excluded):
        return len(replacement) - len(excluded)
    if replacement.startswith(covered):
        return len(covered)
    if not excluded:
        shared_suffix = len(commonprefix([covered[::-1], replacement[::-1]]))
        shared_prefix = len(commonprefix([covered, replacement]))
        if shared_prefix > 0 and shared_suffix == 0 and len(replacement) > len(covered):
            # The tail behind the shared stem grew: stop at the stem.
            return shared_prefix
        # A preserved ending, a wholesale replacement, or a same-size/shrunk
        # tail: the whole replacement closes it.
        return len(replacement)
    if offset < len(replacement):
        return offset + 1
    return len(replacement)


def _line_span(text: str, offset: int) -> tuple[int, int]:
    """Offsets [start, end) of the line holding `offset`, newline excluded."""
    line, col = position_of_offset(text, offset)
    return offset - col + 1, line_start(text, line + 1) - 1


def _space_walk(text: str, t: int, steps: int) -> int:
    """Move from offset `t` by up to `steps` characters (backward when
    negative), onto whitespace within its line only."""
    step = 1 if steps > 0 else -1
    for _ in range(abs(steps)):
        nxt = t + step
        if not 0 <= nxt < len(text) or text[nxt] == "\n" or not text[nxt].isspace():
            break
        t = nxt
    return t


def _map_endpoint(alignment: WordAlignment, source_text, target_text, offset, at_end):
    """Target offset of the region endpoint at source `offset`, or None when
    the alignment does not place it.

    A kept character maps to its target character. A whitespace endpoint in
    a line's leading indent takes the same column of the target line where
    the line's first character went, at most up to that line's indent. Any
    other whitespace endpoint counts from the nearest kept neighbour on its
    line with no deleted text in between, over target whitespace only.
    Inside a deleted run the affix rules place it in the run's replacement:
    the added text of its gap on the target line of the run's next kept
    neighbour on its source line, else of its previous one, else on the
    gap's first target line.
    """
    s0, kept = alignment.source_start, alignment.kept
    i = offset - s0
    if not 0 <= i < len(kept):
        return None
    if kept[i] >= 0:
        return kept[i]
    # Kept characters around the endpoint, anywhere in the hunk.
    prev = next((j for j in range(i - 1, -1, -1) if kept[j] >= 0), -1)
    after = next((j for j in range(i + 1, len(kept)) if kept[j] >= 0), len(kept))
    lo, hi = (x - s0 for x in _line_span(source_text, offset))
    neighbours = [j for j in (prev, after) if lo <= j < hi]
    run = [
        j
        for j in range(max(lo, prev + 1), min(hi, after))
        if not source_text[s0 + j].isspace()
    ]
    if not run or not run[0] <= i <= run[-1]:
        if prev < lo and (not run or i < run[0]):
            # Leading indent: nothing of the line lies before the endpoint.
            first = run[0] if run else after
            if first >= hi:
                return None
            found = _map_endpoint(alignment, source_text, target_text, s0 + first, False)
            if found is None:
                return None
            t_lo, t_hi = _line_span(target_text, found)
            line = target_text[t_lo:t_hi]
            return t_lo + min(i - lo, len(line) - len(line.lstrip()), len(line) - 1)
        free = [j for j in neighbours if not run or (j > i) == (run[-1] < i)]
        if not free:
            return None
        near = min(free, key=lambda j: abs(j - i))
        return _space_walk(target_text, kept[near], i - near)

    gap_lo = alignment.target_start if prev < 0 else kept[prev] + 1
    gap_hi = alignment.target_end if after == len(kept) else kept[after]
    if neighbours:
        anchor = kept[neighbours[-1]]
    else:
        anchor = next((t for t in range(gap_lo, gap_hi) if not target_text[t].isspace()), None)
    replacement = ""
    if anchor is not None:
        t_lo, t_hi = _line_span(target_text, anchor)
        r_lo = max(gap_lo, t_lo)
        text = target_text[r_lo : min(gap_hi, t_hi)]
        replacement = text.strip()
        r_lo += len(text) - len(text.lstrip())
    if not replacement:
        # No replacement: the nearest survivor outside the deletion closes it.
        survivor = prev if at_end else after
        return kept[survivor] if 0 <= survivor < len(kept) else None
    deleted = source_text[s0 + run[0] : s0 + run[-1] + 1]
    if at_end:
        return r_lo + _end_in_replacement(deleted, i - run[0], replacement) - 1
    return r_lo + _start_in_replacement(deleted, i - run[0], replacement)


def refine_endpoints(
    source_range: CharacterRange,
    alignment: WordAlignment,
    coarse_range: CharacterRange,
    source_text: str,
    target_text: str,
    ends=("start", "end"),
) -> CharacterRange:
    """Move the named endpoints of `coarse_range`, in order, to where the
    region's first ("start") and last ("end") characters went.

    An endpoint stays where it is when the alignment does not place it
    inside the range as refined so far, so an end is checked against the
    refined start.
    """
    rng = coarse_range
    for end in ends:
        line, col = getattr(source_range, end)
        offset = line_start(source_text, line) + col - 1
        found = _map_endpoint(alignment, source_text, target_text, offset, end == "end")
        if found is None or found >= len(target_text):
            continue
        found = position_of_offset(target_text, found)
        if rng.start <= found <= rng.end:
            first, last = (found, rng.end) if end == "start" else (rng.start, found)
            rng = CharacterRange(*first, *last)
    return rng


# -- extraction ---------------------------------------------------------------


def extract_diff_candidates(
    reports: tuple[tuple[Hunk, ...], ...],
    source_range: CharacterRange,
    source_text: str,
    target_text: str,
    refine: bool = True,
) -> list[Candidate]:
    """Phase-1 diff candidates from all deduplicated reports, report by
    report; reports that agree give the same candidate more than once, and
    map_region's one dedup keeps the first.

    Each report's candidates are refined with the word alignment of its own
    hunks.
    """
    out: list[Candidate] = []
    for report in reports:
        out.extend(_extract_from_report(report, source_range, source_text, target_text, refine))
    return out


def _extract_from_report(
    hunks: tuple[Hunk, ...],
    source_range,
    source_text,
    target_text,
    refine: bool,
) -> list[Candidate]:
    r1, r2 = source_range.l1, source_range.l2
    region_lines = frozenset(range(r1, r2 + 1))
    covered: set[int] = set()
    processed: list[Hunk] = []
    full = top = bottom = None
    middles: list[Hunk] = []

    for hunk in hunks:
        kind = classify_overlap(hunk, source_range)
        processed.append(hunk)
        if kind is OverlapKind.FULLY_COVERED:
            full = hunk
        elif kind is OverlapKind.TOP:
            top = hunk
        elif kind is OverlapKind.BOTTOM:
            bottom = hunk
        elif kind is OverlapKind.MIDDLE:
            middles.append(hunk)
        if kind is not OverlapKind.DISJOINT:
            covered |= set(hunk.source_lines()) & region_lines
            if covered == region_lines:
                break

    def map_line(line: int) -> int:
        return line + sum(h.line_delta() for h in processed if h.source_end < line)

    def source_line_len(line: int) -> int:
        return len(line_text(source_text, line)) if line <= line_count(source_text) else 0

    def refined(coarse: CharacterRange | None, hunk: Hunk, *ends) -> CharacterRange | None:
        # An empty target block places no endpoint; refinement is a no-op there.
        if coarse is None or not refine or hunk.target_is_empty:
            return coarse
        alignment = align(hunk, source_text, target_text)
        rng = refine_endpoints(source_range, alignment, coarse, source_text, target_text, ends)
        return _clamped(target_text, *rng.as_tuple()) or coarse

    candidates: list[Candidate] = []

    def add(rng: CharacterRange | None):
        if rng is not None:
            candidates.append(Candidate(rng, Origin.DIFF))

    # The region's endpoints shifted by the line delta of the hunks above
    # each (middle hunks included): the untouched and the flank candidate.
    shifted = _clamped(target_text, map_line(r1), source_range.c1, map_line(r2), source_range.c2)
    if full is None and top is None and bottom is None and not middles:
        # Region untouched by this report: shift by the net line delta above.
        add(shifted)
        return candidates

    if full is not None:
        if full.target_is_empty:
            candidates.append(Candidate(DELETED, Origin.DIFF, source_hunk=full))
        else:
            coarse = _clamped(target_text, full.target_start, 1, full.target_end, 10**9)
            add(refined(coarse, full, "start", "end"))

    top_refined = bottom_refined = None

    if top is not None:
        barrier = min(
            (h.source_start for h in middles + ([bottom] if bottom else []) if h.source_start > top.source_end),
            default=None,
        )
        end_src = r2 if barrier is None else min(r2, barrier - 1)
        end_col = source_range.c2 if end_src == r2 else source_line_len(end_src)
        coarse = _clamped(target_text, top.target_start, 1, map_line(end_src), end_col)
        top_refined = refined(coarse, top, "start")
        add(top_refined)

    if bottom is not None:
        barrier = max(
            (h.source_end for h in middles + ([top] if top else []) if h.source_end < bottom.source_start),
            default=None,
        )
        start_src = r1 if barrier is None else max(r1, barrier + 1)
        start_col = source_range.c1 if start_src == r1 else 1
        # For an empty target block, target_end is the last line before the
        # deletion point, i.e. the mapped position of the surviving head.
        coarse = _clamped(target_text, map_line(start_src), start_col, bottom.target_end, 10**9)
        bottom_refined = refined(coarse, bottom, "end")
        add(bottom_refined)

    if top_refined is not None and bottom_refined is not None:
        add(_clamped(target_text, *top_refined.start, *bottom_refined.end))

    if middles:
        # Flank-derived candidate.
        add(shifted)

    return candidates
