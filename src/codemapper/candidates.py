"""Diff-based candidate extraction.

Classifies the positional relationship between each hunk and the source
region, derives coarse candidate regions per relationship with line-offset
accounting for hunks above, and refines candidate boundaries to character
precision using word-level fragments.
"""

from dataclasses import dataclass, replace
from enum import Enum

from codemapper.diffparse import FragmentKind, FragmentLine, Hunk
from codemapper.gitio import Algorithm
from codemapper.regions import (
    DELETED,
    CharacterRange,
    DeletedRegion,
    Region,
    line_count,
    line_text,
)


class OverlapKind(Enum):
    FULLY_COVERED = "fully_covered"
    TOP = "top"
    MIDDLE = "middle"
    BOTTOM = "bottom"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class OverlapRelation:
    kind: OverlapKind
    hunk: Hunk


class Origin(Enum):
    DIFF = "diff"
    MOVEMENT = "movement"
    SEARCH = "search"


ORIGIN_PRIORITY = {Origin.DIFF: 0, Origin.MOVEMENT: 1, Origin.SEARCH: 2}


@dataclass(frozen=True)
class Candidate:
    region: Region | DeletedRegion
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
        return isinstance(self.region, DeletedRegion)

    @property
    def movement_detected(self) -> bool:
        return self.origin is Origin.MOVEMENT or self.via_movement


@dataclass(frozen=True)
class ParsedReport:
    """One deduplicated diff report, parsed into hunks."""

    algorithm: Algorithm
    hunks: tuple[Hunk, ...]


def classify_overlap(hunk: Hunk, source_range: CharacterRange) -> OverlapRelation:
    """Positional relationship of a hunk's source block to the region lines.

    The five kinds are mutually exclusive and jointly exhaustive for every
    block combination, including empty hunk source blocks (insertions).
    """
    hs, he = hunk.source_start, hunk.source_end
    r1, r2 = source_range.l1, source_range.l2
    if hs <= r1 and he >= r2:
        kind = OverlapKind.FULLY_COVERED
    elif hs <= r1 <= he < r2:
        kind = OverlapKind.TOP
    elif r1 < hs <= r2 <= he:
        kind = OverlapKind.BOTTOM
    elif r1 < hs and he < r2:
        kind = OverlapKind.MIDDLE
    else:
        kind = OverlapKind.DISJOINT
    return OverlapRelation(kind, hunk)


def dedup_candidates(candidates) -> list[Candidate]:
    """Drop duplicate (file, range) candidates, keeping the first producer.

    Producers run in priority order (diff, movement, search), so the kept
    origin is the highest-priority one; a movement duplicate still marks the
    kept candidate as movement-detected for scoring purposes.
    """
    index: dict[tuple, int] = {}
    out: list[Candidate] = []
    for cand in candidates:
        if cand.is_deleted:
            key = ("deleted",)
        else:
            key = (cand.region.file, cand.region.range.as_tuple())
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


def _source_units(fragment_lines, hunk: Hunk) -> list[FragmentLine]:
    return sorted(
        (
            u
            for u in fragment_lines
            if u.source_line is not None
            and hunk.source_start <= u.source_line <= hunk.source_end
        ),
        key=lambda u: u.source_line,
    )


def _first_target_line_after(fragment_lines, source_line: int) -> int | None:
    best = None
    for unit in fragment_lines:
        if unit.target_line is None or not unit.target_text:
            continue
        if unit.source_line is not None and unit.source_line <= source_line:
            continue
        if best is None or unit.target_line < best:
            best = unit.target_line
    return best


def _last_target_line_before(fragment_lines, source_line: int) -> tuple[int, int] | None:
    best = None
    for unit in fragment_lines:
        if unit.target_line is None or not unit.target_text:
            continue
        if unit.source_line is not None and unit.source_line >= source_line:
            continue
        if best is None or unit.target_line > best[0]:
            best = (unit.target_line, len(unit.target_text))
    return best


def refine_start(
    source_range: CharacterRange,
    ref_hunk: Hunk,
    coarse_range: CharacterRange,
    word_fragments,
) -> CharacterRange:
    """Advance the candidate start past characters not in the source region.

    Walks the fragments of the modified line aligned with the source start,
    keeping per-side character cursors; inside a deletion the start position
    transfers into the replacement fragment. Returns the coarse range
    unchanged when no usable modified line exists (refinement skipped).
    """
    units = _source_units(word_fragments, ref_hunk)
    anchor_line = max(source_range.l1, ref_hunk.source_start)
    anchor = next((u for u in units if u.source_line >= anchor_line), None)
    if anchor is None:
        return coarse_range
    col_wanted = source_range.c1 if anchor.source_line == source_range.l1 else 1

    src_i = cnd_i = 0
    found: tuple[int, int] | None = None
    frags = anchor.fragments
    for idx, frag in enumerate(frags):
        flen = len(frag.text)
        if frag.kind is FragmentKind.UNCHANGED:
            if src_i < col_wanted <= src_i + flen:
                if anchor.target_line is not None:
                    found = (anchor.target_line, cnd_i + (col_wanted - src_i))
                break
            src_i += flen
            cnd_i += flen
        elif frag.kind is FragmentKind.DELETED:
            if src_i < col_wanted <= src_i + flen:
                found = _transfer_start(anchor, word_fragments, frags, idx, cnd_i, col_wanted - src_i - 1)
                break
            src_i += flen
        else:
            cnd_i += flen
    if found is None:
        return coarse_range
    line, col = found
    if (line, col) < (coarse_range.l1, coarse_range.c1):
        return coarse_range
    if (line, col) > (coarse_range.l2, coarse_range.c2):
        return coarse_range
    return CharacterRange(line, col, coarse_range.l2, coarse_range.c2)


def _transfer_start(anchor, all_units, frags, del_idx, cnd_i, offset) -> tuple[int, int] | None:
    """Start position when the source start sits inside a deleted fragment.

    The covered tail of the deletion anchors to a matching suffix of the
    replacement (a token that grew a prefix); otherwise the uncovered prefix
    is excluded when the replacement shares it; otherwise the offset
    transfers positionally.
    """
    deleted = frags[del_idx].text
    for frag in frags[del_idx + 1 :]:
        if frag.kind is FragmentKind.DELETED:
            continue
        if anchor.target_line is None:
            return None
        if frag.kind is FragmentKind.UNCHANGED:
            # No replacement: the first surviving character opens the range.
            return anchor.target_line, cnd_i + 1
        covered = deleted[offset:]
        prefix = deleted[:offset]
        if covered and frag.text.endswith(covered):
            skip = len(frag.text) - len(covered)
        elif prefix and frag.text.startswith(prefix):
            skip = len(prefix)
        elif not prefix:
            skip = 0
        elif offset < len(frag.text):
            skip = offset
        else:
            skip = 0
        return anchor.target_line, cnd_i + skip + 1
    # The whole rest of the line was deleted: next line with target content.
    line = _first_target_line_after(all_units, anchor.source_line)
    if line is None:
        return None
    return line, 1


def refine_end(
    source_range: CharacterRange,
    ref_hunk: Hunk,
    coarse_range: CharacterRange,
    word_fragments,
) -> CharacterRange:
    """Mirror of refine_start, anchored at the last modified line.

    The fragment walk runs forward like refine_start but resolves the
    source END column, trimming trailing characters not in the region.
    """
    units = _source_units(word_fragments, ref_hunk)
    anchor_line = min(source_range.l2, ref_hunk.source_end)
    anchor = next((u for u in reversed(units) if u.source_line <= anchor_line), None)
    if anchor is None:
        return coarse_range
    if anchor.source_line == source_range.l2:
        col_wanted = source_range.c2
    else:
        col_wanted = len(anchor.source_text)

    src_i = cnd_i = 0
    found: tuple[int, int] | None = None
    frags = anchor.fragments
    for idx, frag in enumerate(frags):
        flen = len(frag.text)
        if frag.kind is FragmentKind.UNCHANGED:
            if src_i < col_wanted <= src_i + flen:
                if anchor.target_line is not None:
                    found = (anchor.target_line, cnd_i + (col_wanted - src_i))
                break
            src_i += flen
            cnd_i += flen
        elif frag.kind is FragmentKind.DELETED:
            if src_i < col_wanted <= src_i + flen:
                found = _transfer_end(anchor, word_fragments, frags, idx, cnd_i, col_wanted - src_i - 1)
                break
            src_i += flen
        else:
            cnd_i += flen
    else:
        # End beyond the anchor's source content: close at the line's end.
        if anchor.target_line is not None and anchor.target_text:
            found = (anchor.target_line, len(anchor.target_text))
    if found is None:
        return coarse_range
    line, col = found
    if col < 1 or (line, col) > (coarse_range.l2, coarse_range.c2):
        return coarse_range
    if (line, col) < (coarse_range.l1, coarse_range.c1):
        return coarse_range
    return CharacterRange(coarse_range.l1, coarse_range.c1, line, col)


def _common_prefix_len(a: str, b: str) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _transfer_end(anchor, all_units, frags, del_idx, cnd_i, offset) -> tuple[int, int] | None:
    """End position when the source end sits inside a deleted fragment.

    `offset` is the 0-based position of the end character within the deleted
    fragment. The excluded tail of the deletion anchors to a matching suffix
    of the replacement; a covered part that prefixes the replacement closes
    the range right after it (a token that grew a suffix); a replacement
    sharing neither affix is taken whole, matching the worked example where
    a region ending at a replaced token's last character covers the entire
    replacement token.
    """
    deleted = frags[del_idx].text
    excluded = deleted[offset + 1 :]
    covered = deleted[: offset + 1]
    for frag in frags[del_idx + 1 :]:
        if frag.kind is FragmentKind.DELETED:
            continue
        if anchor.target_line is None:
            return None
        if frag.kind is FragmentKind.UNCHANGED:
            # No replacement: the deleted tail ends before the survivors.
            return (anchor.target_line, cnd_i) if cnd_i else None
        if excluded and frag.text.endswith(excluded) and len(frag.text) > len(excluded):
            skip = len(frag.text) - len(excluded)
        elif covered and frag.text.startswith(covered):
            skip = len(covered)
        elif not excluded:
            shared_suffix = _common_prefix_len(covered[::-1], frag.text[::-1])
            shared_prefix = _common_prefix_len(covered, frag.text)
            if shared_prefix > 0 and shared_suffix == 0 and len(frag.text) > len(covered):
                # The tail behind the shared stem grew: stop at the stem.
                skip = shared_prefix
            else:
                # A preserved ending, a wholesale replacement, or a
                # same-size/shrunk tail: the whole replacement closes it.
                skip = len(frag.text)
        elif offset < len(frag.text):
            skip = offset + 1
        else:
            skip = len(frag.text)
        return anchor.target_line, cnd_i + skip
    # Nothing on the target side after the deletion: the line's target
    # content (all of it before the deleted tail) closes the range.
    if anchor.target_line is not None:
        tgt_len = len(anchor.target_text)
        if tgt_len:
            return anchor.target_line, tgt_len
        return None
    placed = _last_target_line_before(all_units, anchor.source_line)
    if placed is None:
        return None
    return placed


# -- extraction ---------------------------------------------------------------


def extract_diff_candidates(
    reports,
    source_range: CharacterRange,
    source_text: str,
    target_text: str,
    target_file: str,
    target_commit: str,
    refine: bool = True,
) -> list[Candidate]:
    """Phase-1 diff candidates from all deduplicated reports.

    Each report's candidates are refined with the word fragments of its own
    hunks. No reports at all means the contents are identical, so the region
    maps onto itself.
    """
    if not reports:
        identity = _clamped(target_text, *source_range.as_tuple())
        if identity is None:
            return []
        return [Candidate(Region(target_commit, target_file, identity), Origin.DIFF)]

    out: list[Candidate] = []
    for report in reports:
        fragments = tuple(fl for hunk in report.hunks for fl in hunk.line_fragments)
        out.extend(
            _extract_from_report(
                report,
                source_range,
                source_text,
                target_text,
                target_file,
                target_commit,
                fragments,
                refine,
            )
        )
    return dedup_candidates(out)


def _extract_from_report(
    report,
    source_range,
    source_text,
    target_text,
    target_file,
    target_commit,
    word_fragments,
    refine,
) -> list[Candidate]:
    r1, r2 = source_range.l1, source_range.l2
    region_lines = frozenset(range(r1, r2 + 1))
    covered: set[int] = set()
    processed: list[Hunk] = []
    full = top = bottom = None
    middles: list[Hunk] = []

    for hunk in report.hunks:
        relation = classify_overlap(hunk, source_range)
        processed.append(hunk)
        kind = relation.kind
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

    def as_candidate(rng: CharacterRange | None) -> Candidate | None:
        if rng is None:
            return None
        return Candidate(Region(target_commit, target_file, rng), Origin.DIFF)

    candidates: list[Candidate] = []

    def add(cand: Candidate | None):
        if cand is not None:
            candidates.append(cand)

    if full is None and top is None and bottom is None and not middles:
        # Region untouched by this report: shift by the net line delta above.
        add(
            as_candidate(
                _clamped(
                    target_text,
                    map_line(r1),
                    source_range.c1,
                    map_line(r2),
                    source_range.c2,
                )
            )
        )
        return candidates

    if full is not None:
        if full.target_is_empty:
            candidates.append(Candidate(DELETED, Origin.DIFF, source_hunk=full))
        else:
            coarse = _clamped(target_text, full.target_start, 1, full.target_end, 10**9)
            if coarse is not None:
                rng = coarse
                if refine:
                    rng = refine_start(source_range, full, rng, word_fragments)
                    rng = refine_end(source_range, full, rng, word_fragments)
                    rng = _clamped(target_text, *rng.as_tuple()) or coarse
                add(as_candidate(rng))

    top_refined = bottom_refined = None

    if top is not None:
        barrier = min(
            (h.source_start for h in middles + ([bottom] if bottom else []) if h.source_start > top.source_end),
            default=None,
        )
        end_src = r2 if barrier is None else min(r2, barrier - 1)
        end_col = source_range.c2 if end_src == r2 else source_line_len(end_src)
        coarse = _clamped(target_text, top.target_start, 1, map_line(end_src), end_col)
        if coarse is not None:
            rng = coarse
            if refine:
                rng = refine_start(source_range, top, rng, word_fragments)
                rng = _clamped(target_text, *rng.as_tuple()) or coarse
            top_refined = rng
            add(as_candidate(rng))

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
        if coarse is not None:
            rng = coarse
            if refine and not bottom.target_is_empty:
                rng = refine_end(source_range, bottom, rng, word_fragments)
                rng = _clamped(target_text, *rng.as_tuple()) or coarse
            bottom_refined = rng
            add(as_candidate(rng))

    if top_refined is not None and bottom_refined is not None:
        merged = _clamped(
            target_text,
            top_refined.l1,
            top_refined.c1,
            bottom_refined.l2,
            bottom_refined.c2,
        )
        add(as_candidate(merged))

    if middles:
        # Flank-derived candidate: both endpoints are unchanged lines mapped
        # through the offset accounting, which already includes the middles.
        add(
            as_candidate(
                _clamped(
                    target_text,
                    map_line(r1),
                    source_range.c1,
                    map_line(r2),
                    source_range.c2,
                )
            )
        )

    return candidates
