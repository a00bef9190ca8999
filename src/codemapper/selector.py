"""Phase 2: score candidates with context-aware Levenshtein similarity and
select the target region.

Context is up to N unchanged lines above and below a region, judged against
the diff hunks; movement candidates are scored without context because
relocated code usually has different surroundings.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from codemapper.candidates import ORIGIN_PRIORITY, Candidate
from codemapper.regions import DELETED, CharacterRange, Target, extract_text, line_starts
from codemapper.similarity import levenshtein_similarity


@dataclass(frozen=True)
class SelectionConfig:
    """Pipeline tuning knobs; every component toggle defaults to on, and
    `context_lines=0` scores without context."""

    context_lines: int = 15
    use_diff: bool = True
    use_refinement: bool = True
    use_movement: bool = True
    use_search: bool = True

    def __post_init__(self):
        if self.context_lines < 0:
            raise ValueError(f"context_lines must be >= 0, not {self.context_lines}")


class _Flanks:
    """Up to n unchanged lines above and below any span of one text.

    Lines inside changed blocks are skipped, not merely truncated, so the
    context reflects code that survives on both sides of the diff. The
    unchanged line numbers are listed once, in one sorted array, so each
    span costs one bisect, and a flank whose lines are contiguous in the
    text is one slice of it.
    """

    def __init__(self, file_text: str, changed_blocks, n: int):
        self.text = file_text
        self.starts = line_starts(file_text)
        self.n = n
        count = len(self.starts) - 1
        if file_text.endswith("\n"):
            count -= 1  # the empty pseudo-line after a final newline
        # Blocks are inclusive (first, last) line pairs; an empty one has
        # last = first - 1 and changes nothing.
        unchanged: list[int] = []
        line = 1
        for first, last in sorted(changed_blocks):
            unchanged.extend(range(line, min(first, count + 1)))
            line = max(line, last + 1)
        unchanged.extend(range(line, count + 1))
        self.unchanged = unchanged

    def _lines(self, lo: int, hi: int) -> str:
        """Lines unchanged[lo:hi] joined by newlines."""
        text, starts, lines = self.text, self.starts, self.unchanged
        first, last = lines[lo], lines[hi - 1]
        if last - first == hi - 1 - lo:
            return text[starts[first - 1] : starts[last] - 1]
        return "\n".join(text[starts[k - 1] : starts[k] - 1] for k in lines[lo:hi])

    def around(self, first: int, last: int, middle: str | None = None) -> str:
        """The flanks of lines first..last, with `middle` between them, joined
        by newlines; `last` = first - 1 names the gap above line `first`."""
        lines, n = self.unchanged, self.n
        above = bisect_left(lines, first)
        below = bisect_right(lines, last, above)
        parts = []
        if above:
            parts.append(self._lines(max(0, above - n), above))
        if middle is not None:
            parts.append(middle)
        if below < len(lines):
            parts.append(self._lines(below, min(len(lines), below + n)))
        return "\n".join(parts)


def _rank_key(candidate: Candidate):
    position = (
        (float("inf"),) * 4
        if candidate.is_deleted
        else candidate.region.range.as_tuple()
    )
    return (
        -(candidate.similarity or 0.0),
        1 if candidate.is_deleted else 0,
        ORIGIN_PRIORITY[candidate.origin],
        position,
    )


def select_target(
    source_range: CharacterRange,
    source_text: str,
    candidates: list[Candidate],
    config: SelectionConfig,
    hunks,
    target_text: str,
) -> tuple[Target, list[Candidate]]:
    """Highest-similarity candidate wins; exact ties go to non-deleted
    candidates, then origin priority (diff > movement > search), then the
    earliest target position. An empty candidate set means deletion."""
    if not candidates:
        return DELETED, []
    n = config.context_lines
    src_plain = extract_text(source_text, source_range)
    if n:
        source_flanks = _Flanks(
            source_text, [(h.source_start, h.source_end) for h in hunks], n
        )
        target_flanks = _Flanks(
            target_text, [(h.target_start, h.target_end) for h in hunks], n
        )
        src_with_ctx = source_flanks.around(source_range.l1, source_range.l2, src_plain)
        src_ctx_only = source_flanks.around(source_range.l1, source_range.l2)
    else:
        src_with_ctx = src_plain

    # Every candidate range was validated against the target where it was
    # built, so its text is a plain slice of the line index.
    starts = line_starts(target_text)

    def text_of(rng: CharacterRange) -> str:
        return target_text[starts[rng.l1 - 1] + rng.c1 - 1 : starts[rng.l2 - 1] + rng.c2]

    # Many candidates share a scoring string (every search hit at context 0
    # is the region's own text), so each distinct pair is scored once.
    scores: dict[tuple[str, str], float] = {}

    def score(a: str, b: str) -> float:
        key = (a, b)
        value = scores.get(key)
        if value is None:
            value = scores[key] = levenshtein_similarity(a, b)
        return value

    scored: list[Candidate] = []
    for cand in candidates:
        if cand.is_deleted:
            if n == 0:
                value = 0.0
            else:
                # For an empty target block, target_start/target_end delimit
                # the insertion point, so the flanks around them are the
                # deletion site.
                hunk = cand.source_hunk
                site = ""
                if hunk is not None:
                    site = target_flanks.around(hunk.target_start, hunk.target_end)
                value = score(src_ctx_only, site)
        elif cand.movement_detected:
            value = score(src_plain, text_of(cand.region.range))
        else:
            rng = cand.region.range
            cand_ctx = text_of(rng)
            if n:
                cand_ctx = target_flanks.around(rng.l1, rng.l2, cand_ctx)
            value = score(src_with_ctx, cand_ctx)
        scored.append(
            Candidate(cand.region, cand.origin, value, cand.source_hunk, cand.via_movement)
        )

    ranked = sorted(scored, key=_rank_key)
    return ranked[0].region, ranked
