"""Phase 2: score candidates with context-aware Levenshtein similarity and
select the target region.

Context is up to N unchanged lines above and below a region, judged against
the diff hunks; movement candidates are scored without context because
relocated code usually has different surroundings.
"""

from bisect import bisect_right
from dataclasses import dataclass

from codemapper.candidates import ORIGIN_PRIORITY, Candidate
from codemapper.regions import CharacterRange, extract_text, line_count, line_start
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
    changed blocks are kept sorted and merged; a flank walks outward from
    the span across them, and each run of contiguous unchanged lines is one
    slice of the text, so a span costs one bisect plus O(n + blocks
    crossed).
    """

    def __init__(self, file_text: str, changed_blocks, n: int):
        self.text = file_text
        self.n = n
        count = line_count(file_text)
        if file_text.endswith("\n"):
            count -= 1  # the empty pseudo-line after a final newline
        self.count = count
        # Blocks are inclusive (first, last) line pairs; an empty one has
        # last = first - 1 and changes nothing.
        firsts: list[int] = []
        lasts: list[int] = []
        for first, last in sorted(changed_blocks):
            if last < first:
                continue
            if lasts and first <= lasts[-1] + 1:
                lasts[-1] = max(lasts[-1], last)
            else:
                firsts.append(first)
                lasts.append(last)
        self.firsts, self.lasts = firsts, lasts

    def _lines(self, first: int, last: int) -> str:
        """Lines first..last joined by newlines."""
        text = self.text
        return text[line_start(text, first) : line_start(text, last + 1) - 1]

    def _above(self, first: int) -> list[str]:
        """The up to n unchanged lines before line `first`, as runs of
        contiguous lines, top down."""
        firsts, lasts = self.firsts, self.lasts
        runs: list[str] = []
        need = self.n
        k = min(first - 1, self.count)
        i = bisect_right(firsts, k) - 1  # the last block that starts at or before k
        while need and k >= 1:
            if i >= 0 and lasts[i] >= k:
                k = firsts[i] - 1
                i -= 1
                continue
            lo = max(k - need + 1, lasts[i] + 1 if i >= 0 else 1)
            runs.append(self._lines(lo, k))
            need -= k - lo + 1
            k = lo - 1
        runs.reverse()
        return runs

    def _below(self, last: int) -> list[str]:
        """The up to n unchanged lines after line `last`, as runs of
        contiguous lines, top down."""
        firsts, lasts = self.firsts, self.lasts
        runs: list[str] = []
        need = self.n
        k = last + 1
        i = bisect_right(firsts, k) - 1
        while need and k <= self.count:
            if i >= 0 and lasts[i] >= k:
                k = lasts[i] + 1
            i += 1  # the first block that starts after k
            hi = min(k + need - 1, self.count)
            if i < len(firsts):
                hi = min(hi, firsts[i] - 1)
            if hi >= k:
                runs.append(self._lines(k, hi))
                need -= hi - k + 1
            k = hi + 1
        return runs

    def around(self, first: int, last: int, middle: str | None = None) -> str:
        """The flanks of lines first..last, with `middle` between them, joined
        by newlines; `last` = first - 1 names the gap above line `first`."""
        parts = self._above(first)
        if middle is not None:
            parts.append(middle)
        parts.extend(self._below(last))
        return "\n".join(parts)


def _rank_key(candidate: Candidate):
    # A mapping has at most one deleted candidate, so its position is never
    # compared.
    deleted = candidate.is_deleted
    return (
        -(candidate.similarity or 0.0),
        deleted,
        ORIGIN_PRIORITY[candidate.origin],
        None if deleted else candidate.range.as_tuple(),
    )


def select_target(
    source_range: CharacterRange,
    source_text: str,
    candidates: list[Candidate],
    config: SelectionConfig,
    hunks,
    target_text: str,
) -> list[Candidate]:
    """The candidates scored and ranked best-first: highest similarity, then
    non-deleted candidates, then origin priority (diff > movement > search),
    then the earliest target position."""
    if not candidates:
        return []
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
    # built, so its text is a plain slice between two line starts.
    def text_of(rng: CharacterRange) -> str:
        start = line_start(target_text, rng.l1)
        if rng.l2 != rng.l1:
            return target_text[start + rng.c1 - 1 : line_start(target_text, rng.l2) + rng.c2]
        return target_text[start + rng.c1 - 1 : start + rng.c2]

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
            value = score(src_plain, text_of(cand.range))
        else:
            rng = cand.range
            cand_ctx = text_of(rng)
            if n:
                cand_ctx = target_flanks.around(rng.l1, rng.l2, cand_ctx)
            value = score(src_with_ctx, cand_ctx)
        scored.append(
            Candidate(cand.range, cand.origin, value, cand.source_hunk, cand.via_movement)
        )
    return sorted(scored, key=_rank_key)
