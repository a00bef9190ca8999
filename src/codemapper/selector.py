"""Phase 2: score candidates with context-aware Levenshtein similarity and
select the target region.

Context is up to N unchanged lines above and below a region, judged against
the diff hunks; movement candidates are scored without context because
relocated code usually has different surroundings.
"""

from dataclasses import dataclass, replace

from codemapper.candidates import ORIGIN_PRIORITY, Candidate
from codemapper.regions import (
    DELETED,
    CharacterRange,
    Target,
    extract_text,
    line_count,
    line_text,
)
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


def _flanking_unchanged(
    file_text: str, first: int, last: int, changed: frozenset[int], n: int
) -> tuple[list[str], list[str]]:
    """Up to n unchanged lines above line `first` and below line `last`.

    Lines inside changed blocks are skipped, not merely truncated, so the
    context reflects code that survives on both sides of the diff.
    """
    count = line_count(file_text)
    if file_text.endswith("\n"):
        count -= 1  # the empty pseudo-line after a final newline
    above: list[str] = []
    line = first - 1
    while line >= 1 and len(above) < n:
        if line not in changed:
            above.append(line_text(file_text, line))
        line -= 1
    above.reverse()
    below: list[str] = []
    line = last + 1
    while line <= count and len(below) < n:
        if line not in changed:
            below.append(line_text(file_text, line))
        line += 1
    return above, below


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
    source_changed = frozenset(line for hunk in hunks for line in hunk.source_lines())
    target_changed = frozenset(
        line for hunk in hunks for line in range(hunk.target_start, hunk.target_end + 1)
    )

    src_plain = extract_text(source_text, source_range)
    src_above, src_below = _flanking_unchanged(
        source_text, source_range.l1, source_range.l2, source_changed, n
    )
    src_with_ctx = "\n".join(src_above + [src_plain] + src_below)
    src_ctx_only = "\n".join(src_above + src_below)

    scored: list[Candidate] = []
    for cand in candidates:
        if cand.is_deleted:
            if n == 0:
                score = 0.0
            else:
                # For an empty target block, target_start/target_end delimit
                # the insertion point, so the flanks around them are the
                # deletion site.
                hunk = cand.source_hunk
                site = ""
                if hunk is not None:
                    above, below = _flanking_unchanged(
                        target_text, hunk.target_start, hunk.target_end, target_changed, n
                    )
                    site = "\n".join(above + below)
                score = levenshtein_similarity(src_ctx_only, site)
        elif cand.movement_detected:
            score = levenshtein_similarity(
                src_plain, extract_text(target_text, cand.region.range)
            )
        else:
            rng = cand.region.range
            above, below = _flanking_unchanged(target_text, rng.l1, rng.l2, target_changed, n)
            cand_ctx = "\n".join(above + [extract_text(target_text, rng)] + below)
            score = levenshtein_similarity(src_with_ctx, cand_ctx)
        scored.append(replace(cand, similarity=score))

    ranked = sorted(scored, key=_rank_key)
    return ranked[0].region, ranked
