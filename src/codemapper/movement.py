"""Detection of cut-and-paste relocations that diffs report as
delete-plus-add.

A diff report counts only when it deletes every one of the region's lines,
i.e. each lies in some hunk's source block; candidates come from that
report's hunks whose added lines contain the region's lines as a
consecutive block, either verbatim (vertical movement) or equal up to
leading/trailing whitespace (horizontal movement).
"""

from itertools import chain

from codemapper.candidates import Candidate, Origin
from codemapper.regions import CharacterRange, line_count, line_text


def region_fully_deleted(source_range, hunks) -> bool:
    # Hunks carry no context lines, so every source line in one is deleted.
    deleted = {line for hunk in hunks for line in hunk.source_lines()}
    return all(
        line in deleted for line in range(source_range.l1, source_range.l2 + 1)
    )


def detect_movements(
    reports, source_range: CharacterRange, source_text: str, target_text: str
) -> list[Candidate]:
    """Movement candidates from every report that deletes the whole region,
    report by report, then hunk by hunk."""
    if source_range.l2 > line_count(source_text):
        return []
    deleting = [hunks for hunks in reports if region_fully_deleted(source_range, hunks)]
    if not deleting:
        return []

    block = _lines(source_text, source_range.l1, source_range.l2)
    stripped_block = [line.strip() for line in block]
    target_count = line_count(target_text)
    size = len(block)

    candidates: list[Candidate] = []
    for hunk in chain.from_iterable(deleting):
        if hunk.target_is_empty or hunk.target_end > target_count:
            continue
        added = _lines(target_text, hunk.target_start, hunk.target_end)
        for offset in range(len(added) - size + 1):
            window = added[offset : offset + size]
            line = hunk.target_start + offset
            if window == block:  # vertical movement
                rng = CharacterRange(
                    line, source_range.c1, line + size - 1, source_range.c2
                )
            elif [w.strip() for w in window] == stripped_block:  # horizontal
                rng = _whitespace_shifted_range(block, window, line, source_range)
            else:
                continue
            if rng is not None:
                candidates.append(Candidate(rng, Origin.MOVEMENT))
    return candidates


def _lines(text: str, first: int, last: int) -> list[str]:
    return [line_text(text, k) for k in range(first, last + 1)]


def _whitespace_shifted_range(block, window, first_line, source_range):
    """Column bounds of a horizontally moved block.

    The endpoints are located by their offset inside the stripped content of
    the boundary lines, so re-indentation does not shift them off the text.
    """
    stripped_first = block[0].strip()
    stripped_last = block[-1].strip()
    if not stripped_first or not stripped_last:
        return None

    lead_src_first = len(block[0]) - len(block[0].lstrip())
    lead_tgt_first = len(window[0]) - len(window[0].lstrip())
    off_start = min(
        max(source_range.c1 - 1 - lead_src_first, 0), len(stripped_first) - 1
    )
    c1 = lead_tgt_first + off_start + 1

    lead_src_last = len(block[-1]) - len(block[-1].lstrip())
    lead_tgt_last = len(window[-1]) - len(window[-1].lstrip())
    off_end = min(max(source_range.c2 - 1 - lead_src_last, 0), len(stripped_last) - 1)
    c2 = lead_tgt_last + off_end + 1

    last_line = first_line + len(block) - 1
    if (first_line, c1) > (last_line, c2):
        return None
    return CharacterRange(first_line, c1, last_line, c2)
