"""End-to-end mapping of one source region to a target commit."""

import time
from dataclasses import dataclass, field

from codemapper.candidates import Candidate, dedup_candidates, extract_diff_candidates
from codemapper.diffparse import parse_word_diff
from codemapper.gitio import GitGateway, blob_text
from codemapper.movement import detect_movements
from codemapper.regions import DELETED, Region, Target, extract_text
from codemapper.search import search_text
from codemapper.selector import SelectionConfig, select_target


@dataclass(frozen=True)
class PhaseTimings:
    candidates_s: float
    selection_s: float
    total_s: float


@dataclass(frozen=True)
class MappingResult:
    source: Region
    target_commit: str
    target_file: str | None
    # Ranges in `target_text`, ranked best-first.
    candidates: tuple[Candidate, ...]
    reason: str | None
    timings: PhaseTimings
    # Normalized text of `target_file` at the target commit; None when the
    # file is gone.
    target_text: str | None = field(repr=False)

    @property
    def selected(self) -> Candidate | None:
        """Ranked head, i.e. the candidate that became the target."""
        return self.candidates[0] if self.candidates else None

    @property
    def target(self) -> Target:
        """The selected candidate's region; DELETED when there is none."""
        return self.region_of(self.candidates[0]) if self.candidates else DELETED

    def region_of(self, candidate: Candidate) -> Target:
        """`candidate`'s range in the target file at the target commit."""
        if candidate.is_deleted:
            return DELETED
        return Region(self.target_commit, self.target_file, candidate.range)


def map_region(
    repo,
    source: Region,
    target_commit: str,
    config: SelectionConfig | None = None,
) -> MappingResult:
    """Map `source` to its corresponding region at `target_commit`.

    Phase 1 gathers candidates from diff extraction, movement detection and
    text search; phase 2 picks the most similar one. The result's candidate
    list is ranked best-first with similarities filled in.
    """
    started = time.perf_counter()
    config = config or SelectionConfig()
    gateway = GitGateway(repo)
    source_sha, target_sha, source_text, target = gateway.read_endpoints(
        source.commit, source.file, target_commit
    )
    region_text = extract_text(source_text, source.range)  # fails fast on a bad region

    resolved = source.file
    if target.type != "blob":
        resolved, target = gateway.follow_rename(source_sha, source.file, target_sha)
    if resolved is None:
        now = time.perf_counter()
        return MappingResult(
            source=source,
            target_commit=target_sha,
            target_file=None,
            candidates=(),
            reason="file_deleted",
            timings=PhaseTimings(now - started, 0.0, now - started),
            target_text=None,
        )

    target_text = blob_text(target, target_sha, resolved)
    reports = tuple(
        tuple(parse_word_diff(text)) for text in gateway.diff_texts(source_text, target_text)
    )

    candidates: list[Candidate] = []
    if config.use_diff:
        candidates.extend(
            extract_diff_candidates(
                reports, source.range, source_text, target_text, refine=config.use_refinement
            )
        )
    if config.use_movement:
        candidates.extend(detect_movements(reports, source.range, source_text, target_text))
    if config.use_search:
        candidates.extend(search_text(region_text, target_text))
    candidates = dedup_candidates(candidates)
    phase1_done = time.perf_counter()

    ranked = select_target(source.range, source_text, candidates, config, reports[0], target_text)
    finished = time.perf_counter()

    return MappingResult(
        source=source,
        target_commit=target_sha,
        target_file=resolved,
        candidates=tuple(ranked),
        reason=None,
        timings=PhaseTimings(
            phase1_done - started, finished - phase1_done, finished - started
        ),
        target_text=target_text,
    )
