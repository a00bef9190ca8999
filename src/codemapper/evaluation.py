"""Evaluation harness: score predicted mappings against ground truth.

Datasets are JSON Lines (one record per line, schema "codemapper-eval-v1",
documented in docs/dataset-format.md). Outcomes follow the exact-match /
partial-overlap / character-distance scheme, with deletions accounted
separately.
"""

import hashlib
import json
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path

from codemapper.gitio import GitGateway, RepoError, run_git
from codemapper.pipeline import map_region
from codemapper.regions import (
    DELETED,
    CharacterRange,
    DeletedRegion,
    InvalidRange,
    OutOfBounds,
    Region,
    Target,
    to_abs_interval,
)
from codemapper.selector import SelectionConfig

DATASET_SCHEMA = "codemapper-eval-v1"
REPORT_SCHEMA = "codemapper-report-v1"


class DatasetError(ValueError):
    """A dataset line could not be parsed; carries the line number."""


class FileMismatch(ValueError):
    """Predicted and expected regions live in different files."""


@dataclass(frozen=True)
class EvalRecord:
    """One ground-truth mapping task."""

    repo: str
    source: Region
    target_commit: str
    expected: Target
    tags: tuple[str, ...] = ()
    name: str = ""


class OutcomeKind(Enum):
    EXACT = "exact"
    PARTIAL_OVERLAP = "partial_overlap"
    NO_OVERLAP = "no_overlap"
    CORRECT_DELETION = "correct_deletion"
    WRONG_DELETION = "wrong_deletion"
    MISSED_DELETION = "missed_deletion"


# Outcomes that count as an exact identification and as overlapping.
_EXACT_KINDS = {OutcomeKind.EXACT, OutcomeKind.CORRECT_DELETION}
_OVERLAP_KINDS = _EXACT_KINDS | {OutcomeKind.PARTIAL_OVERLAP}


@dataclass(frozen=True)
class EvalOutcome:
    kind: OutcomeKind
    recall: float
    precision: float
    f1: float
    char_distance: int | None = None

    @property
    def is_exact(self) -> bool:
        return self.kind in _EXACT_KINDS

    @property
    def is_overlap(self) -> bool:
        return self.kind in _OVERLAP_KINDS


@dataclass(frozen=True)
class RecordResult:
    record: EvalRecord
    predicted: Target | None
    outcome: EvalOutcome | None
    error: str | None = None


# -- metrics -------------------------------------------------------------------


def overlap_metrics(
    predicted: Region, expected: Region, target_text: str
) -> tuple[float, float, float]:
    """(recall, precision, f1) from character-set overlap (zero-safe)."""
    if predicted.file != expected.file:
        raise FileMismatch(f"{predicted.file!r} vs {expected.file!r}")
    predicted_iv = to_abs_interval(target_text, predicted.range)
    expected_iv = to_abs_interval(target_text, expected.range)
    common = predicted_iv.intersection_size(expected_iv)
    if common == 0:
        return 0.0, 0.0, 0.0
    recall = common / len(expected_iv)
    precision = common / len(predicted_iv)
    f1 = 2 * recall * precision / (recall + precision)
    return recall, precision, f1


def char_distance(predicted: Region, expected: Region, target_text: str) -> int:
    """|i - i'| + |j - j'| over absolute start/end offsets."""
    if predicted.file != expected.file:
        raise FileMismatch(f"{predicted.file!r} vs {expected.file!r}")
    predicted_iv = to_abs_interval(target_text, predicted.range)
    expected_iv = to_abs_interval(target_text, expected.range)
    return abs(predicted_iv.start - expected_iv.start) + abs(
        predicted_iv.end - expected_iv.end
    )


def classify_outcome(predicted: Target, expected: Target, target_text: str) -> EvalOutcome:
    predicted_deleted = isinstance(predicted, DeletedRegion)
    expected_deleted = isinstance(expected, DeletedRegion)
    if predicted_deleted and expected_deleted:
        return EvalOutcome(OutcomeKind.CORRECT_DELETION, 1.0, 1.0, 1.0)
    if predicted_deleted:
        return EvalOutcome(OutcomeKind.WRONG_DELETION, 0.0, 0.0, 0.0)
    if expected_deleted:
        return EvalOutcome(OutcomeKind.MISSED_DELETION, 0.0, 0.0, 0.0)
    if predicted.file != expected.file:
        return EvalOutcome(OutcomeKind.NO_OVERLAP, 0.0, 0.0, 0.0)
    recall, precision, f1 = overlap_metrics(predicted, expected, target_text)
    if recall == precision == 1.0:
        return EvalOutcome(OutcomeKind.EXACT, 1.0, 1.0, 1.0)
    if f1 == 0.0:
        return EvalOutcome(OutcomeKind.NO_OVERLAP, 0.0, 0.0, 0.0)
    distance = char_distance(predicted, expected, target_text)
    return EvalOutcome(
        OutcomeKind.PARTIAL_OVERLAP, recall, precision, f1, char_distance=distance
    )


# -- dataset IO ----------------------------------------------------------------


def _range_from_json(obj, where: str) -> CharacterRange:
    try:
        return CharacterRange(obj["l1"], obj["c1"], obj["l2"], obj["c2"])
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"{where}: bad range fields: {exc}") from exc


def record_from_json(obj: dict, where: str = "record") -> EvalRecord:
    """The record a codemapper-eval-v1 object describes; anything else is a
    DatasetError that names `where`."""
    try:
        if not isinstance(obj, dict):
            raise DatasetError(f"{where}: a record is a JSON object, not {type(obj).__name__}")
        schema = obj.get("schema", DATASET_SCHEMA)
        if schema != DATASET_SCHEMA:
            raise DatasetError(f"{where}: schema {schema!r} is not {DATASET_SCHEMA!r}")
        source = obj["source"]
        region = Region(
            source["commit"], source["file"], _range_from_json(source, where)
        )
        expected_obj = obj["expected"]
        expected: Target
        if expected_obj == "deleted":
            expected = DELETED
        elif isinstance(expected_obj, dict):
            expected = Region(
                obj["target_commit"],
                expected_obj.get("file", source["file"]),
                _range_from_json(expected_obj, where),
            )
        else:
            raise DatasetError(f'{where}: expected is {expected_obj!r}, not an object or "deleted"')
        return EvalRecord(
            repo=obj["repo"],
            source=region,
            target_commit=obj["target_commit"],
            expected=expected,
            tags=tuple(obj.get("tags", ())),
            name=obj.get("name", ""),
        )
    except DatasetError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{where}: {exc}") from exc


def record_to_json(record: EvalRecord) -> dict:
    expected = target_to_json(record.expected)
    if isinstance(expected, dict):
        del expected["commit"]  # the record's target_commit
    obj = {
        "schema": DATASET_SCHEMA,
        "repo": record.repo,
        "source": target_to_json(record.source),
        "target_commit": record.target_commit,
        "expected": expected,
        "tags": list(record.tags),
    }
    if record.name:
        obj["name"] = record.name
    return obj


def load_dataset(path) -> list[EvalRecord]:
    """Parse a JSONL dataset; parse errors are fatal with line numbers."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            records.append(record_from_json(obj, where=f"{path}:{lineno}"))
    return records


def dump_dataset(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_json(record)) + "\n")


# -- evaluation ----------------------------------------------------------------


@dataclass
class Aggregates:
    """A report's aggregates, its fields in report order. Rates are over
    scored records; character distance is averaged over partial overlaps."""

    records: int
    scored: int
    errors: int
    overlap_count: int
    overlap_rate: float
    exact_count: int
    exact_rate: float
    mean_char_distance: float | None
    mean_recall: float
    mean_precision: float
    mean_f1: float

    def to_json(self) -> dict:
        return asdict(self)


def aggregate(results) -> Aggregates:
    """Permutation-invariant aggregates over record results."""
    outcomes = [r.outcome for r in results if r.outcome is not None]
    scored = len(outcomes)
    overlap = sum(1 for o in outcomes if o.is_overlap)
    exact = sum(1 for o in outcomes if o.is_exact)
    distances = [o.char_distance for o in outcomes if o.char_distance is not None]

    def mean(values) -> float:
        return sum(values) / scored if scored else 0.0

    return Aggregates(
        records=len(results),
        scored=scored,
        errors=sum(1 for r in results if r.error is not None),
        overlap_count=overlap,
        overlap_rate=overlap / scored if scored else 0.0,
        exact_count=exact,
        exact_rate=exact / scored if scored else 0.0,
        mean_char_distance=sum(distances) / len(distances) if distances else None,
        mean_recall=mean(o.recall for o in outcomes),
        mean_precision=mean(o.precision for o in outcomes),
        mean_f1=mean(o.f1 for o in outcomes),
    )


@dataclass
class EvalReport:
    config: SelectionConfig
    results: list[RecordResult]
    aggregates: Aggregates
    by_tag: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "config": asdict(self.config),
            "aggregates": self.aggregates.to_json(),
            "by_tag": {tag: agg.to_json() for tag, agg in self.by_tag.items()},
            "records": [_result_to_json(result) for result in self.results],
        }


def target_to_json(target: Target | None):
    """JSON form of a mapped region: its coordinates, "deleted" or None."""
    if target is None:
        return None
    if isinstance(target, DeletedRegion):
        return "deleted"
    rng = target.range
    return {
        "commit": target.commit,
        "file": target.file,
        "l1": rng.l1,
        "c1": rng.c1,
        "l2": rng.l2,
        "c2": rng.c2,
    }


def _result_to_json(result: RecordResult) -> dict:
    out = {
        "name": result.record.name,
        "repo": result.record.repo,
        "tags": list(result.record.tags),
        "predicted": target_to_json(result.predicted),
        "expected": target_to_json(result.record.expected),
    }
    if result.outcome is not None:
        out["outcome"] = {**asdict(result.outcome), "kind": result.outcome.kind.value}
    if result.error is not None:
        out["error"] = result.error
    return out


def _resolve_repo(repo: str, base_dir, cache_dir) -> str:
    if "://" in repo or repo.endswith(".git"):
        cache_root = Path(cache_dir) if cache_dir else Path.home() / ".cache" / "codemapper"
        cache_root.mkdir(parents=True, exist_ok=True)
        clone = cache_root / hashlib.sha1(repo.encode()).hexdigest()[:16]
        if not clone.exists():
            # Clone aside and rename into place, so concurrent evaluations
            # of one repository never share a half-made clone.
            fresh = Path(tempfile.mkdtemp(prefix=f".{clone.name}-", dir=cache_root))
            try:
                run_git(["clone", "--quiet", repo, str(fresh)])
            except RepoError:
                shutil.rmtree(fresh, ignore_errors=True)
                raise
            try:
                fresh.rename(clone)
            except OSError:
                shutil.rmtree(fresh, ignore_errors=True)  # another thread won
                if not clone.exists():
                    raise
        return str(clone)
    path = Path(repo)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return str(path)


def evaluate_record(
    record: EvalRecord,
    config: SelectionConfig,
    base_dir=None,
    cache_dir=None,
) -> RecordResult:
    """Map and score one record. What the record itself can get wrong (its
    repository, commits, files or ranges) is the result's error; any other
    exception is a bug and propagates."""
    try:
        repo = _resolve_repo(record.repo, base_dir, cache_dir)
        result = map_region(repo, record.source, record.target_commit, config)
        predicted = result.target
        if isinstance(record.expected, Region):
            if record.expected.file == result.target_file:
                target_text = result.target_text
            else:
                target_text = GitGateway(repo).file_content(
                    result.target_commit, record.expected.file
                )
            # An expected range that does not fit its file is the record's
            # error, whatever was predicted.
            to_abs_interval(target_text, record.expected.range)
        else:
            target_text = ""
        outcome = classify_outcome(predicted, record.expected, target_text)
        return RecordResult(record, predicted, outcome)
    except (RepoError, OSError, InvalidRange, OutOfBounds) as exc:
        return RecordResult(record, None, None, error=f"{type(exc).__name__}: {exc}")


def evaluate(
    records,
    config: SelectionConfig | None = None,
    *,
    jobs: int = 1,
    base_dir=None,
    cache_dir=None,
) -> EvalReport:
    """Evaluate every record; per-record errors are recorded, not fatal."""
    config = config or SelectionConfig()

    def run(record):
        return evaluate_record(record, config, base_dir, cache_dir)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, records))
    else:
        results = [run(record) for record in records]

    by_tag: dict[str, list[RecordResult]] = {}
    for result in results:
        for tag in result.record.tags:
            by_tag.setdefault(tag, []).append(result)
    return EvalReport(
        config=config,
        results=results,
        aggregates=aggregate(results),
        by_tag={tag: aggregate(rs) for tag, rs in sorted(by_tag.items())},
    )


ABLATION_VARIANTS = (
    ("full", {}),
    ("no_diff", {"use_diff": False}),
    ("no_refinement", {"use_refinement": False}),
    ("no_movement", {"use_movement": False}),
    ("no_search", {"use_search": False}),
    ("no_context", {"context_lines": 0}),
)


def ablation_matrix(records, base_config=None, **kwargs) -> dict[str, EvalReport]:
    """One evaluation run per disabled component."""
    base_config = base_config or SelectionConfig()
    matrix = {}
    for name, overrides in ABLATION_VARIANTS:
        matrix[name] = evaluate(records, replace(base_config, **overrides), **kwargs)
    return matrix


def context_sweep(records, sizes, base_config=None, **kwargs) -> dict[int, EvalReport]:
    """One evaluation run per context size."""
    base_config = base_config or SelectionConfig()
    return {
        size: evaluate(records, replace(base_config, context_lines=size), **kwargs)
        for size in sizes
    }
