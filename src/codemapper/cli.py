"""Command-line entry points: single mappings, batch evaluation, ablations.

Coordinates are 1-based with an inclusive end column, matching the library's
range convention. Exit codes: 0 success, 2 region-resolution failure,
3 repository errors, 64 usage errors, 65 dataset parse errors, 70 internal
errors (git output codemapper cannot read, or any other bug), 73 an eval
report that cannot be written. `eval` exits 1 when any record has an error.
"""

import argparse
import json
import sys
import traceback
from pathlib import Path

from codemapper.diffparse import MalformedDiff
from codemapper.gitio import NotFound, RepoError
from codemapper.pipeline import MappingResult, map_region
from codemapper.regions import (
    DeletedRegion,
    InvalidRange,
    OutOfBounds,
    Region,
    make_range,
    target_to_json,
)
from codemapper.selector import SelectionConfig

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _at_least(low: int, what: str):
    """An argparse type: an integer of at least `low`, called `what`."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what}: {value!r}") from None
        if number < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, not {number}")
        return number

    return parse


_context_size = _at_least(0, "context size")


def _context_sizes(value: str) -> list[int]:
    sizes = [_context_size(piece) for piece in value.split(",") if piece.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError(f"no context size in {value!r}")
    return sizes


def _build_parser() -> _Parser:
    parser = _Parser(prog="codemapper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    map_cmd = sub.add_parser("map", help="map one code region between two commits")
    map_cmd.add_argument("--repo", required=True, help="path to the git repository")
    map_cmd.add_argument("--source-commit", required=True)
    map_cmd.add_argument("--file", required=True, help="path of the file at the source commit")
    map_cmd.add_argument("--start-line", required=True, type=int)
    map_cmd.add_argument("--start-col", required=True, type=int)
    map_cmd.add_argument("--end-line", required=True, type=int)
    map_cmd.add_argument("--end-col", required=True, type=int)
    map_cmd.add_argument("--target-commit", required=True)
    map_cmd.add_argument("--context", type=_context_size, default=15, metavar="N")
    map_cmd.add_argument("--no-refine", action="store_true")
    map_cmd.add_argument("--no-move", action="store_true")
    map_cmd.add_argument("--no-search", action="store_true")
    map_cmd.add_argument("--format", choices=("json", "text"), default="text")
    map_cmd.add_argument("--verbose", action="store_true", help="include all ranked candidates")
    map_cmd.add_argument("--timing", action="store_true", help="report per-phase wall time")

    eval_cmd = sub.add_parser("eval", help="score a dataset of mapping tasks")
    eval_cmd.add_argument("--dataset", required=True)
    eval_cmd.add_argument("--context", type=_context_size, default=15, metavar="N")
    eval_cmd.add_argument("--ablation", action="store_true", help="one run per disabled component")
    eval_cmd.add_argument(
        "--context-sweep",
        type=_context_sizes,
        metavar="SIZES",
        help="comma-separated context sizes, e.g. 0,1,3,5,10,15,20",
    )
    eval_cmd.add_argument("--jobs", type=_at_least(1, "job count"), default=1)
    eval_cmd.add_argument("--format", choices=("json", "text"), default="text")
    eval_cmd.add_argument("--out", help="write the report to this file instead of stdout")
    return parser


def _map_output(result: MappingResult, args) -> dict:
    out: dict = {
        "source": target_to_json(result.source),
        "target": target_to_json(result.target),
    }
    if result.reason:
        out["reason"] = result.reason
    selected = result.selected
    if selected is not None and not isinstance(result.target, DeletedRegion):
        out["origin"] = selected.origin.value
        out["similarity"] = selected.similarity
    if args.verbose:
        out["candidates"] = [
            {
                "region": target_to_json(result.region_of(cand)),
                "origin": cand.origin.value,
                "similarity": cand.similarity,
            }
            for cand in result.candidates
        ]
    if args.timing:
        out["timing"] = {
            "candidates_ms": round(result.timings.candidates_s * 1000, 3),
            "selection_ms": round(result.timings.selection_s * 1000, 3),
            "total_ms": round(result.timings.total_s * 1000, 3),
        }
    return out


def _print_map_text(result: MappingResult, args) -> None:
    if isinstance(result.target, DeletedRegion):
        suffix = f" ({result.reason})" if result.reason else ""
        print(f"target: deleted{suffix}")
    else:
        rng = result.target.range
        selected = result.selected
        print(
            f"target: {result.target.file} {rng} "
            f"(origin={selected.origin.value}, similarity={selected.similarity:.4f})"
        )
    if args.verbose:
        for cand in result.candidates:
            region = result.region_of(cand)
            where = "deleted" if cand.is_deleted else f"{region.file} {region.range}"
            print(f"  candidate: {where} origin={cand.origin.value} similarity={cand.similarity:.4f}")
    if args.timing:
        t = result.timings
        print(
            f"timing: candidates {t.candidates_s * 1000:.1f} ms, "
            f"selection {t.selection_s * 1000:.1f} ms, total {t.total_s * 1000:.1f} ms"
        )


def cmd_map(args) -> int:
    config = SelectionConfig(
        context_lines=args.context,
        use_refinement=not args.no_refine,
        use_movement=not args.no_move,
        use_search=not args.no_search,
    )
    try:
        source = Region(
            args.source_commit,
            args.file,
            make_range(args.start_line, args.start_col, args.end_line, args.end_col),
        )
    except ValueError as exc:
        print(f"codemapper: cannot resolve source region: {exc}", file=sys.stderr)
        return 2
    try:
        result = map_region(args.repo, source, args.target_commit, config)
    except (InvalidRange, OutOfBounds, NotFound) as exc:
        print(f"codemapper: cannot resolve source region: {exc}", file=sys.stderr)
        return 2
    except RepoError as exc:
        print(f"codemapper: repository error: {exc}", file=sys.stderr)
        return 3
    except MalformedDiff as exc:
        print(f"codemapper: internal error: cannot read git output: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    if args.format == "json":
        print(json.dumps(_map_output(result, args), indent=2))
    else:
        _print_map_text(result, args)
    return 0


def _aggregates_text(label: str, report) -> str:
    agg = report.aggregates
    distance = (
        f"{agg.mean_char_distance:.1f}" if agg.mean_char_distance is not None else "-"
    )
    return (
        f"{label:<14s} records={agg.records:<3d} exact={agg.exact_count}"
        f" ({agg.exact_rate:.1%}) overlap={agg.overlap_count} ({agg.overlap_rate:.1%})"
        f" char_dist={distance} recall={agg.mean_recall:.3f}"
        f" precision={agg.mean_precision:.3f} f1={agg.mean_f1:.3f}"
        f" errors={agg.errors}"
    )


def cmd_eval(args) -> int:
    # Imported here, so that `map` does not load the evaluation harness.
    from codemapper.evaluation import (
        DatasetError,
        ablation_matrix,
        context_sweep,
        evaluate,
        load_dataset,
    )

    try:
        records = load_dataset(args.dataset)
    except DatasetError as exc:
        print(f"codemapper: {exc}", file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:
        print(f"codemapper: cannot read dataset: {exc}", file=sys.stderr)
        return EX_DATAERR

    if args.out:
        # Open the report file for writing before any record is evaluated,
        # so an unwritable path costs no evaluation; appending keeps what
        # it holds until the report replaces it.
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            return _cannot_write(exc)

    base_dir = Path(args.dataset).resolve().parent
    config = SelectionConfig(context_lines=args.context)
    if args.ablation:
        # The matrix's "full" entry is the plain evaluation; run it once.
        matrix = ablation_matrix(records, config, jobs=args.jobs, base_dir=base_dir)
        report = matrix["full"]
    else:
        report = evaluate(records, config, jobs=args.jobs, base_dir=base_dir)
    output: dict = {"dataset": str(args.dataset), "report": report.to_json()}
    lines = [_aggregates_text("full", report)]

    if args.ablation:
        output["ablation"] = {name: rep.to_json() for name, rep in matrix.items()}
        lines += [_aggregates_text(name, rep) for name, rep in matrix.items() if name != "full"]

    if args.context_sweep:
        sweep = context_sweep(
            records, args.context_sweep, config, jobs=args.jobs, base_dir=base_dir
        )
        output["context_sweep"] = {str(size): rep.to_json() for size, rep in sweep.items()}
        lines += [_aggregates_text(f"context={size}", rep) for size, rep in sweep.items()]

    rendered = (
        json.dumps(output, indent=2) if args.format == "json" else "\n".join(lines)
    )
    if args.out:
        try:
            Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        except OSError as exc:
            return _cannot_write(exc)
    else:
        print(rendered)
    return 1 if report.aggregates.errors else 0


def _cannot_write(exc: OSError) -> int:
    print(f"codemapper: cannot write report: {exc}", file=sys.stderr)
    return EX_CANTCREAT


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return cmd_map(args) if args.command == "map" else cmd_eval(args)
    except Exception as exc:  # a bug: any error a command does not report itself
        traceback.print_exc()  # for the bug report; the summary line comes last
        print(f"codemapper: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
