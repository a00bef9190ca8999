"""Same outputs: the fixture corpus maps and evaluates exactly as recorded.

`tests/data/fixture_outputs.json` holds, for the bundled corpus, the
predicted target and outcome kind of every record in every report of
`eval --format json --ablation --context-sweep 0,5,15`, and the
`map --format json --verbose` output of every record. Commit hashes are
deterministic, so the file compares byte for byte. A change that is meant to
alter answers rewrites the file with

    PYTHONPATH=src python3 tests/test_same_outputs.py

and explains every changed entry.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from codemapper.cli import main as cli_main
from codemapper.evaluation import load_dataset
from codemapper.fixtures import build_corpus

DATA = Path(__file__).parent / "data" / "fixture_outputs.json"
SWEEP = "0,5,15"


def _run(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    assert code == 0, argv
    return json.loads(out.getvalue())


def _answers(report: dict) -> list[dict]:
    return [
        {
            "name": record["name"],
            "predicted": record["predicted"],
            "outcome": record["outcome"]["kind"] if "outcome" in record else None,
            "error": record.get("error"),
        }
        for record in report["records"]
    ]


def collect(dest: Path) -> dict:
    """The recorded outputs of a corpus freshly built under `dest`."""
    build_corpus(dest)
    dataset = dest / "dataset.jsonl"
    payload = _run(
        "eval", "--dataset", str(dataset), "--format", "json",
        "--ablation", "--context-sweep", SWEEP,
    )
    reports = {"report": payload["report"]}
    reports.update({f"ablation/{name}": rep for name, rep in payload["ablation"].items()})
    reports.update({f"context_sweep/{size}": rep for size, rep in payload["context_sweep"].items()})
    mapped = {}
    for record in load_dataset(dataset):
        rng = record.source.range
        mapped[record.name] = _run(
            "map", "--repo", str(dest / record.repo),
            "--source-commit", record.source.commit, "--file", record.source.file,
            "--start-line", str(rng.l1), "--start-col", str(rng.c1),
            "--end-line", str(rng.l2), "--end-col", str(rng.c2),
            "--target-commit", record.target_commit,
            "--format", "json", "--verbose",
        )
    return {
        "eval": {name: _answers(rep) for name, rep in reports.items()},
        "map": mapped,
    }


def _render(outputs: dict) -> str:
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


def test_fixture_corpus_outputs_are_unchanged(tmp_path):
    outputs = collect(tmp_path / "corpus")
    assert len(outputs["map"]) == 12
    assert len(outputs["eval"]) == 1 + 6 + 3
    assert _render(outputs) == DATA.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(_render(collect(Path(tmp) / "corpus")), encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
