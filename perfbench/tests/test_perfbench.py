"""Tests of the benchmark itself: generator ground truth, tracer bindings,
and traced-vs-untraced answers.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import MapWorkload, run_alternating  # noqa: E402


@pytest.fixture
def pinned(tmp_path, monkeypatch):
    """The benchmark's pinned git environment, applied to this process."""
    (tmp_path / "tmp").mkdir()
    env = workloads.pinned_env(tmp_path)
    for key in list(os.environ):
        if key not in env:
            monkeypatch.delenv(key)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    return env


def _span(text: str, rng) -> str:
    l1, c1, l2, c2 = rng
    lines = text.split("\n")
    assert l1 == l2
    return lines[l1 - 1][c1 - 1 : c2]


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_expected_region_text_matches_source_for_unchanged_tokens(name, tmp_path, pinned):
    spec = workloads.generate_map_workload(name, 7, tmp_path, pinned)
    texts = Path(spec["texts"])
    content = {}
    unchanged = 0
    for op in spec["ops"]:
        for k in (op["source_index"], op["target_index"]):
            if k not in content:
                content[k] = (texts / f"{k}.txt").read_text(encoding="utf-8")
        source = _span(content[op["source_index"]], op["source"]["range"])
        expected = _span(content[op["target_index"]], op["expected"]["range"])
        assert source == op["source_text"]
        assert expected == op["expected_text"]
        if op["source_text"] == op["expected_text"]:
            unchanged += 1
            assert expected == source
    assert unchanged > len(spec["ops"]) // 2


def test_bigfile_trap_ops_map_a_renamed_token_below_an_inserted_line(tmp_path, pinned):
    spec = workloads.generate_map_workload("bigfile_edit", 2, tmp_path, pinned)
    traps = [op for op in spec["ops"] if op["trap"]]
    assert len(traps) == len(spec["ops"]) // 20
    texts = Path(spec["texts"])
    adjacent = 0
    for op in traps:
        assert op["source_text"] != op["expected_text"]
        if op["target_index"] == op["source_index"] + 1:
            adjacent += 1
            source = (texts / f"{op['source_index']}.txt").read_text(encoding="utf-8")
            target = (texts / f"{op['target_index']}.txt").read_text(encoding="utf-8").split("\n")
            inserted = target[op["expected"]["range"][0] - 2]
            assert inserted + "\n" not in source
            assert inserted.strip() and not inserted.startswith("def ")
    assert adjacent > 0


def test_context_scoring_crosses_the_anchor_rename_in_op_8_only(tmp_path, pinned):
    spec = workloads.generate_map_workload("context_scoring", 2, tmp_path, pinned)
    renamed_at = workloads.SPECS["context_scoring"].commits // 2
    (trap,) = [op for op in spec["ops"] if op["trap"]]
    assert trap["id"] == 8
    assert (trap["source_text"], trap["expected_text"]) == (workloads.ANCHOR_TOKEN, workloads.ANCHOR_RENAMED)
    assert trap["source_index"] < renamed_at <= trap["target_index"]
    for op in spec["ops"]:
        if op["id"] % 8 == 0 and op["id"] != 8:  # the renamed anchor's other turns
            assert op["source_text"] == op["expected_text"]


def test_dp_cells_count_the_kernel_table_after_stripping(pinned):
    from codemapper import similarity

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        assert similarity.levenshtein_distance("abcXdef", "abcYYdef") == 2
        assert similarity.levenshtein_distance("same", "same") == 0
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["similarity.dp_cells"] == 1 * 2
    assert layers["similarity.calls"] == 2


def test_committed_blobs_equal_generated_texts(tmp_path, pinned):
    spec = workloads.generate_map_workload("token_flood", 3, tmp_path, pinned)
    op = spec["ops"][0]
    shown = subprocess.run(
        ["git", "show", f"{op['target_commit']}:{op['expected']['file']}"],
        cwd=spec["repo"], capture_output=True, check=True,
    ).stdout.decode("utf-8")
    assert shown == (Path(spec["texts"]) / f"{op['target_index']}.txt").read_text(encoding="utf-8")


def test_generation_is_deterministic(tmp_path, pinned):
    a = workloads.generate_map_workload("context_scoring", 5, tmp_path / "a", pinned)
    b = workloads.generate_map_workload("context_scoring", 5, tmp_path / "b", pinned)
    assert a["ops"] == b["ops"]


def test_tracer_rebinds_every_importer_and_restores_them(pinned):
    import codemapper.evaluation  # noqa: F401  (imports every layer)
    from codemapper import evaluation, gitio, pipeline, search, selector, similarity

    before = tracing.function_bindings()
    real_subprocess = gitio.subprocess
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr in [
            (pipeline, "search_text"),
            (search, "search_text"),
            (pipeline, "parse_line_diff"),
            (pipeline, "parse_word_diff"),
            (selector, "levenshtein_similarity"),
            (similarity, "levenshtein_similarity"),
            (selector, "extract_text"),
            (pipeline, "to_abs_interval"),
            (evaluation, "to_abs_interval"),
            (evaluation, "map_region"),
        ]:
            assert getattr(module, attr) is not before[(module.__name__, attr)], (module, attr)
            assert getattr(module, attr).__wrapped__ is before[(module.__name__, attr)]
        assert gitio.subprocess is not real_subprocess
        assert subprocess.run is real_subprocess.run
    finally:
        tracer.uninstall()
    assert tracing.function_bindings() == before
    assert gitio.subprocess is real_subprocess


def test_traced_and_untraced_runs_give_identical_answers(tmp_path, pinned):
    spec = workloads.generate_map_workload("token_flood", 11, tmp_path, pinned)
    spec["ops"] = spec["ops"][:5]
    bench = MapWorkload(spec)
    bench.setup()
    before = tracing.function_bindings()
    tracer = tracing.Tracer()
    traced, untraced, _, _ = run_alternating(bench, iter(spec["ops"][1:]), 0.0, 4, tracer)
    assert tracing.function_bindings() == before
    # The benchmark's own git process is not counted as codemapper's.
    tracer.install()
    try:
        subprocess.run(["git", "--version"], capture_output=True, check=True)
    finally:
        tracer.uninstall()
    assert [r["id"] for r in traced] == [r["id"] for r in untraced] == [1, 2, 3, 4]
    assert [r["answer"] for r in traced] == [r["answer"] for r in untraced]
    assert all(r["exact"] for r in untraced)

    layers = tracing.layer_metrics(tracer.spans, len(traced))
    assert layers["gitio.procs"] == 13  # 2 rev-parse, 2 show, 1 cat-file, 8 diff
    assert layers["search.hits"] == (200 + 300 + 100 + 200) / 4  # beta, gamma, alpha, beta
    assert 0.95 < layers["trace.self_coverage"] <= 1.0
    roots = [s for s in tracer.spans if s[tracing.LAYER] == tracing.ROOT]
    assert len(roots) == 4 and all(s[tracing.OP] is not None for s in tracer.spans)


def test_metric_lists_match_benchmark_json():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(run.PER_LAYER)


def test_tail_is_highest_percentile_with_ten_samples_above():
    value, pct = run.tail([float(k) for k in range(1, 61)])
    assert pct == 83 and value == 50.0  # ten samples (51..60) above it
    value, pct = run.tail([float(k) for k in range(1, 201)])
    assert pct == 95 and value == 190.0
