#!/usr/bin/env python3
"""codemapper benchmark: seeded workloads, answers checked against ground
truth, end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 perfbench/run.py --workload bigfile_edit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout holding ``src/codemapper``. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the human-readable report.
See perfbench/README.md for workloads and metric definitions.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKLOADS = ("bigfile_edit", "token_flood", "context_scoring", "corpus_ablation")
# Fresh processes whose median set-up time is setup_s. Probe k warms up
# with op k, so the figure does not hang on one op's cost; half of them
# run before the measured worker and half after it.
PROBES = 8
DEADLINE_S = 170  # the whole invocation, generation included
EXACT_FLOOR = 0.9  # below this share of exact answers a run is not correct

END_TO_END = (
    ("map_p50_ms", "ms"),
    ("map_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("exact_rate", "ratio"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("gitio.procs", "count"),
    ("gitio.wait_ms", "ms"),
    ("gitio.self_ms", "ms"),
    ("gitio.blob_reads", "count"),
    ("gitio.diff_bytes", "bytes"),
    ("diffparse.self_ms", "ms"),
    ("diffparse.hunks", "count"),
    ("candidates.self_ms", "ms"),
    ("candidates.produced", "count"),
    ("candidates.dedup_kept_ratio", "ratio"),
    ("search.self_ms", "ms"),
    ("search.hits", "count"),
    ("regions.self_ms", "ms"),
    ("regions.calls", "count"),
    ("regions.bytes_scanned", "chars"),
    ("selector.self_ms", "ms"),
    ("selector.scored", "count"),
    ("similarity.self_ms", "ms"),
    ("similarity.calls", "count"),
    ("similarity.dp_cells", "cells"),
    ("movement.self_ms", "ms"),
    ("movement.produced", "count"),
    ("pipeline.self_ms", "ms"),
    ("evaluation.self_ms", "ms"),
    ("evaluation.blob_reads", "count"),
    ("trace.op_ms", "ms"),
    ("trace.self_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it, and its
    value (nearest rank). Needs at least eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def samples(spec: dict, ok: list[dict]) -> list[float]:
    """Latency samples of the successful ops, in ms.

    A map op is one sample. Each corpus pass repeats the same record
    evaluations, so there one sample is an evaluation's median over the
    passes: a burst of machine noise in one pass then moves the tail
    percentile no more than it moves any other.
    """
    if spec["kind"] == "map":
        return [r["ms"] for r in ok]
    by_id: dict[str, list[float]] = {}
    for r in ok:
        by_id.setdefault(r["id"], []).append(r["ms"])
    return [statistics.median(v) for v in by_id.values()]


def count_occurrences(text: str, needle: str) -> int:
    """Occurrences of `needle` in `text`, overlapping ones included."""
    count, pos = 0, text.find(needle)
    while pos != -1:
        count += 1
        pos = text.find(needle, pos + 1)
    return count


# -- generation ----------------------------------------------------------------


def generate(name: str, seed: int, dest: Path, env: dict) -> dict:
    if name != "corpus_ablation":
        return workloads.generate_map_workload(name, seed, dest, env)
    sys.path.insert(0, str(SRC))
    from codemapper.fixtures import build_corpus

    corpus = dest / "corpus"
    build_corpus(corpus)
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    return {
        "workload": name,
        "kind": "corpus",
        "seed": seed,
        "corpus": str(corpus),
        "dataset": str(corpus / "dataset.jsonl"),
        "manifest": {case["name"]: case["outcome"] for case in manifest},
    }


# -- checks and properties -------------------------------------------------------


def check(spec: dict, raw: dict, trace: bool) -> tuple[bool, list[str]]:
    """Whether the run's outputs are correct, and why not."""
    ops = raw["ops"]
    problems = []
    failed = [r for r in ops if "error" in r]
    if failed:
        problems.append(f"{len(failed)} ops raised")
    if not raw["digest"]["complete"]:
        problems.append("fewer ops than the digest covers")
    if spec["kind"] == "map":
        exact = sum(1 for r in ops if r.get("exact"))
        if exact < EXACT_FLOOR * len(ops):
            problems.append(f"only {exact}/{len(ops)} answers exact (floor {EXACT_FLOOR})")
    else:
        manifest = spec["manifest"]
        for r in ops:
            label, name = r["id"].split("/", 1)
            if label == "evaluate" and r.get("outcome") != manifest[name]:
                problems.append(f"{r['id']}: outcome {r.get('outcome')}, manifest says {manifest[name]}")
        per_pass = raw["digest"]["ops"]
        passes = [
            sorted((r["id"], json.dumps(r.get("answer"))) for r in ops[k : k + per_pass])
            for k in range(0, len(ops), per_pass)
        ]
        if any(p != passes[0] for p in passes):
            problems.append("passes over the corpus gave different answers")
    if trace:
        if not raw["bindings_restored"]:
            problems.append("tracer left a module binding changed")
        if not raw["traced_equals_untraced"]:
            problems.append("traced and untraced answers differ")
    return not problems, problems


def properties(spec: dict, ops: list[dict]) -> list[str]:
    """Input properties of the ops this run attempted."""
    lines = []
    if spec["kind"] == "map":
        props = spec["properties"]
        lines.append(
            f"file: {min(props['file_lines'])}-{max(props['file_lines'])} lines, "
            f"{min(props['file_bytes'])}-{max(props['file_bytes'])} bytes, "
            f"{props['commits']} commits"
        )
        by_id = {op["id"]: op for op in spec["ops"]}
        attempted = [by_id[r["id"]] for r in ops]
        texts = Path(spec["texts"])
        cache: dict[int, str] = {}
        hits = []
        for op in attempted:
            j = op["target_index"]
            if j not in cache:
                cache[j] = (texts / f"{j}.txt").read_text(encoding="utf-8")
            hits.append(count_occurrences(cache[j], op["source_text"]))
        pairs = [tuple(op["pair"]) for op in attempted]
        cands = [r["candidates"] for r in ops if "candidates" in r]
        lines.append(f"search hits per op (exact occurrences in the target): mean {statistics.mean(hits):.1f}")
        traps = sum(op["trap"] for op in attempted)
        if traps:
            lines.append(f"ops on a token renamed below an inserted line: {traps} of {len(attempted)}")
        if cands:
            lines.append(f"ranked candidates per op: mean {statistics.mean(cands):.2f}")
    else:
        pairs = [r["id"].split("/", 1)[1] for r in ops]
        lines.append(f"corpus: {len(spec['manifest'])} fixture records per evaluation")
    seen: set = set()
    repeats = 0
    for pair in pairs:
        repeats += pair in seen
        seen.add(pair)
    lines.append(
        f"ops repeating an earlier (source blob, target blob) pair: "
        f"{repeats / len(pairs):.3f} ({repeats} of {len(pairs)})"
    )
    return lines


# -- main -----------------------------------------------------------------------


def run_worker(spec_path: Path, out: Path, extra: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, errors="replace", timeout=timeout)
    if proc.returncode != 0:
        code = proc.returncode
        how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
        raise RuntimeError(f"worker {' '.join(extra)} failed ({how}):\n{proc.stderr.strip()}")
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="codemapper benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "codemapper" / "__init__.py").is_file():
        print(f"error: no codemapper sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = workloads.pinned_env(work)
    os.environ.clear()
    os.environ.update(env)
    try:
        started = time.perf_counter()
        spec = generate(args.workload, args.seed, work, env)
        generation_s = time.perf_counter() - started
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        def probe(k: int) -> float:
            extra = ["--probe", "--warmup", str(k)]
            return run_worker(spec_path, work / f"probe{k}.json", extra, env, deadline)["setup_s"]

        probes = [probe(k) for k in range(PROBES // 2)]
        spans = WORK / f"spans-{args.workload}.jsonl.gz"
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans)]
        raw = run_worker(spec_path, work / "result.json", extra, env, deadline)
        probes += [probe(k) for k in range(PROBES // 2, PROBES)]
        return report(args, spec, raw, probes, generation_s, spans)
    except Exception:  # every failure ends with its cause on stderr and exit code 1
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, spec: dict, raw: dict, probes: list[float], generation_s: float, spans: Path) -> int:
    """Print the human-readable report and, last, the result line."""
    ops = raw["ops"]
    ok = [r for r in ops if "error" not in r]
    failed = len(ops) - len(ok)
    exact = sum(1 for r in ops if r.get("exact"))
    correct, problems = check(spec, raw, bool(args.trace))
    ms = samples(spec, ok)
    if not ms:
        print(f"error: all {len(ops)} ops raised, e.g. {ops[0]['error']}", file=sys.stderr)
        return 1
    tail_ms, tail_pct = tail(ms) if len(ms) > 10 else (max(ms), 100)
    e2e = {
        "map_p50_ms": statistics.median(ms),
        "map_tail_ms": tail_ms,
        "ops_per_s": len(ops) / raw["elapsed_s"],
        "exact_rate": exact / len(ops),
        "ok_rate": len(ok) / len(ops),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": raw["peak_rss_mb"],
    }

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  closed loop, one caller, jobs=1")
    print(f"input generation: {generation_s:.3f} s (not gated)")
    for line in properties(spec, ops):
        print(f"  {line}")
    if args.trace:
        print(f"end-to-end figures: the untraced runs of {len(ops)} ops, alternated with traced "
              f"runs of the same ops (traced: {raw['traced_elapsed_s']:.2f} s, "
              f"untraced: {raw['elapsed_s']:.2f} s)")
    notes = {
        "map_tail_ms": f"p{tail_pct} of {len(ms)} samples",
        "exact_rate": f"{exact} of {len(ops)} answers equal ground truth",
        "ok_rate": f"error_rate {failed / len(ops):.4f} ({failed} of {len(ops)} ops raised)",
        "setup_s": "median of " + ", ".join(f"{p:.3f}" for p in probes),
        "ops_per_s": f"{len(ops)} ops in {raw['elapsed_s']:.2f} s",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:>12.4f} {unit:<6} {notes.get(name, '')}")
    d = raw["digest"]
    print(f"answers digest: sha256 {d['sha256']} over the first {d['ops']} ops")
    trap_ids = {op["id"] for op in spec.get("ops", ()) if op["trap"]}
    misses: dict = {}
    for r in ops:
        if not r.get("exact"):
            misses.setdefault(r["id"], []).append(r)
    print(f"mismatching ops: {sum(len(v) for v in misses.values())} ({len(misses)} distinct op ids)")
    for op_id, rs in misses.items():
        r = rs[0]
        trap = " (token renamed below an inserted line)" if op_id in trap_ids else ""
        print(f"  op {op_id} x{len(rs)}: {r.get('error') or r.get('answer')} "
              f"outcome={r.get('outcome')} char_distance={r.get('char_distance')}{trap}")
    for problem in problems:
        print(f"not correct: {problem}")

    if args.trace:
        layers = raw["layers"]
        print(f"per-layer, per op over {len(ops)} traced ops (self time excludes child spans); "
              f"dedup base {layers['candidates.dedup_base']} candidates; spans in {spans}")
        for name, unit in PER_LAYER:
            print(f"  {name:<28} {layers[name]:>14.4f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
