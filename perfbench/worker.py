"""Measured process: imports codemapper, warms up, runs one workload.

Started by run.py with a spec file made by the generator; writes its raw
results as JSON to OUT. Separate from run.py so that setup time and peak
RSS cover codemapper and this loop only, not input generation.

    python3 perfbench/worker.py SPEC OUT --seconds S --trace 0|1
    python3 perfbench/worker.py SPEC OUT --probe
"""

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402

# Ops whose answers the digest covers; every run completes at least these.
DIGEST_OPS = {"bigfile_edit": 24, "token_flood": 24, "context_scoring": 12}
SWEEP_SIZES = (0, 1, 3, 5, 10, 15, 20)

clock = time.perf_counter


def digest(answers) -> str:
    """sha256 over (op id, answer) pairs, as canonical JSON lines."""
    h = hashlib.sha256()
    for op_id, answer in answers:
        h.update(json.dumps([op_id, answer], separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def answer_of(target):
    """Canonical JSON form of a MappingResult/RecordResult target."""
    import codemapper

    if target is None:
        return None
    if isinstance(target, codemapper.Region):
        return [target.file, *target.range.as_tuple()]
    return "deleted"


class MapWorkload:
    """Maps one generated token region per op through map_region."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.ops = spec["ops"]
        self.texts = Path(spec["texts"])
        self.digest_ops = DIGEST_OPS[spec["workload"]]

    def setup(self, warmup: int = 0):
        import codemapper
        import codemapper.evaluation  # noqa: F401

        self.cm = codemapper
        self.config = codemapper.SelectionConfig(context_lines=self.spec["context_lines"])
        self.run_op(self.ops[warmup])  # untimed

    def sequence(self):
        """Timed ops, in order, cycling past the end of the stream."""
        k = 0
        while True:
            yield self.ops[1 + k % (len(self.ops) - 1)]
            k += 1

    def run_op(self, op, tracer=None) -> list[dict]:
        cm = self.cm
        src, exp = op["source"], op["expected"]
        region = cm.Region(src["commit"], src["file"], cm.CharacterRange(*src["range"]))
        if tracer is not None:
            tracer.op = op["id"]
            root = tracer.open("op", tracing.ROOT)
        out = {"id": op["id"]}
        started = clock()
        try:
            result = cm.map_region(self.spec["repo"], region, op["target_commit"], self.config)
        except Exception as exc:  # recorded per op, like evaluate does
            out["ms"] = (clock() - started) * 1000
            out["error"] = f"{type(exc).__name__}: {exc}"
        else:
            out["ms"] = (clock() - started) * 1000
            out["answer"] = answer_of(result.target)
            out["candidates"] = len(result.candidates)
            out["exact"] = out["answer"] == [exp["file"], *exp["range"]]
        if tracer is not None:
            tracer.close(root)
            tracer.op = None
        return [out]

    def score_misses(self, records) -> None:
        """Score each wrong answer the way the eval harness does, so a miss
        is listed with its outcome kind and character distance. Runs after
        the timed phase: it re-reads whole target texts."""
        cm = self.cm
        by_id = {op["id"]: op for op in self.ops}
        for r in records:
            if "error" in r or r["exact"]:
                continue
            op = by_id[r["id"]]
            exp = op["expected"]
            target_text = (self.texts / f"{op['target_index']}.txt").read_text(encoding="utf-8")
            want = cm.Region(op["target_commit"], exp["file"], cm.CharacterRange(*exp["range"]))
            answer = r["answer"]
            got = cm.DELETED if answer == "deleted" else cm.Region(
                op["target_commit"], answer[0], cm.CharacterRange(*answer[1:])
            )
            outcome = cm.evaluation.classify_outcome(got, want, target_text)
            r["outcome"] = outcome.kind.value
            r["char_distance"] = outcome.char_distance

    def digest(self, records) -> dict:
        first = [(r["id"], r.get("answer")) for r in records[: self.digest_ops]]
        return {
            "ops": len(first),
            "sha256": digest(first),
            "complete": len(first) == self.digest_ops,
        }

    def minimum_ops(self) -> int:
        return self.digest_ops


class CorpusWorkload:
    """One op is one fixture-record evaluation; one unit of the loop is a
    pass of evaluate, ablation_matrix and context_sweep over the corpus."""

    def __init__(self, spec: dict):
        self.spec = spec

    def setup(self, warmup: int = 0):
        from codemapper import evaluation

        self.evaluation = evaluation
        records = evaluation.load_dataset(self.spec["dataset"])
        random.Random(self.spec["seed"]).shuffle(records)
        self.records = records
        self.base_dir = self.spec["corpus"]
        evaluation.evaluate(records[warmup : warmup + 1], base_dir=self.base_dir)  # untimed

    def sequence(self):
        while True:
            yield None

    def run_op(self, _unit, tracer=None) -> list[dict]:
        evaluation = self.evaluation
        timings: list[float] = []
        original = evaluation.evaluate_record

        def timed(record, *args, **kwargs):
            if tracer is not None:
                tracer.op = f"{len(timings)}:{record.name}"
                root = tracer.open("op", tracing.ROOT)
            started = clock()
            try:
                return original(record, *args, **kwargs)
            finally:
                timings.append((clock() - started) * 1000)
                if tracer is not None:
                    tracer.close(root)
                    tracer.op = None

        bound = [m for m in tracing.codemapper_modules() if vars(m).get("evaluate_record") is original]
        for module in bound:
            module.evaluate_record = timed
        try:
            kw = {"base_dir": self.base_dir}
            reports = [("evaluate", evaluation.evaluate(self.records, **kw))]
            reports += [(f"ablation:{k}", r) for k, r in evaluation.ablation_matrix(self.records, **kw).items()]
            reports += [(f"sweep:{k}", r) for k, r in evaluation.context_sweep(self.records, SWEEP_SIZES, **kw).items()]
        finally:
            for module in bound:
                module.evaluate_record = original
        out = []
        results = [(label, result) for label, report in reports for result in report.results]
        if len(results) != len(timings):
            raise RuntimeError(f"{len(timings)} timed record evaluations for {len(results)} results")
        for (label, result), ms in zip(results, timings):
            record = {"id": f"{label}/{result.record.name}", "ms": ms, "answer": answer_of(result.predicted)}
            if result.error is not None:
                record["error"] = result.error
            else:
                record["exact"] = result.outcome.is_exact
                record["outcome"] = result.outcome.kind.value
                record["char_distance"] = result.outcome.char_distance
            out.append(record)
        return out

    def score_misses(self, records) -> None:
        pass  # evaluate already scored every record

    def digest(self, records) -> dict:
        first = sorted((r["id"], r.get("answer")) for r in records[: self.minimum_ops()])
        return {"ops": len(first), "sha256": digest(first), "complete": len(first) == self.minimum_ops()}

    def minimum_ops(self) -> int:
        return len(self.records) * (1 + len(self.evaluation.ABLATION_VARIANTS) + len(SWEEP_SIZES))


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    ru_maxrss is no use here: exec folds the RSS of the address space it
    replaces into it, and a child spawned by vfork replaces the parent's,
    so it would report run.py's input generation. VmHWM starts afresh at
    exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_phase(workload, units, seconds: float, minimum: int):
    """Closed loop, one caller: run units until `seconds` have passed and at
    least `minimum` ops are done. Returns (records, elapsed seconds)."""
    records: list[dict] = []
    started = clock()
    for unit in units:
        records.extend(workload.run_op(unit))
        if len(records) >= minimum and clock() - started >= seconds:
            break
    return records, clock() - started


def run_alternating(workload, units, seconds: float, minimum: int, tracer):
    """Run every unit twice, traced and untraced, until `seconds` have passed
    and at least `minimum` untraced ops are done. The order within a pair
    alternates, and the tracer is installed around each traced unit only,
    so drift in machine speed weighs on both halves alike.

    Returns (traced records, untraced records, traced s, untraced s).
    """
    traced: list[dict] = []
    untraced: list[dict] = []
    traced_s = untraced_s = 0.0
    started = clock()
    for k, unit in enumerate(units):
        for with_trace in (k % 2 == 0, k % 2 == 1):
            if with_trace:
                tracer.install()
                try:
                    t0 = clock()
                    traced.extend(workload.run_op(unit, tracer))
                    traced_s += clock() - t0
                finally:
                    tracer.uninstall()
            else:
                t0 = clock()
                untraced.extend(workload.run_op(unit))
                untraced_s += clock() - t0
        if len(untraced) >= minimum and clock() - started >= seconds:
            break
    return traced, untraced, traced_s, untraced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="measure set-up only")
    parser.add_argument("--warmup", type=int, default=0, help="index of the warm-up op")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    workload = (MapWorkload if spec["kind"] == "map" else CorpusWorkload)(spec)

    started = clock()
    workload.setup(args.warmup)  # imports codemapper, runs the warm-up op
    setup_s = clock() - started
    out: dict = {"setup_s": setup_s}
    if args.probe:
        Path(args.out).write_text(json.dumps(out), encoding="utf-8")
        return 0

    minimum = workload.minimum_ops()
    if not args.trace:
        records, elapsed = run_phase(workload, workload.sequence(), args.seconds, minimum)
    else:
        before = tracing.function_bindings()
        tracer = tracing.Tracer()
        traced, records, traced_s, elapsed = run_alternating(
            workload, workload.sequence(), args.seconds, minimum, tracer
        )
        out["bindings_restored"] = tracing.function_bindings() == before
        out["traced_equals_untraced"] = [r.get("answer") for r in traced] == [
            r.get("answer") for r in records
        ]
        layers = tracing.layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_ratio"] = traced_s / elapsed
        out["layers"] = layers
        out["traced_elapsed_s"] = traced_s
        if args.spans:
            tracer.dump(args.spans)
    workload.score_misses(records)
    out["elapsed_s"] = elapsed
    out["ops"] = records
    out["digest"] = workload.digest(records)
    out["peak_rss_mb"] = peak_rss_mb()
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
