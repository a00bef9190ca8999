"""Per-layer tracing of codemapper from outside the program.

`Tracer.install()` wraps every public function of each codemapper layer
module, plus the public methods of `gitio.GitGateway`, and binds each
wrapper at every module that holds a reference to the function (``from x
import f`` copies the reference, so patching the defining module alone
misses most calls). Git processes are counted through a proxy bound to
``codemapper.gitio.subprocess`` only, so the benchmark's own git calls are
not counted. Spans (name, layer, start, end, parent, op id, counters) are
kept in memory; `uninstall()` restores every binding it replaced.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "gitio",
    "diffparse",
    "candidates",
    "movement",
    "search",
    "regions",
    "selector",
    "similarity",
    "pipeline",
    "evaluation",
)

WAIT = "gitio.wait"  # span layer of one git child process
ROOT = "bench"  # span layer of one benchmark op

# Span fields.
NAME, LAYER, START, END, PARENT, OP, COUNT = range(7)


def _len0(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


def _dedup(args, kwargs, result):
    produced = args[0] if args else kwargs.get("candidates")
    return (len(produced), len(result)) if hasattr(produced, "__len__") else None


def _scored(args, kwargs, result):
    candidates = args[2] if len(args) > 2 else kwargs.get("candidates")
    return len(candidates)


def _cells(args, kwargs, result):
    return len(args[0]) * len(args[1])


# What each span records besides its times, O(1) at call time.
COUNTERS = {
    "search.search_text": _result_len,
    "diffparse.parse_line_diff": _result_len,
    "diffparse.parse_word_diff": _result_len,
    "candidates.dedup_candidates": _dedup,
    "movement.detect_movements": _result_len,
    "selector.select_target": _scored,
    # The DP table the distance kernel fills, after levenshtein_distance
    # stripped the common prefix and suffix.
    "similarity._kernel": _cells,
    # Whole-text passes: each of these walks its full text argument once.
    "regions.line_starts": _len0,
    "regions.normalize_newlines": _len0,
    "regions.to_abs_interval": _len0,
    "regions.range_of_interval": _len0,
}


def codemapper_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "codemapper" or name.startswith("codemapper.")
    ]


def function_bindings() -> dict:
    """Every (owner, attribute) -> value holding a function in codemapper
    modules or in the GitGateway class; used to prove restoration."""
    from codemapper import gitio

    owners = codemapper_modules() + [gitio.GitGateway]
    return {
        (owner.__name__, attr): value
        for owner in owners
        for attr, value in vars(owner).items()
        if inspect.isfunction(value) or attr == "subprocess"
    }


class Tracer:
    """Records spans into memory and owns the bindings it replaced."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    try:
                        span[COUNT] = counter(args, kwargs, result)
                    except (TypeError, IndexError, AttributeError):
                        pass  # signature changed: the count reads as missing
                return result
            finally:
                self.close(span)

        return traced

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        from codemapper import gitio, similarity

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"codemapper.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}", layer)
        # levenshtein_distance looks its kernel up as a module global per call.
        kernel = similarity._kernel
        self._bind(similarity, "_kernel", self._wrap(kernel, "similarity._kernel", "similarity"))
        for attr, value in list(vars(gitio.GitGateway).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                self._bind(gitio.GitGateway, attr, self._wrap(value, f"gitio.{attr}", "gitio"))
        for module in codemapper_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bind(module, attr, wrappers[value])
        self._bind(gitio, "subprocess", _SubprocessProxy(self, gitio.subprocess))

    def _bind(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _SubprocessProxy:
    """Stands in for the `subprocess` module inside codemapper.gitio."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def run(self, args, *rest, **kwargs):
        span = self._tracer.open(f"git {args[1] if len(args) > 1 else ''}", WAIT)
        try:
            proc = self._real.run(args, *rest, **kwargs)
        finally:
            self._tracer.close(span)
        span[COUNT] = len(proc.stdout or b"") if len(args) > 1 and args[1] == "diff" else 0
        return proc


def _enclosing(spans, index: int, layers) -> str | None:
    """Layer of the nearest ancestor whose layer is in `layers`."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][LAYER] in layers:
            return spans[parent][LAYER]
        parent = spans[parent][PARENT]
    return None


def layer_metrics(spans, ops: int) -> dict:
    """Per-op layer figures from finished spans.

    Self time is a span's duration minus the durations of its direct
    children. Every figure is a total over the traced phase divided by
    `ops`; the dedup ratio is kept/produced over the whole phase.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    self_ms = dict.fromkeys(LAYERS + (WAIT,), 0.0)
    counts = dict.fromkeys(
        (
            "gitio.procs", "gitio.blob_reads", "gitio.diff_bytes", "diffparse.hunks",
            "candidates.produced", "candidates.kept", "search.hits", "regions.calls",
            "regions.bytes_scanned", "selector.scored", "similarity.calls",
            "similarity.dp_cells", "movement.produced", "evaluation.blob_reads",
        ),
        0,
    )
    op_ms = covered_ms = 0.0
    for i, span in enumerate(spans):
        name, layer, count = span[NAME], span[LAYER], span[COUNT]
        own = (span[END] - span[START] - children[i]) * 1000
        if layer == ROOT:
            op_ms += (span[END] - span[START]) * 1000
            covered_ms += children[i] * 1000
            continue
        self_ms[layer] += own
        parent_layer = spans[span[PARENT]][LAYER] if span[PARENT] >= 0 else None
        if layer == WAIT:
            counts["gitio.procs"] += 1
            counts["gitio.diff_bytes"] += count or 0
        elif name == "gitio.file_content":
            counts["gitio.blob_reads"] += 1
            if _enclosing(spans, i, ("pipeline", "evaluation")) == "evaluation":
                counts["evaluation.blob_reads"] += 1
        elif name.startswith("diffparse.parse_"):
            counts["diffparse.hunks"] += count or 0
        elif name == "candidates.dedup_candidates" and parent_layer == "pipeline" and count:
            counts["candidates.produced"] += count[0]
            counts["candidates.kept"] += count[1]
        elif name == "movement.detect_movements":
            counts["movement.produced"] += count or 0
        elif name == "search.search_text":
            counts["search.hits"] += count or 0
        elif name == "selector.select_target":
            counts["selector.scored"] += count or 0
        elif name == "similarity._kernel":
            counts["similarity.dp_cells"] += count or 0
        if layer == "regions":
            counts["regions.bytes_scanned"] += count or 0
        if layer in ("regions", "similarity") and parent_layer != layer:
            counts[f"{layer}.calls"] += 1

    per_op = max(ops, 1)
    out = {f"{layer}.self_ms": self_ms[layer] / per_op for layer in LAYERS}
    out["gitio.wait_ms"] = self_ms[WAIT] / per_op
    for key, value in counts.items():
        if key != "candidates.kept":
            out[key] = value / per_op
    produced = counts["candidates.produced"]
    out["candidates.dedup_kept_ratio"] = counts["candidates.kept"] / produced if produced else 1.0
    out["candidates.dedup_base"] = produced
    out["trace.op_ms"] = op_ms / per_op
    out["trace.self_coverage"] = covered_ms / op_ms if op_ms else 0.0
    return out
