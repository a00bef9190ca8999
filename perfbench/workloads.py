"""Seeded workload generators with exact ground truth.

A generated file is a list of lines. Every line keeps a lineage id across
commits and is a tuple of pieces ``(text, token_id, kind)``; identifier
tokens carry a token id that survives renames. Ground truth for a token is
therefore the position of the same token id in the target commit, composed
across every commit in between, without consulting git.

History is written with one ``git fast-import`` process, with a fixed
author, committer and date per commit, so SHAs and diffs depend only on the
seed. Nothing here imports codemapper.
"""

import hashlib
import math
import os
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

# Pinned for generation and for the measured run: git config, locale and
# dates must not depend on the caller.
PINNED_ENV = {
    "GIT_CONFIG_NOSYSTEM": "1",
    "GIT_CONFIG_GLOBAL": os.devnull,
    "LC_ALL": "C.UTF-8",
    "LANG": "C.UTF-8",
    "TZ": "UTC",
    "GIT_AUTHOR_NAME": "Bench",
    "GIT_AUTHOR_EMAIL": "bench@example.com",
    "GIT_COMMITTER_NAME": "Bench",
    "GIT_COMMITTER_EMAIL": "bench@example.com",
    "GIT_AUTHOR_DATE": "1700000000 +0000",
    "GIT_COMMITTER_DATE": "1700000000 +0000",
    "GIT_TERMINAL_PROMPT": "0",
    # Tier-1 runs the pure-Python path; measure that one.
    "CODEMAPPER_PURE_PYTHON": "1",
}

EPOCH = 1_700_000_000
MAX_DISTANCE = 14  # commits between an op's source and target

WORDS = (
    "count total index value buffer offset limit cache node entry item state "
    "flag depth width height score weight label name path mode size rate "
    "delta step token sum acc ptr queue stack frame block chunk slot page "
    "cursor record field column window batch"
).split()

# token_flood: three tokens on 1/6, 2/6 and 3/6 of the flood lines. Their
# ops alternate, so op cost spreads over a range instead of one value, and
# the median of a run moves smoothly when the machine's speed does.
FLOOD = "flood"
FLOOD_TOKENS = ("zq_alpha", "zq_beta", "zq_gamma")
ANCHOR_TOKEN = "qz_anchor"
ANCHOR_RENAMED = "qz_pivot"


def pinned_env(workdir: Path) -> dict:
    """The caller's environment without its git/codemapper settings, plus
    PINNED_ENV. Temporary files go to `workdir`/tmp (which the caller
    makes), and git never searches above `workdir` for a repository."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GIT_", "CODEMAPPER_"))}
    env.update(PINNED_ENV)
    env["TMPDIR"] = str(workdir / "tmp")
    env["GIT_CEILING_DIRECTORIES"] = str(workdir)
    return env


def blob_sha(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


@dataclass(frozen=True)
class Spec:
    """Sizes of one generated map workload."""

    lines: int
    commits: int
    renames: int
    inserts: int
    deletes: int
    special: str | None  # FLOOD / ANCHOR_TOKEN lines, or None
    special_count: int
    context_lines: int
    rename_file_at: int | None  # commit index that moves the file
    ops: int
    short_names: bool = False  # 3-letter stems: shorter lines, smaller DPs
    # Every `trap_every`-th op maps a token that one commit renames while
    # inserting a new line directly above it (see `rename_below_insert`).
    trap_every: int | None = None


SPECS = {
    "bigfile_edit": Spec(10_000, 60, 8, 5, 5, None, 0, 15, 30, 2000, trap_every=20),
    "token_flood": Spec(1_200, 8, 4, 3, 3, FLOOD, 600, 0, None, 2000),
    "context_scoring": Spec(1_500, 8, 4, 3, 3, ANCHOR_TOKEN, 8, 15, None, 2000, True),
}


class _Lines:
    """Mutable file under edit; hands out lineage and token ids."""

    def __init__(self, rng: random.Random, short_names: bool):
        self.rng = rng
        self.short_names = short_names
        self.next_lid = 0
        self.next_tid = 0
        self.lines: list[tuple] = []

    def _ident(self, lid: int, slot: str) -> tuple:
        # Fixed-width lineage suffix: no identifier is a substring of another.
        self.next_tid += 1
        word = self.rng.choice(WORDS)
        return (f"{word[:3] if self.short_names else word}_{lid:05d}{slot}", self.next_tid, "id")

    def _special(self, text: str, kind: str) -> tuple:
        self.next_tid += 1
        return (text, self.next_tid, kind)

    def new_line(self, special: str | None = None) -> tuple:
        rng = self.rng
        lid = self.next_lid
        self.next_lid += 1
        a, b, c = (self._ident(lid, s) for s in "abc")
        n = (str(rng.randrange(1000)), None, None)
        if special in FLOOD_TOKENS:
            body = [("    ", None, None), a, (" = lookup(", None, None),
                    self._special(special, FLOOD), (", ", None, None), b, (")", None, None)]
        elif special == ANCHOR_TOKEN:
            body = [("  ", None, None), a, (" = ", None, None),
                    self._special(ANCHOR_TOKEN, "anchor"), ("(", None, None), b, (")", None, None)]
        elif self.short_names:
            roll = rng.random()
            if roll < 0.08:
                body = []
            elif roll < 0.30:
                body = [("def ", None, None), a, ("(", None, None), b, ("):", None, None)]
            elif roll < 0.55:
                body = [("  return ", None, None), a]
            elif roll < 0.80:
                body = [("  ", None, None), a, (" += ", None, None), n]
            else:
                body = [("  ", None, None), a, (" = ", None, None), b]
        else:
            roll = rng.random()
            if roll < 0.08:
                body = []
            elif roll < 0.16:
                words = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(2, 6)))
                body = [(f"    # {words}", None, None)]
            elif roll < 0.30:
                body = [("def ", None, None), a, ("(", None, None), b, (", ", None, None), c, ("):", None, None)]
            elif roll < 0.45:
                body = [("    if ", None, None), a, (" > ", None, None), n, (":", None, None)]
            elif roll < 0.60:
                body = [("        return ", None, None), a, (" + ", None, None), b]
            elif roll < 0.75:
                body = [("    ", None, None), a, (" += ", None, None), b, (" * ", None, None), n]
            else:
                body = [("    ", None, None), a, (" = ", None, None), b, ("(", None, None), c, (", ", None, None), n, (")", None, None)]
        return (lid, tuple(body))

    def populate(self, count: int, special: str | None, special_count: int):
        picked = self.rng.sample(range(count), special_count) if special else []
        if special == FLOOD:
            # 1/6, 2/6 and 3/6 of the picked lines, in pick order.
            texts = {i: FLOOD_TOKENS[(6 * k >= special_count) + (2 * k >= special_count)]
                     for k, i in enumerate(picked)}
        else:
            texts = dict.fromkeys(picked, special)
        self.lines = [self.new_line(texts.get(i)) for i in range(count)]

    def rename(self, kind: str = "id", new_text: str | None = None) -> tuple[int, int]:
        """Rename one token of `kind` on a random line; returns the line's
        index and the token id."""
        for _ in range(1000):
            i = self.rng.randrange(len(self.lines))
            lid, pieces = self.lines[i]
            slots = [k for k, p in enumerate(pieces) if p[2] == kind]
            if not slots:
                continue
            k = self.rng.choice(slots)
            text, tid, _ = pieces[k]
            if new_text is None:
                word, suffix = text.split("_", 1)
                stems = {w[:3] if self.short_names else w for w in WORDS} - {word}
                renamed = f"{self.rng.choice(sorted(stems))}_{suffix}"
            else:
                renamed = new_text
            self.lines[i] = (lid, pieces[:k] + ((renamed, tid, kind),) + pieces[k + 1 :])
            return i, tid
        raise RuntimeError(f"no line holds a token of kind {kind!r}")

    def rename_below_insert(self, kind: str = "id", new_text: str | None = None) -> tuple[int, int]:
        """Rename a token of `kind` and insert one new statement line
        directly above its line: the line diff then shows one hunk of one
        line becoming two. Returns the renamed line's lineage id and the
        token id.

        Not an empty or `def` line: below one of those codemapper maps the
        token right, and the share of wrong answers would vary by seed.
        """
        i, tid = self.rename(kind, new_text)
        while not (line := self.new_line())[1] or line[1][0][0] == "def ":
            pass
        self.lines[i:i] = [line]
        return self.lines[i + 1][0], tid

    def insert(self) -> None:
        at = self.rng.randrange(len(self.lines) + 1)
        block = [self.new_line() for _ in range(self.rng.randint(1, 4))]
        self.lines[at:at] = block

    def delete(self) -> None:
        for _ in range(100):
            at = self.rng.randrange(len(self.lines))
            size = self.rng.randint(1, 3)
            block = self.lines[at : at + size]
            if any(p[2] in (FLOOD, "anchor") for _, pieces in block for p in pieces):
                continue
            del self.lines[at : at + size]
            return


def render(lines) -> str:
    return "".join("".join(p[0] for p in pieces) + "\n" for _, pieces in lines)


def _token_range(line_no: int, pieces, tid: int) -> tuple[list[int], str]:
    col = 1
    for text, t, _ in pieces:
        if t == tid:
            return [line_no, col, line_no, col + len(text) - 1], text
        col += len(text)
    raise KeyError(tid)


def _fast_import(repo: Path, paths: list[str], texts: list[str], env: dict) -> list[str]:
    """Write one commit per text with `git fast-import`; returns the SHAs."""
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], env=env, check=True,
                   capture_output=True)
    out = bytearray()
    for k, (path, text) in enumerate(zip(paths, texts), 1):
        when = f"{EPOCH + 60 * k} +0000"
        msg = f"edit {k}\n".encode()
        data = text.encode("utf-8")
        out += (f"commit refs/heads/main\nmark :{k}\n"
                f"author Bench <bench@example.com> {when}\n"
                f"committer Bench <bench@example.com> {when}\n").encode()
        out += b"data %d\n%s" % (len(msg), msg)
        if k > 1:
            out += f"from :{k - 1}\n".encode()
            if paths[k - 2] != path:
                out += f"D {paths[k - 2]}\n".encode()
        out += f"M 100644 inline {path}\n".encode() + b"data %d\n%s\n" % (len(data), data)
    marks = repo / ".git" / "bench-marks"
    subprocess.run(["git", "fast-import", "--quiet", f"--export-marks={marks}"],
                   cwd=repo, env=env, input=bytes(out), check=True, capture_output=True)
    by_mark = dict(line.split() for line in marks.read_text().splitlines())
    return [by_mark[f":{k}"] for k in range(1, len(texts) + 1)]


def distance(k: int, longest: int) -> int:
    """Commit distance of op k: the same sequence for every seed, so runs
    of any length see a balanced mix of short and long diffs. A stride of
    about longest/phi (coprime with it) spreads every prefix evenly."""
    if k == 0:
        return 1
    stride = round(longest / 1.618)
    while math.gcd(stride, longest) != 1:
        stride += 1
    return 1 + (k * stride) % longest


def commit_pair(k: int, spec: Spec, rng: random.Random) -> tuple[int, int]:
    """Source and target commit of op k.

    Distances stay within MAX_DISTANCE, which bounds how much op cost can
    vary with them. Mapping across the file move costs git extra processes
    and a rename search, so the share of ops that cross it is fixed (every
    fourth op) rather than left to the seed: op cost then has the same mix
    for every seed, and the median does not sit between the two modes.
    """
    d = distance(k, min(spec.commits - 1, MAX_DISTANCE))
    moved = spec.rename_file_at
    if moved is None:
        i = rng.randrange(spec.commits - d)
    elif k % 4 == 0:
        i = rng.randrange(moved - d, moved)
    else:
        i = rng.choice([*range(moved - d), *range(moved, spec.commits - d)])
    return i, i + d


def trap_pair(k: int, spec: Spec, traps: list, rng: random.Random) -> tuple:
    """Source and target commit, lineage id and token id of trap op k: the
    source is the commit before a rename_below_insert edit, and the target
    lies the scheduled distance after it, on the same side of the file move.
    """
    d = distance(k, min(spec.commits - 1, MAX_DISTANCE))
    moved = spec.rename_file_at
    fits = [
        (t - 1, t - 1 + d, lid, tid)
        for t, lid, tid in traps
        if t - 1 + d < spec.commits and (moved is None or not t - 1 < moved <= t - 1 + d)
    ]
    return rng.choice(fits)


def rename_pair(k: int, spec: Spec, crossing: bool, rng: random.Random) -> tuple[int, int]:
    """Source and target commit of op k on the anchor renamed below an
    inserted line at commit `spec.commits // 2`: across that commit, or on
    one side of it."""
    at = spec.commits // 2
    d = distance(k, min(spec.commits - 1, MAX_DISTANCE))
    if crossing:
        i = rng.randrange(max(0, at - d), min(at, spec.commits - d))
    else:
        d = min(d, at - 1)  # longer spans cannot stay on one side
        i = rng.choice([*range(at - d), *range(at, spec.commits - d)])
    return i, i + d


def generate_map_workload(name: str, seed: int, dest: Path, env: dict) -> dict:
    """Build the repository for `name` under `dest`; returns the spec dict
    the worker reads (ops with ground truth, texts on disk, properties)."""
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    doc = _Lines(rng, spec.short_names)
    doc.populate(spec.lines, spec.special, spec.special_count)
    path = "pkg/engine.py"
    history, paths = [list(doc.lines)], [path]
    traps = []  # (commit, lineage id, token id) of each rename_below_insert
    for k in range(1, spec.commits):
        for _ in range(spec.renames):
            doc.rename()
        for _ in range(spec.inserts):
            doc.insert()
        for _ in range(spec.deletes):
            doc.delete()
        if spec.trap_every:
            traps.append((k, *doc.rename_below_insert()))
        if spec.special == ANCHOR_TOKEN and k == spec.commits // 2:
            # The same edit on one anchor; rename_pair picks which ops cross it.
            renamed_lid, _ = doc.rename_below_insert("anchor", ANCHOR_RENAMED)
        if k == spec.rename_file_at:
            path = "pkg/core/engine.py"
        history.append(list(doc.lines))
        paths.append(path)

    texts = [render(lines) for lines in history]
    repo = dest / "repo"
    shas = _fast_import(repo, paths, texts, env)
    text_dir = dest / "texts"
    text_dir.mkdir()
    blobs = []
    for k, text in enumerate(texts):
        (text_dir / f"{k}.txt").write_text(text, encoding="utf-8")
        blobs.append(blob_sha(text.encode("utf-8")))

    kind = {None: "id", FLOOD: FLOOD, ANCHOR_TOKEN: "anchor"}[spec.special]
    index = [{lid: n for n, (lid, _) in enumerate(lines)} for lines in history]
    # Lines that hold a token of `kind`, grouped by flood token text.
    eligible = []
    for lines in history:
        groups: dict[str, list[int]] = {}
        for n, (_, pieces) in enumerate(lines):
            text = next((p[0] for p in pieces if p[2] == kind), None)
            if text is not None:
                groups.setdefault(text if kind == FLOOD else kind, []).append(n)
        eligible.append(groups)
    if kind == "anchor":
        # Lineage ids in file order, rotated so the renamed anchor comes first.
        anchors = [history[0][n][0] for n in eligible[0][kind]]
        first = anchors.index(renamed_lid)
        anchors = anchors[first:] + anchors[:first]
    ops = []
    while len(ops) < spec.ops + 1:  # op 0 is the untimed warm-up
        trap = spec.trap_every and len(ops) % spec.trap_every == spec.trap_every // 2
        tid = None
        if trap:
            i, j, lid, tid = trap_pair(len(ops), spec, traps, rng)
            if lid not in index[i]:
                continue
            n = index[i][lid]
        else:
            i, j = commit_pair(len(ops), spec, rng)
            if kind == "anchor":
                # Anchors in turn: every run maps the renamed one equally often.
                slot = len(ops) % len(anchors)
                if slot == 0:
                    # Only op 8 crosses the rename. Every run does it (at
                    # least worker.DIGEST_OPS ops), so every run meets the
                    # known defect exactly once, whatever the seed and length.
                    trap = len(ops) == len(anchors)
                    i, j = rename_pair(len(ops), spec, trap, rng)
                n = index[i][anchors[slot]]
            elif kind == FLOOD:
                n = rng.choice(eligible[i][FLOOD_TOKENS[len(ops) % len(FLOOD_TOKENS)]])
            else:
                n = rng.choice(eligible[i][kind])
        lid, pieces = history[i][n]
        if lid not in index[j]:
            continue
        if tid is None:
            tid = rng.choice([p[1] for p in pieces if p[2] == kind])
        src_range, src_text = _token_range(n + 1, pieces, tid)
        m = index[j][lid]
        exp_range, exp_text = _token_range(m + 1, history[j][m][1], tid)
        ops.append({
            "id": len(ops),
            "source": {"commit": shas[i], "file": paths[i], "range": src_range},
            "target_commit": shas[j],
            "expected": {"file": paths[j], "range": exp_range},
            "source_text": src_text,
            "expected_text": exp_text,
            "source_index": i,
            "target_index": j,
            "pair": [blobs[i], blobs[j]],
            "trap": bool(trap),
        })
    return {
        "workload": name,
        "kind": "map",
        "repo": str(repo),
        "texts": str(text_dir),
        "context_lines": spec.context_lines,
        "ops": ops,
        "properties": {
            "file_lines": [t.count("\n") for t in texts],
            "file_bytes": [len(t.encode("utf-8")) for t in texts],
            "commits": spec.commits,
        },
    }

