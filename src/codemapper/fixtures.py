"""Bundled fixture corpus: small scripted git repositories covering the
mapping scenarios the tool is designed for (token refinement, text search,
vertical movement, deletions, offsets, renames), plus a JSONL dataset and a
manifest of expected outcomes.

Build it anywhere with:  python3 -m codemapper.fixtures DEST
then evaluate with:      codemapper eval --dataset DEST/dataset.jsonl
"""

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from codemapper.evaluation import EvalRecord, dump_dataset
from codemapper.gitio import _diff_env
from codemapper.regions import (
    DELETED,
    AbsInterval,
    CharacterRange,
    Region,
    line_text,
    range_of_interval,
)


def span_of(text: str, needle: str, occurrence: int = 1) -> CharacterRange:
    """Range of the nth exact occurrence of `needle` in `text`."""
    pos = -1
    for _ in range(occurrence):
        pos = text.find(needle, pos + 1)
        if pos == -1:
            raise ValueError(f"needle {needle!r} (occurrence {occurrence}) not found")
    return range_of_interval(text, AbsInterval(pos, pos + len(needle)))


def line_span(text: str, first: int, last: int) -> CharacterRange:
    return CharacterRange(first, 1, last, len(line_text(text, last)))


@dataclass(frozen=True)
class FixtureCase:
    name: str
    record: EvalRecord
    outcome: str  # expected outcome kind on a full-config run


def _git(cwd, *args):
    # The caller's config (commit.gpgsign, hooks) must not change what gets
    # built; the repository's own user.name and user.email still apply.
    proc = subprocess.run(
        ["git", *args], cwd=cwd, env=_diff_env(), capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr}")
    return proc.stdout


def _build_repo(root: Path, name: str, versions: list[dict[str, str | None]]) -> list[str]:
    repo = root / "repos" / name
    repo.mkdir(parents=True)
    _git(repo, "init", "-q", "-b", "main")
    _git(repo, "config", "user.email", "fixtures@example.com")
    _git(repo, "config", "user.name", "Fixture Builder")
    shas = []
    for i, files in enumerate(versions):
        for rel, content in files.items():
            path = repo / rel
            if content is None:
                path.unlink()
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content, encoding="utf-8")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", f"version {i + 1}")
        shas.append(_git(repo, "rev-parse", "HEAD").strip())
    return shas


def _text(lines) -> str:
    return "".join(line + "\n" for line in lines)


# -- scenario: a function moved verbatim while another method is edited -------

MOVE_MODIFY_V1 = _text(
    [
        "class Tracker:",
        "    def __init__(self):",
        "        self.x = 0",
        "        self.y = 0",
        "",
        "    def print_stats(self, s):",
        '        header = "stats"',
        "        print(header)",
        "        print(s)",
        "",
        "    def compute(self):",
        "        total = self.x + 1",
        "        return self.y * 2",
        "",
        "    def reset(self):",
        "        self.x = 0",
        "        self.y = 0",
    ]
)

MOVE_MODIFY_V2 = _text(
    [
        "class Tracker:",
        "    def __init__(self):",
        "        self.x = 0",
        "        self.y = 0",
        "",
        "    def compute(self):",
        "        total = self.x + 1",
        "        return self.y * scale",
        "",
        "    def reset(self):",
        "        self.x = 0",
        "        self.y = 0",
        "",
        "    def print_stats(self, s):",
        '        header = "stats"',
        "        print(header)",
        "        print(s)",
    ]
)


def _case_move_modify(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root,
        "move_modify",
        [{"tracker.py": MOVE_MODIFY_V1}, {"tracker.py": MOVE_MODIFY_V2}],
    )
    repo = "repos/move_modify"
    function_region = Region(old, "tracker.py", line_span(MOVE_MODIFY_V1, 6, 9))
    function_expected = Region(new, "tracker.py", line_span(MOVE_MODIFY_V2, 14, 17))
    attribute_region = Region(old, "tracker.py", span_of(MOVE_MODIFY_V1, "self.y", 2))
    attribute_expected = Region(new, "tracker.py", span_of(MOVE_MODIFY_V2, "self.y", 2))
    return [
        FixtureCase(
            "moved_function",
            EvalRecord(
                repo, function_region, new, function_expected,
                tags=("python", "move"), name="moved_function",
            ),
            "exact",
        ),
        FixtureCase(
            "attribute_in_modified_line",
            EvalRecord(
                repo, attribute_region, new, attribute_expected,
                tags=("python", "change"), name="attribute_in_modified_line",
            ),
            "exact",
        ),
    ]


# -- scenario: token replaced after a shared prefix (refinement) --------------

REFINE_V1 = _text(
    [
        "function update(values) {",
        "  const result = [];",
        "  x = values.old;",
        "  result.push(x);",
        "  return result;",
        "}",
    ]
)

REFINE_V2 = REFINE_V1.replace("values.old", "values.updated")


def _case_refine(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root, "refine", [{"update.js": REFINE_V1}, {"update.js": REFINE_V2}]
    )
    forward = EvalRecord(
        "repos/refine",
        Region(old, "update.js", span_of(REFINE_V1, "old")),
        new,
        Region(new, "update.js", span_of(REFINE_V2, "updated")),
        tags=("javascript", "change", "forward"),
        name="token_refined",
    )
    backward = EvalRecord(
        "repos/refine",
        Region(new, "update.js", span_of(REFINE_V2, "updated")),
        old,
        Region(old, "update.js", span_of(REFINE_V1, "old")),
        tags=("javascript", "change", "backward"),
        name="token_refined_backward",
    )
    return [
        FixtureCase("token_refined", forward, "exact"),
        FixtureCase("token_refined_backward", backward, "exact"),
    ]


# -- scenario: unchanged token inside a reordered line (text search) ----------

SEARCH_V1 = _text(
    [
        "def build(alpha, beta, gamma):",
        "    table = init_table()",
        "    result = combine(alpha, beta, gamma, self.y)",
        "    table.store(result)",
        "    return table",
    ]
)

SEARCH_V2 = SEARCH_V1.replace(
    "result = combine(alpha, beta, gamma, self.y)",
    "result = self.y.combine(alpha, beta, gamma)",
)


def _case_search(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root, "search", [{"build.py": SEARCH_V1}, {"build.py": SEARCH_V2}]
    )
    record = EvalRecord(
        "repos/search",
        Region(old, "build.py", span_of(SEARCH_V1, "self.y")),
        new,
        Region(new, "build.py", span_of(SEARCH_V2, "self.y")),
        tags=("python", "change"),
        name="token_found_by_search",
    )
    return [FixtureCase("token_found_by_search", record, "exact")]


# -- scenario: two distant lines swapped (vertical movement) ------------------
# The swapped lines are far enough apart that every diff algorithm keeps the
# lines between them and reports both as deleted plus re-added; only movement
# detection recovers the relocation.

SWAP_V1 = _text(
    [
        "// bootstrap sequence",
        "func boot() {",
        "    load_config()",
        "    init_logging()",
        "    mount_disks()",
        "    check_network()",
        "    sync_clock()",
        "    announce()",
        "    warm_cache()",
        "    start_service(10)",
        "    finish()",
        "}",
    ]
)

SWAP_V2 = _text(
    [
        "// bootstrap sequence",
        "func boot() {",
        "    start_service(10)",
        "    init_logging()",
        "    mount_disks()",
        "    check_network()",
        "    sync_clock()",
        "    announce()",
        "    warm_cache()",
        "    load_config()",
        "    finish()",
        "}",
    ]
)


def _case_swap(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(root, "swap", [{"boot.go": SWAP_V1}, {"boot.go": SWAP_V2}])
    record = EvalRecord(
        "repos/swap",
        Region(old, "boot.go", line_span(SWAP_V1, 10, 10)),
        new,
        Region(new, "boot.go", line_span(SWAP_V2, 3, 3)),
        tags=("go", "move"),
        name="swapped_lines",
    )
    return [FixtureCase("swapped_lines", record, "exact")]


# -- scenario: a suppression comment is deleted --------------------------------

DELETE_V1 = _text(
    [
        "import os",
        "import sys",
        "",
        "def main():",
        "    cfg = load_config()",
        "    result = run(cfg)",
        "    # pylint: disable=broad-except",
        "    cleanup()",
        "    return result",
        "",
        "main()",
    ]
)

DELETE_V2 = _text(
    [
        "import os",
        "import sys, json",
        "",
        "def main():",
        "    cfg = load_config()",
        "    result = run(cfg)",
        "    cleanup()",
        "    return result",
        "",
        "main()",
    ]
)


def _case_delete(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root, "delete", [{"app.py": DELETE_V1}, {"app.py": DELETE_V2}]
    )
    record = EvalRecord(
        "repos/delete",
        Region(old, "app.py", span_of(DELETE_V1, "# pylint: disable=broad-except")),
        new,
        DELETED,
        tags=("python", "delete"),
        name="suppression_deleted",
    )
    return [FixtureCase("suppression_deleted", record, "correct_deletion")]


# -- scenario: multi-line region with its interior line changed ---------------

MULTI_V1 = _text(
    [
        "package metrics",
        "",
        "func Collect() Stats {",
        "    alpha := sample(1)",
        "    beta := sample(2)",
        "    gamma := sample(3)",
        "    return merge(alpha, beta, gamma)",
        "}",
    ]
)

MULTI_V2 = MULTI_V1.replace("beta := sample(2)", "beta := sample(20)")


def _case_multi(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root, "multi", [{"metrics.go": MULTI_V1}, {"metrics.go": MULTI_V2}]
    )
    record = EvalRecord(
        "repos/multi",
        Region(old, "metrics.go", line_span(MULTI_V1, 4, 6)),
        new,
        Region(new, "metrics.go", line_span(MULTI_V2, 4, 6)),
        tags=("go", "change"),
        name="block_with_inner_change",
    )
    return [FixtureCase("block_with_inner_change", record, "exact")]


# -- scenario: insertion above plus a token change inside the region ----------

OFFSET_V1 = _text(
    [
        "# billing pipeline",
        "def calc(v):",
        "    return v * rate_old",
        "",
        "def report(v):",
        "    return str(v)",
    ]
)

OFFSET_V2 = _text(
    [
        "# billing pipeline",
        "# reviewed 2024-06",
        "# do not round here",
        "def calc(v):",
        "    return v * rate_new",
        "",
        "def report(v):",
        "    return str(v)",
    ]
)


def _case_offset(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root, "offset", [{"billing.py": OFFSET_V1}, {"billing.py": OFFSET_V2}]
    )
    record = EvalRecord(
        "repos/offset",
        Region(old, "billing.py", span_of(OFFSET_V1, "rate_old")),
        new,
        Region(new, "billing.py", span_of(OFFSET_V2, "rate_new")),
        tags=("python", "change"),
        name="shifted_and_changed",
    )
    return [FixtureCase("shifted_and_changed", record, "exact")]


# -- scenario: file renamed, then its content edited ---------------------------

RENAME_V1 = _text(
    [
        "def parse_flags(argv):",
        "    flags = {}",
        "    for item in argv:",
        '        key, value = item.split("=")',
        "        flags[key] = normalize_v1(value)",
        "    return flags",
    ]
)

RENAME_V3 = RENAME_V1.replace("normalize_v1", "normalize_v2")


def _case_rename(root: Path) -> list[FixtureCase]:
    shas = _build_repo(
        root,
        "rename",
        [
            {"utils.py": RENAME_V1},
            {"utils.py": None, "helpers.py": RENAME_V1},
            {"helpers.py": RENAME_V3},
        ],
    )
    record = EvalRecord(
        "repos/rename",
        Region(shas[0], "utils.py", span_of(RENAME_V1, "normalize_v1")),
        shas[2],
        Region(shas[2], "helpers.py", span_of(RENAME_V3, "normalize_v2")),
        tags=("python", "rename"),
        name="renamed_file_edit",
    )
    return [FixtureCase("renamed_file_edit", record, "exact")]


# -- scenario: configuration value replaced ------------------------------------

CONFIG_V1 = _text(
    [
        "service:",
        "  name: gateway",
        "  retries: 5",
        "  timeout: 30",
        "  log_level: info",
        "  buffers: 16",
    ]
)

CONFIG_V2 = CONFIG_V1.replace("timeout: 30", "timeout: 45")


def _case_config(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root, "config", [{"service.yaml": CONFIG_V1}, {"service.yaml": CONFIG_V2}]
    )
    record = EvalRecord(
        "repos/config",
        Region(old, "service.yaml", span_of(CONFIG_V1, "30")),
        new,
        Region(new, "service.yaml", span_of(CONFIG_V2, "45")),
        tags=("yaml", "change"),
        name="config_value_changed",
    )
    return [FixtureCase("config_value_changed", record, "exact")]


# -- scenario: a whole block deleted while another line changes ---------------

BLOCK_V1 = _text(
    [
        "public class Cache {",
        "    private int size = 64;",
        "",
        "    public void flush() {",
        "        entries.clear();",
        "        hits = 0;",
        "        misses = 0;",
        "    }",
        "",
        "    public int capacity() { return size; }",
        "}",
    ]
)

BLOCK_V2 = _text(
    [
        "public class Cache {",
        "    private int size = 128;",
        "",
        "    public void flush() {",
        "        entries.clear();",
        "    }",
        "",
        "    public int capacity() { return size; }",
        "}",
    ]
)


def _case_block_delete(root: Path) -> list[FixtureCase]:
    old, new = _build_repo(
        root, "block_delete", [{"Cache.java": BLOCK_V1}, {"Cache.java": BLOCK_V2}]
    )
    record = EvalRecord(
        "repos/block_delete",
        Region(old, "Cache.java", line_span(BLOCK_V1, 6, 7)),
        new,
        DELETED,
        tags=("java", "delete"),
        name="counter_block_deleted",
    )
    return [FixtureCase("counter_block_deleted", record, "correct_deletion")]


_BUILDERS = (
    _case_move_modify,
    _case_refine,
    _case_search,
    _case_swap,
    _case_delete,
    _case_multi,
    _case_offset,
    _case_rename,
    _case_config,
    _case_block_delete,
)


def build_corpus(dest) -> list[FixtureCase]:
    """Build every fixture repo under `dest` and write dataset + manifest."""
    root = Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    cases: list[FixtureCase] = []
    for builder in _BUILDERS:
        cases.extend(builder(root))
    dump_dataset([case.record for case in cases], root / "dataset.jsonl")
    manifest = [
        {"name": case.name, "repo": case.record.repo, "outcome": case.outcome}
        for case in cases
    ]
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return cases


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 -m codemapper.fixtures DEST", file=sys.stderr)
        return 64
    cases = build_corpus(argv[0])
    print(f"built {len(cases)} fixture cases under {argv[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
