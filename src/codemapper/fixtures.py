"""Bundled fixture corpus: small scripted git repositories covering the
mapping scenarios the tool is designed for (token refinement, text search,
vertical movement, deletions, offsets, renames), plus a JSONL dataset and a
manifest of expected outcomes. Every scenario is one entry of `SCENARIOS`.
`RepoBuilder` builds each scenario's repository, and every test repository.

Build it anywhere with:  python3 -m codemapper.fixtures DEST
then evaluate with:      codemapper eval --dataset DEST/dataset.jsonl
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from codemapper.evaluation import EvalRecord, dump_dataset
from codemapper.gitio import _diff_env, run_git
from codemapper.regions import (
    DELETED,
    AbsInterval,
    CharacterRange,
    DeletedRegion,
    Region,
    line_text,
    range_of_interval,
)

# Every fixture commit carries this date, so two builds give the same hashes.
_DATE = "2024-01-01T00:00:00+00:00"


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
    record: EvalRecord
    outcome: str  # expected outcome kind on a full-config run


# One side of a case: (version index, file, where). `where` is a needle, a
# (needle, occurrence) pair or a (first, last) line pair; a side with no file
# is the deleted region.
Side = tuple[int, str | None, str | tuple[str, int] | tuple[int, int] | None]


class Row(NamedTuple):
    name: str
    tags: tuple[str, ...]
    outcome: str  # expected outcome kind on a full-config run
    source: Side
    target: Side


class Scenario(NamedTuple):
    repo: str
    versions: list[dict[str, str | None]]  # files written (None: removed) per commit
    rows: list[Row]


def _git(cwd, *args, **env) -> str:
    # The caller's config (commit.gpgsign, hooks) must not change what gets
    # built; the repository's own user.name and user.email still apply.
    return run_git(args, cwd, env={**_diff_env(), **env}).decode()


class RepoBuilder:
    """Builds a new git repository at `path`, commit by commit. Every commit
    carries `_DATE` and runs through `_git`, so the caller's git config and
    dates do not change the hashes. A path that already exists is an error,
    so nothing is ever committed on top of an old repository."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True)
        _git(self.path, "init", "-q", "-b", "main")
        _git(self.path, "config", "user.email", "fixtures@example.com")
        _git(self.path, "config", "user.name", "Fixture Builder")
        self.commits: list[str] = []

    def commit(self, files: dict[str, str | bytes | None], message: str = "change") -> str:
        """Write each file's text or bytes, remove each file given None,
        commit everything and return the commit's hash."""
        for name, content in files.items():
            path = self.path / name
            if content is None:
                path.unlink()
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        _git(self.path, "add", "-A")
        _git(
            self.path, "commit", "-q", "-m", message, "--allow-empty",
            GIT_AUTHOR_DATE=_DATE, GIT_COMMITTER_DATE=_DATE,
        )
        self.commits.append(_git(self.path, "rev-parse", "HEAD").strip())
        return self.commits[-1]


def _region(scenario: Scenario, shas: list[str], side: Side) -> Region | DeletedRegion:
    version, file, where = side
    if file is None:
        return DELETED
    # The file as it stands at `version`: the latest version that wrote it.
    text = next(v[file] for v in reversed(scenario.versions[: version + 1]) if file in v)
    if isinstance(where, str):
        where = (where, 1)
    span = span_of(text, *where) if isinstance(where[0], str) else line_span(text, *where)
    return Region(shas[version], file, span)


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

SCENARIOS = (
    Scenario("move_modify", [{"tracker.py": MOVE_MODIFY_V1}, {"tracker.py": MOVE_MODIFY_V2}], [
        Row("moved_function", ("python", "move"), "exact",
            (0, "tracker.py", (6, 9)), (1, "tracker.py", (14, 17))),
        Row("attribute_in_modified_line", ("python", "change"), "exact",
            (0, "tracker.py", ("self.y", 2)), (1, "tracker.py", ("self.y", 2))),
    ]),
    Scenario("refine", [{"update.js": REFINE_V1}, {"update.js": REFINE_V2}], [
        Row("token_refined", ("javascript", "change", "forward"), "exact",
            (0, "update.js", "old"), (1, "update.js", "updated")),
        Row("token_refined_backward", ("javascript", "change", "backward"), "exact",
            (1, "update.js", "updated"), (0, "update.js", "old")),
    ]),
    Scenario("search", [{"build.py": SEARCH_V1}, {"build.py": SEARCH_V2}], [
        Row("token_found_by_search", ("python", "change"), "exact",
            (0, "build.py", "self.y"), (1, "build.py", "self.y")),
    ]),
    Scenario("swap", [{"boot.go": SWAP_V1}, {"boot.go": SWAP_V2}], [
        Row("swapped_lines", ("go", "move"), "exact",
            (0, "boot.go", (10, 10)), (1, "boot.go", (3, 3))),
    ]),
    Scenario("delete", [{"app.py": DELETE_V1}, {"app.py": DELETE_V2}], [
        Row("suppression_deleted", ("python", "delete"), "correct_deletion",
            (0, "app.py", "# pylint: disable=broad-except"), (1, None, None)),
    ]),
    Scenario("multi", [{"metrics.go": MULTI_V1}, {"metrics.go": MULTI_V2}], [
        Row("block_with_inner_change", ("go", "change"), "exact",
            (0, "metrics.go", (4, 6)), (1, "metrics.go", (4, 6))),
    ]),
    Scenario("offset", [{"billing.py": OFFSET_V1}, {"billing.py": OFFSET_V2}], [
        Row("shifted_and_changed", ("python", "change"), "exact",
            (0, "billing.py", "rate_old"), (1, "billing.py", "rate_new")),
    ]),
    Scenario("rename", [
        {"utils.py": RENAME_V1},
        {"utils.py": None, "helpers.py": RENAME_V1},
        {"helpers.py": RENAME_V3},
    ], [
        Row("renamed_file_edit", ("python", "rename"), "exact",
            (0, "utils.py", "normalize_v1"), (2, "helpers.py", "normalize_v2")),
    ]),
    Scenario("config", [{"service.yaml": CONFIG_V1}, {"service.yaml": CONFIG_V2}], [
        Row("config_value_changed", ("yaml", "change"), "exact",
            (0, "service.yaml", "30"), (1, "service.yaml", "45")),
    ]),
    Scenario("block_delete", [{"Cache.java": BLOCK_V1}, {"Cache.java": BLOCK_V2}], [
        Row("counter_block_deleted", ("java", "delete"), "correct_deletion",
            (0, "Cache.java", (6, 7)), (1, None, None)),
    ]),
)


def build_corpus(dest) -> list[FixtureCase]:
    """Build every fixture repo under `dest` and write dataset + manifest."""
    root = Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    cases: list[FixtureCase] = []
    for scenario in SCENARIOS:
        builder = RepoBuilder(root / "repos" / scenario.repo)
        shas = [builder.commit(files, f"version {i + 1}") for i, files in enumerate(scenario.versions)]
        for row in scenario.rows:
            record = EvalRecord(
                f"repos/{scenario.repo}",
                _region(scenario, shas, row.source),
                shas[row.target[0]],
                _region(scenario, shas, row.target),
                tags=row.tags,
                name=row.name,
            )
            cases.append(FixtureCase(record, row.outcome))
    dump_dataset([case.record for case in cases], root / "dataset.jsonl")
    manifest = [
        {"name": case.record.name, "repo": case.record.repo, "outcome": case.outcome}
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
