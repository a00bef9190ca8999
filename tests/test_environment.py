"""No caller environment chooses the repository git reads or writes, or
changes an answer: every git process runs under one of the two environments
`gitio._git_env` builds."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import codemapper
from codemapper import gitio
from codemapper.evaluation import EvalRecord, evaluate, load_dataset
from codemapper.fixtures import RepoBuilder, build_corpus
from codemapper.gitio import _LOCAL_ENV_VARS, RepoError, run_git
from codemapper.pipeline import map_region
from codemapper.regions import DELETED, Region, make_range

SRC = str(Path(codemapper.__file__).parent.parent)
BASE = "".join(f"value_{i} = compute({i})\n" for i in range(1, 9))


def test_the_list_is_the_installed_gits(tmp_path):
    listed = run_git(["rev-parse", "--local-env-vars"], tmp_path).decode().split()
    assert len(set(_LOCAL_ENV_VARS)) == len(_LOCAL_ENV_VARS)
    missing, extra = set(listed) - set(_LOCAL_ENV_VARS), set(_LOCAL_ENV_VARS) - set(listed)
    assert not missing and not extra, f"git lists {missing} besides; not {extra}"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The fixture corpus, a record whose file has a non-ASCII name and is
    renamed, and another repository for hostile settings to point at."""
    root = tmp_path_factory.mktemp("environment")
    corpus = root / "corpus"
    cases = [
        (corpus / case.record.repo, case.record.source, case.record.target_commit)
        for case in build_corpus(corpus)
    ]
    renamed = RepoBuilder(root / "renamed")
    first = renamed.commit({"café.py": BASE})
    renamed.commit({"café.py": None, "naïve.py": BASE})
    third = renamed.commit({"naïve.py": BASE.replace("value_7", "value_seven")})
    cases.append((renamed.path, Region(first, "café.py", make_range(3, 1, 3, 7)), third))
    other = RepoBuilder(root / "other")
    for text in ("one\n", "two\n"):
        other.commit({"f.txt": text})
    return cases, other.path


def answers(cases) -> list:
    """What mapping each case gives, or its error, from readers started
    under the current environment."""
    gitio._close_readers()
    out = []
    for repo, source, target_commit in cases:
        try:
            result = map_region(repo, source, target_commit)
        except RepoError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        else:
            out.append((result.target, result.reason, result.candidates))
    return out


@pytest.fixture(scope="module")
def clean(world):
    with pytest.MonkeyPatch.context() as mp:
        for name in _LOCAL_ENV_VARS:
            mp.delenv(name, raising=False)
        return answers(world[0])


def _config(key: str, value: str) -> dict:
    return {"GIT_CONFIG_COUNT": "1", "GIT_CONFIG_KEY_0": key, "GIT_CONFIG_VALUE_0": value}


# One hostile setting per row: each name git lists pointed at the other
# repository or at a bogus path, config passed in the environment, and a
# working directory inside the other repository. A value that starts with
# "." is a path in the other repository.
HOSTILE = {
    "GIT_DIR": {"GIT_DIR": ".git"},
    "GIT_WORK_TREE": {"GIT_WORK_TREE": "."},
    "GIT_IMPLICIT_WORK_TREE": {"GIT_IMPLICIT_WORK_TREE": "0"},
    "GIT_COMMON_DIR": {"GIT_COMMON_DIR": ".git"},
    "GIT_OBJECT_DIRECTORY": {"GIT_OBJECT_DIRECTORY": ".git/objects"},
    "GIT_ALTERNATE_OBJECT_DIRECTORIES": {"GIT_ALTERNATE_OBJECT_DIRECTORIES": "bogus"},
    "GIT_INDEX_FILE": {"GIT_INDEX_FILE": ".git/index"},
    "GIT_GRAFT_FILE": {"GIT_GRAFT_FILE": "bogus"},
    "GIT_SHALLOW_FILE": {"GIT_SHALLOW_FILE": ".git/HEAD"},
    "GIT_NO_REPLACE_OBJECTS": {"GIT_NO_REPLACE_OBJECTS": "1"},
    "GIT_REPLACE_REF_BASE": {"GIT_REPLACE_REF_BASE": "refs/heads/"},
    "GIT_CONFIG": {"GIT_CONFIG": "bogus"},
    "GIT_CONFIG_PARAMETERS": {"GIT_CONFIG_PARAMETERS": "bogus"},
    "GIT_CONFIG_COUNT": {"GIT_CONFIG_COUNT": "1"},
    "GIT_PREFIX": {"GIT_PREFIX": "bogus/"},
    "GIT_INTERNAL_SUPER_PREFIX": {"GIT_INTERNAL_SUPER_PREFIX": "bogus/"},
    "diff.renames=false": _config("diff.renames", "false"),
    "diff.renameLimit=1": _config("diff.renameLimit", "1"),
    "color.ui=always": _config("color.ui", "always"),
    "diff.noprefix=true": _config("diff.noprefix", "true"),
    "log.showSignature=true": _config("log.showSignature", "true"),
    "core.quotePath=true": _config("core.quotePath", "true"),
    "cwd in another repository": {},
}


def _apply(monkeypatch, settings: dict, other: Path) -> None:
    for name, value in settings.items():
        monkeypatch.setenv(name, str(other / value) if value.startswith(".") else value)


def test_the_table_names_every_listed_variable():
    assert list(HOSTILE)[: len(_LOCAL_ENV_VARS)] == list(_LOCAL_ENV_VARS)


@pytest.mark.parametrize("row", HOSTILE)
def test_a_hostile_setting_changes_no_answer(world, clean, monkeypatch, row):
    cases, other = world
    _apply(monkeypatch, HOSTILE[row], other)
    if row == "cwd in another repository":
        monkeypatch.chdir(other)
    assert answers(cases) == clean


def test_no_started_git_is_given_a_listed_variable(world, tmp_path, monkeypatch, git_wrapper):
    cases, other = world
    repo, source, target_commit = cases[0]
    bare = tmp_path / "bare.git"
    run_git(["clone", "-q", "--bare", str(repo), str(bare)])
    log = tmp_path / "git.log"
    # One write per git, so the lines of diffs that run at once stay whole.
    wrapper = git_wrapper(
        'names=$(env | sed -n "s/^\\(GIT_[A-Z_]*\\)=.*/\\1/p" | tr "\\n" " ")\n'
        f'echo "$1 $names" >> "{log}"'
    )
    for row in _LOCAL_ENV_VARS:
        _apply(monkeypatch, HOSTILE[row], other)
    monkeypatch.setenv("CODEMAPPER_GIT", wrapper)
    gitio._close_readers()
    map_region(repo, source, target_commit)
    evaluate([EvalRecord(str(bare), source, target_commit, DELETED)], cache_dir=tmp_path / "cache")
    built = RepoBuilder(tmp_path / "built")
    built.commit({"a.txt": "one\n"})
    calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert {call[0] for call in calls} >= {"cat-file", "diff", "clone", "init", "commit"}
    leaked = {name for call in calls for name in call[1:]} & set(_LOCAL_ENV_VARS)
    assert not leaked


def test_config_given_in_the_environment_is_dropped_and_global_config_kept(
    world, tmp_path, monkeypatch, git_wrapper
):
    """As git's submodule code does, repository commands drop config passed
    as `git -c` or in the environment, a safe.directory included; global
    config still applies. Diffs see neither."""
    cases, _ = world
    repo, source, target_commit = cases[0]
    config = tmp_path / "gitconfig"
    config.write_text("[safe]\n\tdirectory = /from/global\n", encoding="utf-8")
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    monkeypatch.setenv("GIT_CONFIG_PARAMETERS", "'safe.directory=/from/parameters'")
    for name, value in _config("safe.directory", "/from/count").items():
        monkeypatch.setenv(name, value)
    log = tmp_path / "git.log"
    monkeypatch.setenv(
        "CODEMAPPER_GIT",
        git_wrapper(
            f'seen=$("{shutil.which("git")}" config --get-all safe.directory | tr "\\n" " ")\n'
            f'echo "$1 $seen" >> "{log}"'
        ),
    )
    gitio._close_readers()
    map_region(repo, source, target_commit)
    seen = {tuple(line.split()) for line in log.read_text(encoding="utf-8").splitlines()}
    assert seen == {("cat-file", "/from/global"), ("diff",)}


def _commit_count(repo: Path) -> str:
    env = {k: v for k, v in os.environ.items() if k not in _LOCAL_ENV_VARS}
    return subprocess.run(
        ["git", "rev-list", "--all", "--count"],
        cwd=repo, env=env, capture_output=True, text=True, check=True,
    ).stdout


def _build_with_repo_builder(dest: Path) -> None:
    builder = RepoBuilder(dest)
    builder.commit({"a.txt": "one\n"})
    builder.commit({"a.txt": "two\n"})
    assert _commit_count(dest) == "2\n"


def _build_with_fixtures_main(dest: Path) -> None:
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run(
        [sys.executable, "-m", "codemapper.fixtures", str(dest)],
        env=env, capture_output=True, check=True, timeout=120,
    )
    assert all((repo / ".git").is_dir() for repo in (dest / "repos").iterdir())
    report = evaluate(load_dataset(dest / "dataset.jsonl"), base_dir=dest)
    assert report.aggregates.exact_count == 12


@pytest.mark.parametrize("build", [_build_with_repo_builder, _build_with_fixtures_main])
@pytest.mark.parametrize("name, value", [("GIT_DIR", ".git"), ("GIT_INDEX_FILE", ".git/index")])
def test_building_leaves_the_named_repository_alone(tmp_path, monkeypatch, build, name, value):
    other = RepoBuilder(tmp_path / "other")
    other.commit({"f.txt": "one\n"})
    before = _commit_count(other.path), (other.path / ".git" / "index").read_bytes()
    monkeypatch.setenv(name, str(other.path / value))
    build(tmp_path / "built")
    assert (_commit_count(other.path), (other.path / ".git" / "index").read_bytes()) == before
