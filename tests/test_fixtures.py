"""The bundled fixture corpus, and the test repositories, build the same way
under any git config, and the corpus builds the same bytes every time."""

import subprocess

import pytest

from codemapper.fixtures import RepoBuilder, build_corpus, main
from codemapper.pipeline import map_region


def _corpus_repo(dest):
    return dest / build_corpus(dest)[0].record.repo


def _builder_repo(dest):
    builder = RepoBuilder(dest)
    builder.commit({"a.txt": "one\n"})
    return builder.path


@pytest.mark.parametrize("build", [_corpus_repo, _builder_repo], ids=["corpus", "repo_builder"])
def test_build_ignores_the_callers_global_git_config(tmp_path, monkeypatch, build):
    config = tmp_path / "gitconfig"
    config.write_text(
        "[commit]\n\tgpgsign = true\n"
        "[gpg]\n\tprogram = codemapper-missing-gpg\n"
        "[user]\n\tname = Global User\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    repo = build(tmp_path / "built")
    author = subprocess.run(
        ["git", "log", "-1", "--format=%an <%ae>"],
        cwd=repo, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert author == "Fixture Builder <fixtures@example.com>"


def test_corpus_and_mappings_run_codemapper_git(tmp_path, monkeypatch, git_wrapper):
    log = tmp_path / "git.log"
    monkeypatch.setenv("CODEMAPPER_GIT", git_wrapper(f'echo "$1" >> "{log}"'))
    record = build_corpus(tmp_path / "corpus")[0].record
    built = set(log.read_text(encoding="utf-8").split())
    assert built == {"init", "config", "add", "commit", "rev-parse"}
    log.unlink()
    map_region(tmp_path / "corpus" / record.repo, record.source, record.target_commit)
    assert sorted(log.read_text(encoding="utf-8").split()) == ["cat-file"] + ["diff"] * 4


def test_two_builds_write_identical_files(tmp_path, monkeypatch):
    build_corpus(tmp_path / "first")
    # The caller's commit dates do not reach the corpus.
    monkeypatch.setenv("GIT_AUTHOR_DATE", "2001-02-03T04:05:06+00:00")
    monkeypatch.setenv("GIT_COMMITTER_DATE", "2001-02-03T04:05:06+00:00")
    build_corpus(tmp_path / "second")
    for name in ("dataset.jsonl", "manifest.json"):
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes()


def test_main_builds_one_corpus_at_dest_and_never_over_an_old_one(tmp_path, capsys):
    assert main([]) == 64
    assert capsys.readouterr().err == "usage: python3 -m codemapper.fixtures DEST\n"
    dest = tmp_path / "corpus"
    assert main([str(dest)]) == 0
    assert capsys.readouterr().out == f"built 12 fixture cases under {dest}\n"
    assert (dest / "dataset.jsonl").is_file() and (dest / "manifest.json").is_file()
    with pytest.raises(FileExistsError):
        build_corpus(dest)
