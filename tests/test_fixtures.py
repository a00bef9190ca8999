"""The bundled fixture corpus builds the same way under any git config."""

import subprocess

from codemapper.fixtures import build_corpus


def test_build_ignores_the_callers_global_git_config(tmp_path, monkeypatch):
    config = tmp_path / "gitconfig"
    config.write_text(
        "[commit]\n\tgpgsign = true\n"
        "[gpg]\n\tprogram = codemapper-missing-gpg\n"
        "[user]\n\tname = Global User\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    cases = build_corpus(tmp_path / "corpus")
    assert cases
    repo = tmp_path / "corpus" / cases[0].record.repo
    author = subprocess.run(
        ["git", "log", "-1", "--format=%an <%ae>"],
        cwd=repo, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert author == "Fixture Builder <fixtures@example.com>"
