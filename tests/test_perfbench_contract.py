"""The benchmark still runs against this source tree: every name that
`perfbench/` binds in codemapper exists, and the answers are correct.

Each run works on a copy of `perfbench/` and `src/` in a temporary
directory, so nothing is written under the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "corpus_ablation", "--seed", "101", "--seconds", "1", "--trace", "1"],
        ["--workload", "token_flood", "--seed", "101", "--seconds", "1"],
    ],
    ids=["corpus_ablation_traced", "token_flood"],
)
def test_a_short_benchmark_run_is_correct(tmp_path, args):
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for tree in ("perfbench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
