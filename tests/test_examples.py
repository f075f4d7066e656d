"""The example scripts run: each exits 0 as a fresh process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = [
    "frequency_assignment",
    "leader_election_impossibility",
    "mis_derandomized",
    "one_algorithm_pipeline",
    "quickstart",
]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / f"{name}.py")],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
