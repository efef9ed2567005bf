"""Every demo runs to completion: exit 0, nothing on stderr, and stdout
equal to ``tests/data/demo_stdout.json``.  After an intentional change
to a demo's output, regenerate the data and review the diff::

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).parent / "data" / "demo_stdout.json"


def _run(demo: pathlib.Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    done = _run(demo)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == json.loads(GOLDEN.read_text())[demo.stem]


if __name__ == "__main__":
    golden = {demo.stem: _run(demo).stdout for demo in DEMOS}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
