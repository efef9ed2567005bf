"""Golden CLI runs: exact stdout, exit code and ``--json-out`` bytes.

Each case runs a report command on a bundled example and compares
against ``tests/data/cli_golden.json``; the bundled example files
themselves are pinned by their SHA-256.  After an intentional change
to a report, regenerate the data and review the diff::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from ordinalia.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
VACUOUS = "(exists x (exists y (Plus y y y)))"
UMSET = ["umset", "-X", "w*2+1", "-m", "1", "-d", "w^2"]
NORMALIZE = ["normalize", "-a", "@subsupp", "-w", "len=w^2; {w*12+2:a}"]

# argv per case; "@name" stands for the file of the bundled example
CASES = {
    "member-accept": ["member", "-a", "@wellorder", "-w", "len=3; {0:a|a, 1:b|b}"],
    "member-reject": ["member", "-a", "@wellorder", "-w", "len=3; {0:a|a, 1:b|a}"],
    "decide-true": ["decide", "-p", "@presburger", "-f", "(exists x (Plus x x x))"],
    "decide-false": ["decide", "-p", "@presburger", "-f", "(forall x (Plus x x x))"],
    "decide-vacuous": ["decide", "-p", "@presburger", "-f", VACUOUS],
    "witness": ["witness", "-p", "@presburger", "-f", "(exists x (Plus x x x))"],
    "witness-vacuous": ["witness", "-p", "@presburger", "-f", VACUOUS],
    "umset-rounds1": UMSET + ["--rounds", "1"],
    "umset-rounds2": UMSET + ["--rounds", "2"],
    "normalize": NORMALIZE,
    "normalize-m5": NORMALIZE + ["-m", "5"],
    "growth-stages1": ["growth", "--stages", "1"],
    "saturate-wellorder": ["saturate", "-a", "@wellorder"],
    "saturate-triangle1-m2": ["saturate", "-a", "@triangle1", "-m", "2"],
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_examples(directory: pathlib.Path) -> dict[str, pathlib.Path]:
    """Every listed example written by ``ordinalia examples NAME --json-out``."""
    paths = {}
    for line in _run(["examples"])[1].splitlines():
        name = line.split(":")[0]
        paths[name] = directory / f"{name}.json"
        code, _, err = _run(["examples", name, "--json-out", str(paths[name])])
        assert (code, err) == (0, ""), name
    return paths


def run_case(case: str, paths: dict, directory: pathlib.Path) -> dict:
    report = directory / f"{case}.report.json"
    argv = [str(paths[a[1:]]) if a[0] == "@" else a for a in CASES[case]]
    code, out, err = _run(argv + ["--json-out", str(report)])
    assert err == "", err
    return {"exit": code, "stdout": out, "report": report.read_text(encoding="utf-8")}


def digests(paths: dict) -> dict[str, str]:
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


def snapshot(directory: pathlib.Path) -> dict:
    paths = write_examples(directory)
    return {
        "examples": digests(paths),
        "cases": {case: run_case(case, paths, directory) for case in CASES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def example_paths(tmp_path_factory):
    return write_examples(tmp_path_factory.mktemp("examples"))


def test_example_files_are_pinned(golden, example_paths):
    assert digests(example_paths) == golden["examples"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, golden, example_paths, tmp_path):
    assert run_case(case, example_paths, tmp_path) == golden["cases"][case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = snapshot(pathlib.Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data['cases'])} cases to {GOLDEN}", file=sys.stderr)
