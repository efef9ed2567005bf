"""Self-checks of the benchmark harness.  Run from the root of a checkout:

    python3 bench/selfcheck.py

1. ``BENCHMARK.json`` names exactly the metrics and units ``run.py`` reports.
2. Two traced runs with the same seed report identical counts (every
   per-layer metric whose unit is ``count``) on every workload.
3. A planted wrong answer (``--plant-wrong`` corrupts the first answer of
   every pass) is counted as failed on every workload.
4. The checker's own oracles agree with the library on small cases: the
   subset simulation with ``member`` on finite words, and
   ``in_neighborhood`` with ``growth.u_contains``.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def _run(workload: str, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", *extra],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_manifest(run) -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for section, expected in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        if listed != expected:
            problems.append(f"BENCHMARK.json {section} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(expected.items()))}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def check_counts(run, workload: str) -> list[str]:
    first, second = (_run(workload, "--trace", "1")["metrics"] for _ in range(2))
    counts = [k for k, unit in run.PER_LAYER.items() if unit == "count"]
    differ = [k for k in counts if first[k]["value"] != second[k]["value"]]
    return [f"{workload}: counts differ between identical runs: {differ}"] if differ else []


def check_planted(workload: str) -> list[str]:
    res = _run(workload, "--trace", "0", "--plant-wrong")
    if res["failed"] == 0 or res["correct"]:
        return [f"{workload}: planted wrong answers were not counted"]
    return []


def check_oracles() -> list[str]:
    import checks
    from ordinalia.automata import automaton_from_dict
    from ordinalia.growth import u_contains
    from ordinalia.ordinals import Ordinal
    from ordinalia.semantics import member
    from ordinalia.words import parse_word

    import inputs

    problems = []
    rng = random.Random(SEED)
    for group in inputs.generate("member", SEED, 0)[:6]:
        aut_dict = group["automaton"]
        aut = automaton_from_dict(aut_dict)
        letters = [s for s in aut_dict["alphabet"] if s != aut_dict["blank"]]
        for n in range(6):
            for _ in range(4):
                entries = {i: rng.choice(letters) for i in range(n) if rng.random() < 0.6}
                w = parse_word(inputs.fmt_word((n,), {(i,): s for i, s in entries.items()}),
                               aut.alphabet)
                if member(aut, w) != checks.subset_accepts(aut_dict, n, entries):
                    problems.append(f"subset simulation disagrees with member on {w}")
    for _ in range(300):
        m = rng.randint(1, 4)
        anchors = {tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 3))) for _ in range(2)}
        gamma = tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 3)))
        ours = checks.in_neighborhood(Ordinal(gamma).coeffs,
                                      {Ordinal(a).coeffs for a in anchors}, m)
        theirs = u_contains([Ordinal(a) for a in anchors], m, Ordinal(gamma))
        if ours != theirs:
            problems.append(f"in_neighborhood disagrees with u_contains on {gamma}, m={m}")
    return problems[:5]


def main() -> int:
    if not os.path.isfile(os.path.join("src", "ordinalia", "__init__.py")):
        print("selfcheck: run from the root of an ordinalia checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]
    import run

    results = [("manifest", check_manifest(run)), ("oracles", check_oracles())]
    for workload in run.WORKLOADS:
        results.append((f"{workload} planted", check_planted(workload)))
        results.append((f"{workload} counts", check_counts(run, workload)))
    bad = 0
    for name, problems in results:
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for p in problems:
            print(f"     {p}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
