"""ordinalia benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload member --seed 1 --seconds 20 --trace 0

Each *pass* runs one input set in a fresh single-threaded worker process
(``worker.py``) as a closed loop.  Passes repeat, cycling through a
small pool of seeded input sets, in whole cycles of the pool until the
timed phases add up to ``--seconds``.  Every answer is checked
afterwards, outside the timed region (``checks.py``).  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics;
with ``--trace 1`` one cycle of passes runs untraced and then traced
(``spans.py``), and the line holds the per-layer metrics, whose counts
repeat exactly for a given seed.  A record of the run, with the aggregated spans, is written
to ``.bench_out/``.  See README.md in this directory for the workloads
and the metric-to-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import zlib

import children

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

#: Input sets per run.  Passes cycle through them; a traced run makes one
#: cycle untraced and one traced.
POOL = 3
WORKLOADS = ("member", "decide", "normalize")
#: No new pass starts after RUN_BUDGET_S; every child is killed at RUN_DEADLINE_S.
RUN_BUDGET_S = 120
RUN_DEADLINE_S = 170

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "first_query_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, layer by layer, in the order they are printed.
PER_LAYER_NAMES = """
ordinals.add.calls ordinals.add.self_s
ordinals.interval_type.calls ordinals.interval_type.self_s
words.restrict.calls words.restrict.self_s words.concat.calls words.concat.self_s
words.convolve.calls words.convolve.self_s words.parse_word.self_s
automata.automaton_from_dict.self_s automata.reindex.calls automata.reindex.self_s
semantics.profile.calls semantics.profile.self_s
semantics.power_cycle.calls semantics.power_cycle.self_s
semantics.compose.calls semantics.compose.self_s semantics.compose.pairs_out
semantics.reach_power.calls semantics.reach_power.self_s semantics.relation_power.calls
semantics.const_reach.calls semantics.const_reach.self_s
semantics.run_relation.calls semantics.run_relation.self_s
semantics.member.calls semantics.member.self_s
gapcode.cap_policy.self_s gapcode.cap_policy.classes
gapcode.to_gap_nfa.calls gapcode.to_gap_nfa.self_s gapcode.to_gap_nfa.states_out
gapcode.nfa_product.calls gapcode.nfa_product.self_s gapcode.nfa_product.states_out
gapcode.determinize.calls gapcode.determinize.self_s gapcode.determinize.states_out
gapcode.complement.calls gapcode.complement.self_s gapcode.complement.states_out
gapcode.exists_project.calls gapcode.exists_project.self_s
gapcode.exists_project.states_out gapcode.trim.states_removed
gapcode.emptiness_witness.self_s gapcode.step.calls gapcode.step.hit_ratio
logic.compile_formula.calls logic.compile_formula.self_s logic.max_nfa_states
growth.normalize.steps growth.shrink_gap.calls growth.shrink_gap.self_s
growth.equiv.calls growth.equiv.self_s
trace.overhead_frac trace.attributed_frac
""".split()
RATIOS = ("gapcode.step.hit_ratio", "trace.overhead_frac", "trace.attributed_frac")
PER_LAYER = {name: "s" if name.endswith(".self_s") else "ratio" if name in RATIOS
             else "count" for name in PER_LAYER_NAMES}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _hash_seed(seed: int, index: int) -> str:
    return str(zlib.crc32(f"{seed}:{index}".encode()))


def run_pass(root: str, workload: str, groups, trace: bool, plant: bool,
             hash_seed: str) -> dict:
    """One fresh worker: set-up time as seen by the caller, then its results."""
    payload = json.dumps({"root": root, "workload": workload, "groups": groups,
                          "trace": trace, "plant": plant}).encode()
    t0 = time.perf_counter()
    proc = children.spawn(os.path.join(HERE, "worker.py"), root,
                          {"PYTHONHASHSEED": hash_seed})
    ready = rest = b""
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    except BrokenPipeError:
        pass  # the worker died; its exit code says so below
    finally:
        code = children.reap(proc)
    if ready.strip() != b"ready" or code != 0:
        _fail(f"{workload} worker failed (exit {code})")
    result = json.loads(rest.decode().strip().splitlines()[-1])
    result["setup"] = setup
    return result


def _source_lines(root: str) -> dict:
    pkg = os.path.join(root, "src", "ordinalia")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name[:-3]] = sum(1 for _ in fh)
    return out


def _commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(passes, sets) -> dict:
    """The end-to-end metrics.  Each query's latency is the median over
    the passes that ran it, and so is each group's first-query latency:
    the latencies cluster, and a median over single samples can fall
    between two clusters and jump from run to run."""
    by_query: dict = {}
    by_group: dict = {}
    for p in passes:
        ms = [x * 1000 for x in p["latencies"]]
        for i, x in enumerate(ms):
            by_query.setdefault((p["set"], i), []).append(x)
        offset = 0
        for j, g in enumerate(sets[p["set"]]):
            by_group.setdefault((p["set"], j), []).append(ms[offset])
            offset += len(g["queries"])
    lat = [statistics.median(v) for v in by_query.values()]
    first = [statistics.median(v) for v in by_group.values()]
    return {
        "queries_per_s": sum(map(len, by_query.values())) / sum(p["wall"] for p in passes),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "first_query_p50_ms": statistics.median(first),
        "setup_s": statistics.median(p["setup"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }


def per_layer(untraced, traced) -> dict:
    calls, self_s, counts = {}, {}, {}
    hits = rooted = 0
    max_states = 0
    for p in traced:
        t = p["trace"]
        for name, parent, n, total, own in t["spans"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
            if parent == "<query>":
                rooted += total
        for key, n in t["counts"].items():
            counts[key] = counts.get(key, 0) + n
        hits += t["step_hits"]
        max_states = max(max_states, t["max_nfa_states"])
    traced_wall = sum(p["wall"] for p in traced)
    out = {}
    for key in PER_LAYER:
        name, _, what = key.rpartition(".")
        if what == "calls":
            out[key] = calls.get(name, 0)
        elif what == "self_s":
            out[key] = self_s.get(name, 0.0)
        else:
            out[key] = counts.get(key, 0)
    step_calls = calls.get("gapcode.step", 0)
    out["gapcode.step.hit_ratio"] = hits / step_calls if step_calls else 0.0
    out["logic.max_nfa_states"] = max_states
    out["trace.overhead_frac"] = traced_wall / sum(p["wall"] for p in untraced) - 1
    out["trace.attributed_frac"] = rooted / traced_wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt the first answer of every pass (self-check)")
    args = ap.parse_args(argv)
    children.set_deadline(RUN_DEADLINE_S)
    children.install_signal_handlers()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ordinalia", "__init__.py")):
        _fail("run from the root of an ordinalia checkout (src/ordinalia not found)")
    sys.path.insert(0, os.path.join(root, "src"))
    import checks
    import inputs

    record = {
        "args": vars(args),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": _commit(root),
        "source_lines": _source_lines(root),
    }
    started = time.perf_counter()
    sets: dict = {}

    def one_pass(index: int, trace: bool) -> dict:
        k = index % POOL
        if k not in sets:
            sets[k] = inputs.generate(args.workload, args.seed, k)
        result = run_pass(root, args.workload, sets[k], trace, args.plant_wrong,
                          _hash_seed(args.seed, index))
        result["set"] = k
        return result

    if args.trace:
        untraced = [one_pass(i, False) for i in range(POOL)]
        traced = [one_pass(i, True) for i in range(POOL)]
        passes = untraced + traced
    else:
        # Whole cycles of the pool, so every run weighs the sets equally.
        passes = []
        while (len(passes) % POOL
               or not passes
               or (sum(p["wall"] for p in passes) < args.seconds
                   and time.perf_counter() - started < RUN_BUDGET_S)):
            passes.append(one_pass(len(passes), False))

    checked = time.perf_counter()
    attempted = sum(len(p["answers"]) for p in passes)
    failed = sum(checks.count_wrong(args.workload, sets, passes))
    record["check_s"] = time.perf_counter() - checked
    record["total_s"] = time.perf_counter() - started
    record["errors"] = sorted({e for p in passes for e in p["errors"]})

    if args.trace:
        metrics = per_layer(untraced, traced)
        units = PER_LAYER
        record["spans"] = [p["trace"] for p in traced]
    else:
        metrics = end_to_end(passes, sets)
        units = END_TO_END
    samples = len({(p["set"], i) for p in passes for i in range(len(p["latencies"]))})
    repeats = sum(len(p["latencies"]) for p in passes) / samples
    record.update({
        "passes": [{"set": p["set"], "wall": p["wall"], "setup": p["setup"],
                    "peak_rss_kb": p["peak_rss_kb"],
                    "latencies_us": [round(x * 1e6) for x in p["latencies"]]}
                   for p in passes],
        "attempted": attempted, "failed": failed, "latency_samples": samples,
        "latency_repeats": repeats,
        "metrics": metrics,
        "loadavg_end": os.getloadavg(),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for key, value in metrics.items():
        note = (f"  ({samples} queries, each the median of {repeats:.1f} passes on average)"
                if key == "latency_p90_ms" else "")
        print(f"{key} {value} {units[key]}{note}")
    print(f"failed_frac {failed / attempted} ratio  ({failed} of {attempted} queries)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
