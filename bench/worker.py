"""One benchmark pass in a fresh interpreter.

Reads a job (workload, input set, trace flag) as JSON on stdin, imports
``ordinalia`` and loads the inputs through the public loaders, prints
``ready`` (the end of set-up), then runs every query in a closed loop:
one caller, and the next query starts only after the previous one
returns.  The last line of stdout is a JSON object with per-query
latencies and answers, the timed wall, the peak RSS and, in a traced
pass, the aggregated spans.

A fresh interpreter per pass matters: ``semantics`` caches results in
module globals keyed by automaton value, so a repeat in one process
would measure warm caches, which is a different program.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import children

children.die_with_parent()  # before the import, which is the slow part

import ordinalia  # noqa: E402
from ordinalia import automata, growth, logic, semantics, words  # noqa: E402

MAX_NORMALIZE_STEPS = 8192


# Library functions are looked up on their modules at call time, so that
# a traced pass runs the wrapped ones.


def _member(aut, w):
    return semantics.member(aut, w)


def _decide(f, pres):
    return logic.decide(f, pres)


def _normalize(family, params, v):
    # The default radius, with the step budget of the acceptance suite:
    # the default of 64 steps is far below these coefficients.
    res = growth.normalize(family, params, v, max_steps=MAX_NORMALIZE_STEPS)
    return [words.format_word(res.word), len(res.steps)]


def _load_member(groups):
    queries = []
    for g in groups:
        aut = automata.automaton_from_dict(g["automaton"])
        ws = [words.parse_word(text, aut.alphabet) for text in g["queries"]]
        queries.append([(_member, (aut, w)) for w in ws])
    return queries


def _load_decide(groups):
    queries = []
    for g in groups:
        pres = logic.presentation_from_dict(g["presentation"])
        sentences = [logic.parse_formula(text, pres.signature) for text, _ in g["queries"]]
        queries.append([(_decide, (f, pres)) for f in sentences])
    return queries


def _load_normalize(groups):
    queries = []
    for g in groups:
        aut = automata.automaton_from_dict(g["automaton"])
        base = aut.alphabet.base if aut.alphabet.base is not None else aut.alphabet
        batch = []
        for q in g["queries"]:
            v = words.parse_word(q["word"], base)
            params = [words.parse_word(text, base) for text in q["params"]]
            batch.append((_normalize, (growth.RelationFamily((aut,), v.length), params, v)))
        queries.append(batch)
    return queries


LOADERS = {"member": _load_member, "decide": _load_decide,
           "normalize": _load_normalize}


def _planted(answer):
    """A deliberately wrong answer, for the benchmark's self-check."""
    if isinstance(answer, bool):
        return not answer
    return ["len=0; {}", answer[1]]


def main() -> int:
    job = json.load(sys.stdin)
    root = os.path.realpath(job["root"])
    if not os.path.realpath(ordinalia.__file__).startswith(root):
        print("ordinalia was not imported from the checkout", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase("<setup>")
    groups = LOADERS[job["workload"]](job["groups"])
    print("ready", flush=True)

    if tracer is not None:
        tracer.phase("<query>")
    latencies, answers, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for batch in groups:
        for fn, args in batch:
            t0 = clock()
            try:
                answer = fn(*args)
            except Exception as exc:  # a failed query is counted, not fatal
                answer = None
                errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(clock() - t0)
            answers.append(answer)
    wall = clock() - start
    if tracer is not None:
        tracer.uninstall()
    if job["plant"] and answers and answers[0] is not None:
        answers[0] = _planted(answers[0])

    result = {
        "wall": wall,
        "latencies": latencies,
        "answers": answers,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
