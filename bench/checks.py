"""Answer checks, run in the parent process outside the timed region.

* ``member``: each verdict is compared with the gap-NFA route
  (``cap_policy`` + ``to_gap_nfa`` + ``accepts_word``).  That route
  shares ``const_reach`` with ``member``, so it is not an independent
  oracle; words of finite length are also run through the subset
  simulation below, which shares nothing with the library.
* ``decide``: each truth value is compared with the hand-checked one
  stored with the sentence.
* ``normalize``: the output must keep the input's length, every support
  point must lie in the radius neighborhood of the anchors (checked by
  ``in_neighborhood``, written here from the definition in the docstring
  of ``growth.u_contains``), and the output must be equivalent to the
  input under the parameters, decided through the gap-NFA route with the
  parameter tracks convolved.

The ``member`` and ``normalize`` checks of one run are spread over
``CHECK_PROCESSES`` child processes, each running this file as a script
on its share of the items; they run after every timed pass has ended.
"""

from __future__ import annotations

import json
import os
import sys

import children
from ordinalia.automata import automaton_from_dict
from ordinalia.gapcode import accepts_word, cap_policy, to_gap_nfa
from ordinalia.words import convolve, parse_word, support

CHECK_PROCESSES = 2


def subset_accepts(aut: dict, length: int, letters: dict) -> bool:
    """Textbook subset simulation of an automaton dict on a finite word
    given as its length and a map from position to symbol text."""
    succ: dict = {}
    for src, sym, dst in aut["succ"]:
        succ.setdefault((src, sym), set()).add(dst)
    cur = set(aut["initial"])
    for i in range(length):
        sym = letters.get(i, aut["blank"])
        cur = {t for q in cur for t in succ.get((q, sym), ())}
    return bool(cur & set(aut["final"]))


def _coefficient(cs: tuple, i: int) -> int:
    return cs[i] if i < len(cs) else 0


def in_neighborhood(gamma: tuple, anchors, m: int) -> bool:
    """Is the ordinal with coefficients ``gamma`` in the m-neighborhood?

    gamma qualifies through an anchor beta (0 is always an anchor) when
    both agree at every exponent above m and, at the largest exponent k
    where they differ, gamma's coefficient exceeds beta's by at most m
    and every coefficient of gamma below k is at most m.
    """
    for beta in {*anchors, ()}:
        if gamma == beta:
            return True
        top = max(len(gamma), len(beta))
        if any(_coefficient(gamma, i) != _coefficient(beta, i) for i in range(m + 1, top)):
            continue
        k = max(i for i in range(min(m, top - 1) + 1)
                if _coefficient(gamma, i) != _coefficient(beta, i))
        if _coefficient(gamma, k) > _coefficient(beta, k) + m:
            continue
        if any(_coefficient(gamma, i) > m for i in range(k)):
            continue
        return True
    return False


def _finite(word) -> tuple[int, dict] | None:
    if word.length.degree > 0:
        return None
    return (word.length.coefficient(0),
            {p.coefficient(0): "|".join(s) if isinstance(s, tuple) else s
             for p, s in word.entries})


def member_expected(group: dict) -> list:
    """Verified verdict of every word of a ``member`` group; None where
    the two oracles disagree."""
    aut = automaton_from_dict(group["automaton"])
    words = [parse_word(text, aut.alphabet) for text in group["queries"]]
    nfa = to_gap_nfa(aut, cap_policy([aut], words[0].length))
    out = []
    for w in words:
        verdict = accepts_word(nfa, w)
        finite = _finite(w)
        if finite is not None and subset_accepts(group["automaton"], *finite) != verdict:
            verdict = None
        out.append(verdict)
    return out


def normalize_ok(item: tuple) -> bool:
    """Is ``answer`` a correct normalization of ``query``?"""
    group, query, answer = item
    aut = automaton_from_dict(group["automaton"])
    base = aut.alphabet.base if aut.alphabet.base is not None else aut.alphabet
    v = parse_word(query["word"], base)
    params = [parse_word(text, base) for text in query["params"]]
    try:
        out = parse_word(answer[0], base)
    except ValueError:
        return False
    if out.length != v.length:
        return False
    radius = (1 << len(aut.states) ** 2) + 1
    anchors = {p.coeffs for e in params for p in support(e)} | {v.length.coeffs}
    if not all(in_neighborhood(p.coeffs, anchors, radius) for p in support(out)):
        return False
    nfa = to_gap_nfa(aut, cap_policy([aut], v.length))
    if aut.alphabet.base is None:
        return accepts_word(nfa, v) == accepts_word(nfa, out)
    return all(accepts_word(nfa, convolve([v, e])) == accepts_word(nfa, convolve([out, e]))
               for e in params)


CHECKERS = {"member": member_expected, "normalize": normalize_ok}


def _parallel(kind: str, items: list) -> list:
    """``CHECKERS[kind]`` of every item, in CHECK_PROCESSES fresh processes."""
    root = os.getcwd()
    shares = [items[i::CHECK_PROCESSES] for i in range(CHECK_PROCESSES)]
    procs = [children.spawn(os.path.abspath(__file__), root) for _ in shares]
    outs = []
    try:
        for proc, share in zip(procs, shares):
            proc.stdin.write(json.dumps({"kind": kind, "items": share}).encode())
            proc.stdin.close()
        for proc in procs:
            outs.append(proc.stdout.read())
    except BrokenPipeError:
        pass  # a checker died; its exit code says so below
    finally:
        codes = [children.reap(proc) for proc in procs]
    if any(codes) or len(outs) != len(procs):
        raise RuntimeError(f"answer checker failed (exit codes {codes})")
    results = [json.loads(out) for out in outs]
    return [results[i % CHECK_PROCESSES][i // CHECK_PROCESSES] for i in range(len(items))]


def count_wrong(workload: str, sets: dict, passes: list) -> list[int]:
    """Number of missing or wrong answers in each pass.  Each input set
    and each distinct answer is verified once, however often it recurs."""
    flat = {k: [q for g in groups for q in g["queries"]] for k, groups in sets.items()}
    if workload == "normalize":
        items = {}
        for p in passes:
            owners = [(g, q) for g in sets[p["set"]] for q in g["queries"]]
            for i, answer in enumerate(p["answers"]):
                if answer is not None:
                    items[(p["set"], i, answer[0])] = (*owners[i], answer)
        ok = dict(zip(items, _parallel("normalize", list(items.values()))))
        return [sum(a is None or not ok[(p["set"], i, a[0])]
                    for i, a in enumerate(p["answers"])) for p in passes]
    if workload == "member":
        keys = sorted(sets)
        verdicts = iter(_parallel("member", [g for k in keys for g in sets[k]]))
        expected = {k: [v for _ in sets[k] for v in next(verdicts)] for k in keys}
    else:
        expected = {k: [value for _, value in queries] for k, queries in flat.items()}
    return [sum(a is None or e is None or a != e
                for a, e in zip(p["answers"], expected[p["set"]])) for p in passes]


if __name__ == "__main__":
    children.die_with_parent()
    job = json.load(sys.stdin)
    json.dump([CHECKERS[job["kind"]](item) for item in job["items"]], sys.stdout)
