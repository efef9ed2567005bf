"""Outside-in tracing of the library's layer boundaries.

``Tracer.install`` replaces every public function listed in ``TRACED``
with a timing wrapper, in *every* ``ordinalia`` module that binds the
same function object (several modules import functions by name, and a
call through an unwrapped binding would escape the trace).
``GapNFA.step`` is wrapped on the class.  ``uninstall`` puts every
original back.  No library module is edited.

Spans are aggregated per (function, parent function) as call count,
total time and self time, because some functions run 10^5-10^6 times
per pass.  Self time is the wall time inside a call minus the time of
its traced children.  A few wrappers also count sizes at the boundary
(relation pairs, NFA states, cap classes, normalization steps).
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("ordinals", "words", "automata", "semantics", "gapcode", "logic",
           "growth", "examples", "cli")

#: (module, function) pairs wrapped in a traced run.  ``logic.decide``,
#: ``logic.presentation_from_dict`` and ``logic.parse_formula`` carry no
#: per-layer metric of their own; they are spans so that the top of
#: every query and every load is attributed.
TRACED = (
    ("ordinals", "add"), ("ordinals", "interval_type"),
    ("words", "restrict"), ("words", "concat"), ("words", "convolve"),
    ("words", "parse_word"),
    ("automata", "automaton_from_dict"), ("automata", "reindex"),
    ("semantics", "profile"), ("semantics", "power_cycle"),
    ("semantics", "compose"), ("semantics", "reach_power"),
    ("semantics", "relation_power"), ("semantics", "const_reach"),
    ("semantics", "run_relation"), ("semantics", "member"),
    ("gapcode", "cap_policy"), ("gapcode", "to_gap_nfa"),
    ("gapcode", "nfa_product"), ("gapcode", "determinize"),
    ("gapcode", "complement"), ("gapcode", "exists_project"),
    ("gapcode", "trim"), ("gapcode", "emptiness_witness"),
    ("logic", "compile_formula"), ("logic", "decide"),
    ("logic", "presentation_from_dict"), ("logic", "parse_formula"),
    ("growth", "normalize"), ("growth", "shrink_gap"), ("growth", "equiv"),
)

#: gapcode operations whose output size is counted as ``states_out``.
SIZED = ("to_gap_nfa", "nfa_product", "determinize", "complement", "exists_project")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict = {}      # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict = {}     # counter name -> int
        self.max_nfa_states = 0
        self._stack: list = [["<none>", 0.0]]
        self._step_hits = [0]
        self._restore: list = []

    def phase(self, name: str) -> None:
        """Name the root that top-level spans are attributed to."""
        self._stack[:] = [[name, 0.0]]

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _after(self, name: str):
        """Size counter for a function's result, or None."""
        layer, fn = name.split(".")
        if name == "semantics.compose":
            return lambda args, out: self._count("semantics.compose.pairs_out", len(out))
        if name == "gapcode.cap_policy":
            return lambda args, out: self._count("gapcode.cap_policy.classes",
                                                 out.class_count())
        if name == "gapcode.trim":
            return lambda args, out: self._count("gapcode.trim.states_removed",
                                                 len(args[0].states) - len(out.states))
        if name == "growth.normalize":
            return lambda args, out: self._count("growth.normalize.steps", len(out.steps))
        if layer == "gapcode" and fn in SIZED:
            key = f"{name}.states_out"

            def sized(args, out):
                self._count(key, len(out.states))
                self.max_nfa_states = max(self.max_nfa_states, len(out.states))
            return sized
        return None

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._after(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _wrap_step(self, fn):
        """``GapNFA.step`` runs 10^6 times a pass: a leaner wrapper that
        also counts calls returning a non-empty set."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hits = self._step_hits

        @functools.wraps(fn)
        def step(nfa, q, gsym):
            parent = stack[-1]
            t0 = clock()
            out = fn(nfa, q, gsym)
            dt = clock() - t0
            parent[1] += dt
            rec = spans.get(("gapcode.step", parent[0]))
            if rec is None:
                rec = spans[("gapcode.step", parent[0])] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt
            if out:
                hits[0] += 1
            return out

        return step

    def install(self) -> None:
        mods = [importlib.import_module("ordinalia")]
        mods += [importlib.import_module(f"ordinalia.{m}") for m in MODULES]
        for layer, fname in TRACED:
            original = getattr(importlib.import_module(f"ordinalia.{layer}"), fname)
            wrapped = self._wrap(f"{layer}.{fname}", original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        gapnfa = importlib.import_module("ordinalia.gapcode").GapNFA
        self._restore.append((gapnfa, "step", gapnfa.step))
        gapnfa.step = self._wrap_step(gapnfa.step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def report(self) -> dict:
        return {
            "spans": [[n, p, *rec] for (n, p), rec in sorted(self.spans.items())],
            "counts": dict(sorted(self.counts.items())),
            "step_hits": self._step_hits[0],
            "max_nfa_states": self.max_nfa_states,
        }
