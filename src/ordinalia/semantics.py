"""Run analysis: who can reach whom across transfinite stretches.

The core object is the *profile* of a symbol power sigma^(w^k): the set
of triples (q, A, p) such that some run starting in q ends in p after
w^k copies of sigma, visiting exactly the states A along the way
(start included, end excluded).  Level 0 is the one-step relation;
level k+1 arises from lassos over level-k triples: a finite approach
path followed by a cycle whose visited sets unite to exactly the left
set of some limit transition.

Visited sets are what make levels composable; most callers only need
the endpoint *relation*, and relations over finite state sets have
eventually periodic power sequences, which is what makes reachability
across arbitrary ordinal gaps a finite computation.

Both sequences -- profile levels as k grows, relation powers as c
grows -- are served by one lazily extended :class:`Periodic`.  The
sequences for an automaton are kept in that automaton's private memo,
so they are computed once per machine and freed with it; this module
holds no mutable state of its own.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from .automata import OrdinalAutomaton
from .ordinals import ONE, ZERO, Ordinal, add, interval_type, omega_power
from .words import AlphaWord, Symbol

Relation = frozenset  # of (state, state) pairs


class ResourceLimitExceeded(RuntimeError):
    """An analysis outgrew its configured budget; results would be partial."""


MAX_PATH_UNION_PAIRS = 1 << 18
MAX_PROFILE_LEVELS = 512
MAX_POWER_STEPS = 1 << 14


class Profile(NamedTuple):
    start: object
    visited: frozenset
    end: object


# -- relation algebra ------------------------------------------------------


def identity_relation(states: Iterable) -> Relation:
    return frozenset((q, q) for q in states)


def compose(first: Relation, second: Relation) -> Relation:
    by_src: dict = {}
    for a, b in second:
        by_src.setdefault(a, []).append(b)
    return frozenset((a, c) for a, b in first for c in by_src.get(b, ()))


# -- strongly connected components (plain mutual-reachability quotient) ----


def _sccs(nodes: set, arcs: set) -> list[set]:
    fwd: dict = {n: set() for n in nodes}
    for a, b in arcs:
        fwd[a].add(b)
    reach: dict = {}
    for n in nodes:
        seen = {n}
        stack = [n]
        while stack:
            x = stack.pop()
            for y in fwd[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[n] = seen
    comps: list[set] = []
    assigned: set = set()
    for n in nodes:
        if n in assigned:
            continue
        comp = {m for m in reach[n] if n in reach[m]}
        comps.append(comp)
        assigned |= comp
    return comps


def _cycle_anchors(triples: frozenset, left: frozenset) -> set:
    """States admitting a nonempty cycle of triples with visited sets
    inside ``left`` whose union is exactly ``left``.

    A closed walk never leaves its strongly connected component, and
    within one component a closed walk through any vertex can traverse
    every internal edge; so the reachable unions at u are exactly the
    subsets between a single edge label and the whole component's
    label union.
    """
    sub = [t for t in triples if t.visited <= left]
    nodes = {x for t in sub for x in (t.start, t.end)}
    arcs = {(t.start, t.end) for t in sub}
    anchors: set = set()
    for comp in _sccs(nodes, arcs):
        internal = [t for t in sub if t.start in comp and t.end in comp]
        if len(comp) == 1:
            internal = [t for t in internal if t.start == t.end]
        if not internal:
            continue
        union = frozenset().union(*(t.visited for t in internal))
        if union == left:
            anchors |= comp
    return anchors


def _path_unions(triples: frozenset, target) -> set:
    """All (q, U): a (possibly empty) chain of triples q -> target with
    visited-union U.  Backward search over (state, union) pairs."""
    incoming: dict = {}
    for t in triples:
        incoming.setdefault(t.end, []).append(t)
    seen = {(target, frozenset())}
    queue: deque = deque(seen)
    while queue:
        x, acc = queue.popleft()
        for t in incoming.get(x, ()):
            item = (t.start, acc | t.visited)
            if item not in seen:
                seen.add(item)
                if len(seen) > MAX_PATH_UNION_PAIRS:
                    raise ResourceLimitExceeded(
                        "path-union search exceeded "
                        f"{MAX_PATH_UNION_PAIRS} (state, union) pairs"
                    )
                queue.append(item)
    return seen


def _next_profile(limit: dict, prev: frozenset) -> frozenset:
    out: set = set()
    for left, targets in limit.items():
        anchors = _cycle_anchors(prev, left)
        for u in anchors:
            for q, acc in _path_unions(prev, u):
                visited = acc | left
                out.update(Profile(q, visited, p) for p in targets)
    return frozenset(out)


# -- eventually periodic sequences ------------------------------------------


class Periodic:
    """The sequence x0, step(x0), step(step(x0)), ... of hashable terms.

    Terms are computed only up to the highest index asked for.  At the
    first repeat x_j == x_lam the shape (lam, pi = j - lam) is recorded,
    after which term k >= lam is term lam + (k - lam) mod pi, so any
    index costs no more than the first repeat.  Storing more than
    ``limit`` distinct terms raises ResourceLimitExceeded.
    """

    def __init__(self, first, step, limit: int, what: str) -> None:
        self._terms = [first]
        self._index = {first: 0}
        self._step = step
        self._limit = limit
        self._what = what
        self._shape: tuple[int, int] | None = None

    def __getitem__(self, k: int):
        terms = self._terms
        while k >= len(terms) and self._shape is None:
            nxt = self._step(terms[-1])
            seen = self._index.get(nxt)
            if seen is not None:
                self._shape = (seen, len(terms) - seen)
                break
            self._index[nxt] = len(terms)
            terms.append(nxt)
            if len(terms) > self._limit:
                raise ResourceLimitExceeded(
                    f"{self._what} exceeded {self._limit} without repeating"
                )
        if k < len(terms):
            return terms[k]
        lam, pi = self._shape
        return terms[lam + (k - lam) % pi]

    def shape(self) -> tuple[int, int]:
        """(lam, pi) of the first repeat, extending the sequence to it."""
        while self._shape is None:
            self[len(self._terms)]
        return self._shape

    def position(self, x) -> int | None:
        """Index of x among the terms computed so far, or None."""
        return self._index.get(x)


def _power_sequence(rel: Relation) -> Periodic:
    """rel^1, rel^2, ...: term c - 1 is rel^c."""
    return Periodic(rel, lambda x: compose(x, rel), MAX_POWER_STEPS, "relation powers")


def profile(aut: OrdinalAutomaton, sym: Symbol, k: int) -> frozenset:
    """Profile triples of sigma^(w^k).

    Levels are computed incrementally per (automaton, symbol) and the
    sequence of levels is eventually periodic, so large k costs no more
    than the first repeat.
    """
    if k < 0:
        raise ValueError("profile level must be >= 0")
    levels = aut._memo.get(("profile", sym))
    if levels is None:
        first = frozenset(
            Profile(q, frozenset({q}), p)
            for q in aut.states
            for p in aut.step(q, sym)
        )
        # The step holds the limit table, not the automaton: a memo entry
        # that referred back to its automaton would keep it alive until a
        # cycle collection.
        limit = aut.limit
        levels = Periodic(first, lambda prev: _next_profile(limit, prev),
                          MAX_PROFILE_LEVELS, "profile levels")
        aut._memo[("profile", sym)] = levels
    return levels[k]


def _powers(aut: OrdinalAutomaton, sym: Symbol, k: int) -> Periodic:
    """Powers of the endpoint relation of sigma^(w^k), kept per automaton."""
    powers = aut._memo.get(("powers", sym, k))
    if powers is None:
        rel = frozenset((t.start, t.end) for t in profile(aut, sym, k))
        powers = _power_sequence(rel)
        aut._memo[("powers", sym, k)] = powers
    return powers


def reach_power(aut: OrdinalAutomaton, sym: Symbol, k: int) -> Relation:
    """Endpoint relation of sigma^(w^k)."""
    return _powers(aut, sym, k)[0]


def relation_power(rel: Relation, c: int) -> Relation:
    """rel^c for c >= 1, computed afresh (nothing is kept)."""
    if c < 1:
        raise ValueError("relation_power needs c >= 1")
    return _power_sequence(rel)[c - 1]


def power_cycle(aut: OrdinalAutomaton, sym: Symbol, k: int) -> tuple[int, int]:
    """First-repeat shape (lam, pi) of the powers of reach_power(aut, sym, k):
    rel^c = rel^(lam + (c - lam) mod pi) for c >= lam.

    Exponent 0 (the identity) participates: a relation whose powers
    return to the identity is purely periodic and reports lam = 0.
    """
    powers = _powers(aut, sym, k)
    lam, pi = powers.shape()
    at = powers.position(identity_relation(aut.states))
    if at is not None:
        return 0, at + 1
    return lam + 1, pi


# -- reachability across ordinal-length constant stretches ------------------


def const_reach(aut: OrdinalAutomaton, sym: Symbol, gap: Ordinal) -> Relation:
    """Endpoint relation of the constant word sigma^gap.

    Composes the per-exponent relations highest term first, mirroring
    left-to-right reading order of the Cantor normal form.
    """
    rel = identity_relation(aut.states)
    for k in range(gap.degree, -1, -1):
        c = gap.coefficient(k)
        if c == 0:
            continue
        rel = compose(rel, _powers(aut, sym, k)[c - 1])
    return rel


def run_relation(aut: OrdinalAutomaton, w: AlphaWord) -> Relation:
    """Pairs (q, p) joined by a run over the whole word.

    The word splits at its support into blank stretches and single
    letters; every limit position falls inside one of the stretches,
    so composing the pieces loses nothing.
    """
    if w.alphabet != aut.alphabet:
        raise ValueError("run_relation: alphabet mismatch")
    blank = aut.alphabet.blank
    rel = identity_relation(aut.states)
    cursor = ZERO
    for pos, sym in w.entries:
        gap = interval_type(cursor, pos)
        if not gap.is_zero:
            rel = compose(rel, const_reach(aut, blank, gap))
        rel = compose(rel, reach_power(aut, sym, 0))
        cursor = add(pos, ONE)
    tail = interval_type(cursor, w.length)
    if not tail.is_zero:
        rel = compose(rel, const_reach(aut, blank, tail))
    return rel


def member(aut: OrdinalAutomaton, w: AlphaWord) -> bool:
    """Does the automaton accept the word?"""
    if w.length.is_zero:
        return bool(aut.initial & aut.final)
    rel = run_relation(aut, w)
    return any(q in aut.initial and p in aut.final for q, p in rel)


def saturation_holds(aut: OrdinalAutomaton, sym: Symbol, m: int, c) -> bool:
    """Whether sigma^(w^m) and sigma^(w^m * c) induce the same relation.

    ``c`` is a positive int, or the string "omega" for comparison
    against sigma^(w^(m+1)).  True for every c once m reaches the
    number of states.
    """
    base = const_reach(aut, sym, omega_power(m))
    if c == "omega":
        other = const_reach(aut, sym, omega_power(m + 1))
    else:
        other = const_reach(aut, sym, omega_power(m, c))
    return base == other

