"""Run analysis: who can reach whom across transfinite stretches.

A *relation* is a tuple of row bitmasks over the automaton's states,
numbered 0..n-1 in ``sorted(states, key=repr)`` order: bit p of row q
is set when some run leads from q to p.  Composition ORs rows
(bit-parallel boolean matrix product), and a one-row relation is a
set of states pushed forward through the word.  Each automaton is
compiled once into this form: one relation per symbol for successor
steps, and a limit table keyed by the mask of the cofinally visited
states.

The core object is the *profile* of a symbol power sigma^(w^k): the set
of triples (q, A, p) such that some run starting in q ends in p after
w^k copies of sigma, visiting exactly the states A along the way
(start included, end excluded; A is a mask).  Level 0 is the one-step
relation; level k+1 arises from lassos over level-k triples: a finite
approach path followed by a cycle whose visited sets unite to exactly
the left set of some limit transition.

Visited sets are what make levels composable; most callers only need
the endpoint *relation*, and relations over finite state sets have
eventually periodic power sequences, which is what makes reachability
across arbitrary ordinal gaps a finite computation.

Both sequences -- profile levels as k grows, relation powers as c
grows -- are served by one lazily extended :class:`Periodic`.  The
compiled form and the sequences for an automaton are kept in that
automaton's private memo, so they are computed once per machine and
freed with it; this module holds no mutable state of its own.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, NamedTuple

from .automata import OrdinalAutomaton
from .ordinals import Ordinal, omega_power
from .words import AlphaWord, Symbol, WordError, gaps

Relation = tuple  # of int rows: bit p of row q is set when q reaches p


class ResourceLimitExceeded(RuntimeError):
    """An analysis outgrew its configured budget; results would be partial."""


MAX_PATH_UNION_PAIRS = 1 << 18
MAX_PROFILE_LEVELS = 512
MAX_POWER_STEPS = 1 << 14


class Profile(NamedTuple):
    start: int
    visited: int
    end: int


# -- relation algebra ------------------------------------------------------


def bits(mask: int) -> Iterator[int]:
    """The states in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(states: int, rel: Relation) -> int:
    """The states ``rel`` reaches from the set ``states``."""
    out = 0
    while states:
        low = states & -states
        out |= rel[low.bit_length() - 1]
        states ^= low
    return out


def identity_relation(n: int) -> Relation:
    return tuple(1 << q for q in range(n))


def compose(first: Relation, second: Relation) -> Relation:
    return tuple(image(row, second) for row in first)


class Compiled(NamedTuple):
    """An automaton over its numbered states."""

    rows: dict  # symbol -> relation of one successor step
    limit: dict  # mask of the cofinally visited states -> mask of targets
    initial: int
    final: int


def compiled(aut: OrdinalAutomaton) -> Compiled:
    """The automaton's tables as masks, built once per automaton."""
    comp = aut._memo.get("compiled")
    if comp is None:
        bit = {q: 1 << i for i, q in enumerate(sorted(aut.states, key=repr))}

        def mask(states) -> int:
            return sum(bit[q] for q in states)

        rows = {s: tuple(mask(aut.step(q, s)) for q in bit) for s in aut.alphabet.symbols}
        limit = {mask(left): mask(targets) for left, targets in aut.limit.items()}
        comp = Compiled(rows, limit, mask(aut.initial), mask(aut.final))
        aut._memo["compiled"] = comp
    return comp


# -- profile levels ----------------------------------------------------------


def _cycle_anchors(triples: frozenset, left: int, n: int) -> int:
    """States admitting a nonempty cycle of triples with visited sets
    inside ``left`` whose union is exactly ``left``.

    A closed walk never leaves its strongly connected component, and
    within one component a closed walk through any vertex can traverse
    every internal edge; so the reachable unions at u are exactly the
    subsets between a single edge label and the whole component's
    label union.
    """
    sub = [t for t in triples if t.visited | left == left]
    reach = [0] * n
    for t in sub:
        reach[t.start] |= 1 << t.end
    for k in range(n):  # Warshall: row i becomes every state i reaches
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    anchors = 0
    for u in range(n):
        comp = sum(1 << v for v in bits(reach[u]) if reach[v] >> u & 1)
        union = 0
        for t in sub:
            if comp >> t.start & 1 and comp >> t.end & 1:
                union |= t.visited
        if comp and union == left:
            anchors |= 1 << u
    return anchors


def _path_unions(triples: frozenset, targets: int) -> set:
    """All (q, U): a (possibly empty) chain of triples from q to one of
    ``targets`` with visited-union U.  Backward search over (state,
    union) pairs."""
    incoming: dict = {}
    for t in triples:
        incoming.setdefault(t.end, []).append(t)
    seen = {(u, 0) for u in bits(targets)}
    queue: deque = deque(seen)
    while queue:
        x, acc = queue.popleft()
        for t in incoming.get(x, ()):
            item = (t.start, acc | t.visited)
            if item not in seen:
                seen.add(item)
                if len(seen) > MAX_PATH_UNION_PAIRS:
                    raise ResourceLimitExceeded(
                        f"path-union search exceeded {MAX_PATH_UNION_PAIRS} "
                        "(state, union) pairs (MAX_PATH_UNION_PAIRS)"
                    )
                queue.append(item)
    return seen


def _next_profile(limit: dict, prev: frozenset, n: int) -> frozenset:
    out: set = set()
    for left, targets in limit.items():
        anchors = _cycle_anchors(prev, left, n)
        if anchors:
            for q, acc in _path_unions(prev, anchors):
                out.update(Profile(q, acc | left, p) for p in bits(targets))
    return frozenset(out)


# -- eventually periodic sequences ------------------------------------------


class Periodic:
    """The sequence x0, step(x0), step(step(x0)), ... of hashable terms.

    Terms are computed only up to the highest index asked for.  At the
    first repeat x_j == x_lam the shape (lam, pi = j - lam) is recorded,
    after which term k >= lam is term lam + (k - lam) mod pi, so any
    index costs no more than the first repeat.  Storing more than
    ``limit`` distinct terms raises ResourceLimitExceeded naming ``budget``.
    """

    def __init__(self, first, step, limit: int, what: str, budget: str) -> None:
        self._terms = [first]
        self._index = {first: 0}
        self._step = step
        self._limit = limit
        self._over = f"{what} exceeded {limit} without repeating ({budget})"
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
                raise ResourceLimitExceeded(self._over)
        if k < len(terms):
            return terms[k]
        lam, pi = self._shape
        return terms[lam + (k - lam) % pi]

    def shape(self) -> tuple[int, int]:
        """(lam, pi) of the first repeat, extending the sequence to it."""
        while self._shape is None:
            self[len(self._terms)]
        return self._shape


def _power_sequence(rel: Relation) -> Periodic:
    """rel^0, rel^1, ...: term c is rel^c, starting at the identity."""
    return Periodic(identity_relation(len(rel)), lambda x: compose(x, rel),
                    MAX_POWER_STEPS, "relation powers", "MAX_POWER_STEPS")


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
        comp = compiled(aut)
        first = frozenset(
            Profile(q, 1 << q, p)
            for q, row in enumerate(comp.rows[sym])
            for p in bits(row)
        )
        # The step holds the limit table, not the automaton: a memo entry
        # that referred back to its automaton would keep it alive until a
        # cycle collection.
        limit, n = comp.limit, len(aut.states)
        levels = Periodic(first, lambda prev: _next_profile(limit, prev, n),
                          MAX_PROFILE_LEVELS, "profile levels", "MAX_PROFILE_LEVELS")
        aut._memo[("profile", sym)] = levels
    return levels[k]


def _powers(aut: OrdinalAutomaton, sym: Symbol, k: int) -> Periodic:
    """Powers of the endpoint relation of sigma^(w^k), kept per automaton."""
    powers = aut._memo.get(("powers", sym, k))
    if powers is None:
        rows = [0] * len(aut.states)
        for t in profile(aut, sym, k):
            rows[t.start] |= 1 << t.end
        powers = _power_sequence(tuple(rows))
        aut._memo[("powers", sym, k)] = powers
    return powers


def reach_power(aut: OrdinalAutomaton, sym: Symbol, k: int) -> Relation:
    """Endpoint relation of sigma^(w^k)."""
    return _powers(aut, sym, k)[1]


def relation_power(rel: Relation, c: int) -> Relation:
    """rel^c for c >= 1, computed afresh (nothing is kept)."""
    if c < 1:
        raise ValueError("relation_power needs c >= 1")
    return _power_sequence(rel)[c]


def power_cycle(aut: OrdinalAutomaton, sym: Symbol, k: int) -> tuple[int, int]:
    """First-repeat shape (lam, pi) of the powers of reach_power(aut, sym, k):
    rel^c = rel^(lam + (c - lam) mod pi) for c >= lam.

    Exponent 0 (the identity) participates: a relation whose powers
    return to the identity is purely periodic and reports lam = 0.
    """
    return _powers(aut, sym, k).shape()


def blank_shape(auts: Iterable[OrdinalAutomaton], k: int) -> tuple[int, int]:
    """(max lam, lcm pi) of the blank power cycles of ``auts`` at exponent
    k: the first-repeat shape of their blank-stretch relations read
    together, as of their synchronized product (never built)."""
    shapes = [power_cycle(aut, aut.alphabet.blank, k) for aut in auts]
    return max((s[0] for s in shapes), default=0), math.lcm(*(s[1] for s in shapes))


# -- reachability across ordinal-length constant stretches ------------------


def _stretch(aut: OrdinalAutomaton, sym: Symbol, gap: Ordinal, rel: Relation) -> Relation:
    """``rel`` followed by the constant word sigma^gap.

    Composes the per-exponent relations highest term first, mirroring
    left-to-right reading order of the Cantor normal form.
    """
    for k in range(gap.degree, -1, -1):
        c = gap.coefficient(k)
        if c:
            rel = compose(rel, _powers(aut, sym, k)[c])
    return rel


def const_reach(aut: OrdinalAutomaton, sym: Symbol, gap: Ordinal) -> Relation:
    """Endpoint relation of the constant word sigma^gap."""
    return _stretch(aut, sym, gap, identity_relation(len(aut.states)))


def _walk(aut: OrdinalAutomaton, w: AlphaWord, rel: Relation) -> Relation:
    """``rel`` followed by a run over the whole word.

    The word splits at its support into blank stretches and single
    letters; every limit position falls inside one of the stretches,
    so composing the pieces loses nothing.
    """
    if w.alphabet != aut.alphabet:
        raise WordError("run_relation: alphabet mismatch")
    blank = aut.alphabet.blank
    rows = compiled(aut).rows
    stretches = gaps(w)
    for (_, sym), gap in zip(w.entries, stretches):
        rel = compose(_stretch(aut, blank, gap, rel), rows[sym])
    return _stretch(aut, blank, stretches[-1], rel)


def run_relation(aut: OrdinalAutomaton, w: AlphaWord) -> Relation:
    """The relation of runs over the whole word."""
    return _walk(aut, w, identity_relation(len(aut.states)))


def accepts(aut: OrdinalAutomaton, rel: Relation) -> bool:
    """Does the one-row relation ``rel``, a set of states pushed forward
    from the initial ones, hold a final state?"""
    return bool(rel[0] & compiled(aut).final)


def member(aut: OrdinalAutomaton, w: AlphaWord) -> bool:
    """Does the automaton accept the word?"""
    return accepts(aut, _walk(aut, w, (compiled(aut).initial,)))


def saturation_holds(aut: OrdinalAutomaton, sym: Symbol, m: int, c) -> bool:
    """Whether sigma^(w^m) and sigma^(w^m * c) induce the same relation.

    ``c`` is a positive int, or the string "omega" for comparison
    against sigma^(w^(m+1)).  True for every c once m reaches the
    number of states.
    """
    other = omega_power(m + 1) if c == "omega" else omega_power(m, c)
    return const_reach(aut, sym, omega_power(m)) == const_reach(aut, sym, other)

