"""Shared fixtures: seeded randomness, generators, independent oracles.

The oracles here deliberately avoid the library's run-analysis code.
``classical_accepts`` is a textbook subset simulation over finite
words; ``omega_profiles_oracle`` re-derives the behavior of a constant
symbol block of length w from first principles (closed walks and
reachability in the one-symbol step graph).  Tests freeze library
behavior against these.
"""

from __future__ import annotations

import itertools
import random
import zlib

import pytest

from ordinalia.automata import make_automaton
from ordinalia.ordinals import from_int
from ordinalia.words import alphabet, make_word

AB = alphabet({"a", "b"})
A_ONLY = alphabet({"a"})


@pytest.fixture
def rng(request):
    """Deterministic per-test randomness: the seed is the test's name."""
    return random.Random(zlib.crc32(request.node.name.encode()))


# -- generators -----------------------------------------------------------


def random_automaton(rng, max_states=4, alpha_bet=AB, limit_density=0.5, min_states=1):
    n = rng.randint(min_states, max_states)
    states = [f"q{i}" for i in range(n)]
    succ = {}
    for q in states:
        for sym in sorted(alpha_bet.symbols, key=repr):
            k = rng.randint(0, n)
            if k:
                succ[(q, sym)] = set(rng.sample(states, k))
    limit = {}
    for size in range(1, n + 1):
        for left in itertools.combinations(states, size):
            if rng.random() < limit_density:
                k = rng.randint(1, n)
                limit[frozenset(left)] = set(rng.sample(states, k))
    final = set(rng.sample(states, rng.randint(0, n)))
    return make_automaton(
        states=states,
        alphabet=alpha_bet,
        initial=[states[0]],
        final=final,
        succ=succ,
        limit=limit,
    )


def random_finite_word(rng, alpha_bet, max_len=20, min_len=0):
    length = rng.randint(min_len, max_len)
    syms = [
        rng.choice(sorted(alpha_bet.symbols, key=repr)) for _ in range(length)
    ]
    return finite_word(syms, alpha_bet), syms


def finite_word(syms, alpha_bet=AB):
    entries = [
        (from_int(i), s) for i, s in enumerate(syms) if s != alpha_bet.blank
    ]
    return make_word(from_int(len(syms)), entries, alpha_bet)


# -- oracles ----------------------------------------------------------------


def classical_accepts(aut, syms) -> bool:
    """Plain NFA subset simulation over an explicit finite symbol list."""
    cur = set(aut.initial)
    for s in syms:
        cur = {t for q in cur for t in aut.step(q, s)}
        if not cur:
            return False
    return bool(cur & aut.final)


def classical_relation(aut, syms) -> frozenset:
    """All (start, end) state pairs over an explicit finite symbol list."""
    out = set()
    for q0 in aut.states:
        cur = {q0}
        for s in syms:
            cur = {t for q in cur for t in aut.step(q, s)}
        out.update((q0, t) for t in cur)
    return frozenset(out)


def _closed_walk_sets(aut, sym):
    """Vertex sets of closed walks in the one-symbol step graph: the
    candidate cofinally-visited sets of an infinite constant run."""
    states = sorted(aut.states, key=repr)
    edges = {(q, t) for q in states for t in aut.step(q, sym)}
    out = []
    for size in range(1, len(states) + 1):
        for combo in itertools.combinations(states, size):
            vs = set(combo)
            inner = {(q, t) for q, t in edges if q in vs and t in vs}
            if not inner:
                continue
            if all(_walk_reach(inner, a, b) for a in vs for b in vs):
                out.append(frozenset(vs))
    return out


def _walk_reach(edges, a, b) -> bool:
    seen = set()
    frontier = {t for q, t in edges if q == a}
    while frontier:
        cur = frontier.pop()
        if cur == b:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        frontier.update(t for q, t in edges if q == cur)
    return False


def omega_profiles_oracle(aut, sym) -> frozenset:
    """All (start, visited, end) behaviors of the block sym^w, from
    scratch: wander from the start, settle into a closed walk whose
    vertex set is the exact cofinal set, fire its limit transition."""
    pairs = {}
    for q0 in sorted(aut.states, key=repr):
        reach = {(q0, frozenset())}
        frontier = [(q0, frozenset())]
        while frontier:
            q, acc = frontier.pop()
            for t in aut.step(q, sym):
                nxt = (t, acc | {q})
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        pairs[q0] = reach
    out = set()
    for cofinal in _closed_walk_sets(aut, sym):
        targets = aut.limit.get(cofinal, frozenset())
        if not targets:
            continue
        for q0, reach in pairs.items():
            for u, acc in reach:
                if u in cofinal:
                    for p in targets:
                        out.add((q0, acc | cofinal, p))
    return frozenset(out)


def omega_word_accepts_oracle(aut, syms) -> bool:
    """Membership for a length-w word given as a finite symbol list
    followed by blanks, built from the two oracles above."""
    cur = set(aut.initial)
    for s in syms:
        cur = {t for q in cur for t in aut.step(q, s)}
    profs = omega_profiles_oracle(aut, aut.alphabet.blank)
    return any(q0 in cur and p in aut.final for q0, _, p in profs)
