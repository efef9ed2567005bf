"""Finite encodings of transfinite words, and a classical NFA layer.

A word of ordinal length with finite support is determined by its
letters and the order types of the blank stretches between them
(:func:`~ordinalia.words.gaps`).  Once the gap ordinals are bucketed into
finitely many classes that every working automaton is blind to, the
word's *shadow* (gap classes alternating with letters) is a plain finite
word, so all of classical automata theory applies: products, subset
construction, complement, projection, emptiness with witnesses.

The bucketing is a :class:`CapPolicy`: per ω-exponent, coefficients are
kept exact below a threshold and wrap with a period above it.  The
thresholds sit strictly above the coefficients of the ambient length
``alpha``, which makes "these gaps sum to exactly alpha" a finite-state
property — the key trick behind the whole layer.  It also means every
member of a class compares with alpha alike, so the gap NFAs read only
the classes at most alpha: no gap of a word of length alpha lies in
the others.  Complements are minimal DFAs.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .automata import OrdinalAutomaton, track_layout
from .ordinals import ONE, Ordinal
from .semantics import (
    ResourceLimitExceeded,
    bits,
    blank_shape,
    compiled,
    compose,
    const_reach,
    identity_relation,
    image,
)
from .words import (
    Alphabet,
    AlphaWord,
    Symbol,
    WordError,
    from_gaps,
    gaps,
    product_alphabet,
)

MAX_DFA_STATES = 1 << 16
MAX_MERGE_PAIRS = 1 << 18
MAX_ABSTRACT_SYMBOLS = 1 << 16


class GapError(ValueError):
    pass


# -- cap policies ------------------------------------------------------------


@dataclass(frozen=True)
class CapPolicy:
    """Saturating per-exponent coefficient arithmetic below ``alpha``.

    Coefficient c at exponent j maps to itself below ``thresholds[j]``
    and to ``thresholds[j] + (c - thresholds[j]) % periods[j]`` above.
    Thresholds exceed the corresponding coefficient of ``alpha``, so
    alpha's own class is a singleton; classes otherwise merge exactly
    the gaps that no automaton in the working set can tell apart.
    """

    alpha: Ordinal
    thresholds: tuple[int, ...]
    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.alpha.degree + 1
        if len(self.thresholds) != n or len(self.periods) != n:
            raise GapError(f"need thresholds/periods for exponents 0..{n - 1}")
        for j in range(n):
            if self.periods[j] < 1:
                raise GapError("periods must be >= 1")
            if self.thresholds[j] <= self.alpha.coefficient(j):
                raise GapError(
                    "threshold at exponent "
                    f"{j} must exceed alpha's coefficient {self.alpha.coefficient(j)}"
                )

    def cap(self, j: int, c: int) -> int:
        lam, pi = self.thresholds[j], self.periods[j]
        return c if c < lam else lam + (c - lam) % pi

    def class_of(self, g: Ordinal) -> tuple[int, ...]:
        if g > self.alpha:
            raise GapError(f"gap {g} exceeds alpha {self.alpha}")
        return tuple(self.cap(j, g.coefficient(j)) for j in range(len(self.thresholds)))

    def representative(self, cls: Sequence[int]) -> Ordinal:
        """Smallest ordinal in the class (classes are coordinatewise boxes)."""
        return Ordinal(tuple(cls))

    def add_classes(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        """Class of xi + eta for any xi in class x, eta in class y.

        Ordinal addition keeps the right summand's low terms, adds at
        its top exponent, and keeps the left summand's higher terms;
        capping is a congruence for + at each exponent, so the class
        of the sum only depends on the classes.
        """
        e = -1
        for j in range(len(y) - 1, -1, -1):
            if y[j]:
                e = j
                break
        if e < 0:
            return tuple(x)
        return tuple(y[:e]) + (self.cap(e, x[e] + y[e]),) + tuple(x[e + 1 :])

    @property
    def zero_class(self) -> tuple[int, ...]:
        return (0,) * len(self.thresholds)

    @property
    def one_class(self) -> tuple[int, ...]:
        return self.class_of(ONE)

    @property
    def alpha_class(self) -> tuple[int, ...]:
        return self.class_of(self.alpha)

    def all_classes(self) -> list[tuple[int, ...]]:
        """The classes whose representative is at most alpha, in
        lexicographic order.

        A threshold exceeds alpha's coefficient at its exponent, so a
        class either fixes the coefficient there or puts it above
        alpha's, and all its members compare with alpha alike.  A class
        below alpha agrees with alpha above some exponent j, is smaller
        at j, and is anything below j.
        """
        top = self.alpha_class
        ranges = [range(l + p) for l, p in zip(self.thresholds, self.periods)]
        found = [top]
        for j, a in enumerate(top):
            found.extend(low + (c,) + top[j + 1 :]
                         for low in itertools.product(*ranges[:j]) for c in range(a))
        return sorted(found)

    def class_count(self) -> int:
        """``len(all_classes())``: 1 + Σ_j alpha_j · Π_{i<j} (λ_i + π_i)."""
        count, box = 1, 1
        for a, l, p in zip(self.alpha_class, self.thresholds, self.periods):
            count += a * box
            box *= l + p
        return count


def cap_policy(working: Iterable[OrdinalAutomaton], alpha: Ordinal) -> CapPolicy:
    """Coarsest sound policy for a working set of automata at length alpha.

    Per exponent j the blank-stretch relation Reach(blank^(w^j)) of the
    synchronized product has eventually periodic powers; its threshold
    and period are the max/lcm of the per-automaton ones, which is what
    gets computed (the product itself is never built).
    """
    auts = list(working)
    bases = {aut.alphabet.scalar for aut in auts}
    if len(bases) > 1:
        raise GapError("cap_policy: automata must share a base alphabet")
    shapes = [blank_shape(auts, j) for j in range(alpha.degree + 1)]
    lams = (max(lam, alpha.coefficient(j) + 1) for j, (lam, _) in enumerate(shapes))
    return CapPolicy(alpha, tuple(lams), tuple(pi for _, pi in shapes))


# -- abstract words and gap NFAs ---------------------------------------------
#
# Abstract symbols are ("gap", class-tuple) or ("let", symbol).  A
# valid abstract word alternates, starts and ends with a gap, and its
# capped total equals alpha's class.  No gap of a valid word lies in a
# class above alpha, so the gap symbols are the classes at most alpha
# (CapPolicy.all_classes).  Gap NFAs may also accept invalid
# words: the shape is checked only where a language is read
# (accepts_abstract, emptiness_witness).  That is sound because every
# construction commutes with intersecting the shape language.  Product,
# union and complement act on words symbol by symbol; the projection
# merges g, 1, g' into one gap, which keeps alternation and, because
# class addition is associative, the capped total.


@dataclass(frozen=True, eq=False)
class GapNFA:
    """Classical NFA over gap classes and non-blank letters.

    States are 0..size-1 and sets of states are bitmasks.  The keys of
    ``delta`` are the NFA's alphabet: the gap classes of the policy at
    most alpha, in ``all_classes()`` order, then the letters in
    ``letters()`` order.
    Each maps to a relation in the sense of :mod:`ordinalia.semantics`:
    a tuple of ``size`` rows, row q the mask of successors of q.  Its
    language is read through the shape: the words it stands for are the
    shape-valid words it accepts.
    """

    policy: CapPolicy
    alphabet: Alphabet
    size: int
    initial: int
    final: int
    delta: Mapping

    @property
    def states(self) -> range:
        return range(self.size)

    def step(self, states: int, gsym: tuple) -> int:
        """The states reached from the set ``states`` on one symbol."""
        return image(states, self.delta[gsym])


def abstract_word(w: AlphaWord, policy: CapPolicy) -> tuple:
    """The finite class-level shadow of a word: the classes of its gaps,
    with its letters in between."""
    classes = [("gap", policy.class_of(g)) for g in gaps(w)]
    letters = [("let", sym) for _, sym in w.entries]
    return tuple(itertools.chain(*zip(classes, letters), classes[-1:]))


def _shape(policy: CapPolicy):
    """The shape language as (start, accepting state, deterministic step).

    A shape state is (kind of symbol expected next, capped total so
    far); the total advances by gap classes and by the class of 1 per
    letter, and ``step`` returns None for a symbol of the wrong kind.
    Because alpha's class is a singleton under the policy, a word ends
    in the accepting state iff some (equivalently, every)
    concretization of its gaps sums to exactly alpha.
    """
    one = policy.one_class

    def step(state: tuple, gsym: tuple) -> tuple | None:
        kind, acc = state
        if gsym[0] != kind:
            return None
        if kind == "gap":
            return ("let", policy.add_classes(acc, gsym[1]))
        return ("gap", policy.add_classes(acc, one))

    return ("gap", policy.zero_class), ("let", policy.alpha_class), step


def accepts_abstract(nfa: GapNFA, gsyms: Sequence[tuple]) -> bool:
    """Is the abstract word shape-valid and accepted by ``nfa``?"""
    shape, accept, step = _shape(nfa.policy)
    cur = nfa.initial
    for gs in gsyms:
        shape = step(shape, gs)
        if shape is None or gs not in nfa.delta:
            return False
        cur = nfa.step(cur, gs)
        if not cur:
            return False
    return shape == accept and bool(cur & nfa.final)


def accepts_word(nfa: GapNFA, w: AlphaWord) -> bool:
    """Convenience: abstract acceptance of a concrete word."""
    return accepts_abstract(nfa, abstract_word(w, nfa.policy))


def _check_coverage(aut: OrdinalAutomaton, policy: CapPolicy) -> None:
    for j in range(policy.alpha.degree + 1):
        al, ap = blank_shape([aut], j)
        if al > policy.thresholds[j] or policy.periods[j] % ap != 0:
            raise GapError(
                f"cap policy too coarse for automaton at exponent {j}: "
                f"needs threshold >= {al} and period divisible by {ap}"
            )


def to_gap_nfa(aut: OrdinalAutomaton, policy: CapPolicy, arity: int | None = None,
               coords: Sequence[int] | None = None) -> GapNFA:
    """Factor an ordinal automaton, read on ``arity`` tracks of which
    ``coords`` feed it (by default its own), through gap classes.

    The result is the gap NFA of ``reindex(aut, arity, coords)``, built
    without that automaton: its states are those of ``aut``, numbered
    as :func:`~ordinalia.semantics.compiled` numbers them.  A gap class
    moves by the blank-stretch relation of its representative on
    ``aut`` itself (a wide blank feeds ``aut`` its blank), so every
    layout shares one run analysis, and a wide letter by the successor
    row of the symbol it feeds (:func:`~ordinalia.automata.track_layout`).
    Read through the shape, abstract acceptance is membership in the
    lifted automaton.  Every gap NFA's alphabet is made here, so its
    size is checked here, before the wide alphabet or any row is built.
    """
    ab = aut.alphabet
    arity = ab.tracks if arity is None else arity
    coords = range(ab.tracks) if coords is None else coords
    size = policy.class_count() + len(ab.scalar.symbols) ** arity - 1
    if size > MAX_ABSTRACT_SYMBOLS:
        raise ResourceLimitExceeded(
            f"abstract alphabet has {size} symbols, "
            f"over MAX_ABSTRACT_SYMBOLS = {MAX_ABSTRACT_SYMBOLS}"
        )
    wide, narrow = track_layout(ab, arity, coords)
    _check_coverage(aut, policy)
    comp = compiled(aut)
    delta = {
        ("gap", cls): const_reach(aut, ab.blank, policy.representative(cls))
        for cls in policy.all_classes()
    }
    delta.update((("let", s), comp.rows[narrow[s]]) for s in wide.letters())
    return GapNFA(policy, wide, len(aut.states), comp.initial, comp.final, delta)


# -- NFA algebra -------------------------------------------------------------


def _compatible(x: GapNFA, y: GapNFA, what: str) -> None:
    if x.policy != y.policy:
        raise GapError(f"{what}: cap policy mismatch")
    if x.alphabet != y.alphabet:
        raise GapError(f"{what}: alphabet mismatch")


def _bit(found: list, index: dict, key) -> int:
    """The bit of ``key``, numbering it next and appending it to
    ``found`` when it is new."""
    at = index.get(key)
    if at is None:
        at = index[key] = len(found)
        found.append(key)
    return 1 << at


def nfa_product(x: GapNFA, y: GapNFA) -> GapNFA:
    """Intersection; only pairs reachable from the initial set are built,
    numbered in the order they are found."""
    _compatible(x, y, "nfa_product")
    pairs: list = []
    index: dict = {}
    initial = 0
    for p in bits(x.initial):
        for q in bits(y.initial):
            initial |= _bit(pairs, index, (p, q))
    rows: dict = {gs: [] for gs in x.delta}
    for p, q in pairs:  # grows while it is read: a breadth-first search
        for gs, out in rows.items():
            row = 0
            us = y.delta[gs][q]
            if us:
                for t in bits(x.delta[gs][p]):
                    for u in bits(us):
                        row |= _bit(pairs, index, (t, u))
            out.append(row)
    final = sum(1 << at for at, (p, q) in enumerate(pairs)
                if x.final >> p & 1 and y.final >> q & 1)
    delta = {gs: tuple(out) for gs, out in rows.items()}
    return GapNFA(x.policy, x.alphabet, len(pairs), initial, final, delta)


def nfa_union(x: GapNFA, y: GapNFA) -> GapNFA:
    """Disjoint union: the states of ``y`` follow those of ``x``."""
    _compatible(x, y, "nfa_union")
    n = x.size
    delta = {
        gs: rows + tuple(row << n for row in y.delta[gs]) for gs, rows in x.delta.items()
    }
    return GapNFA(x.policy, x.alphabet, n + y.size, x.initial | y.initial << n,
                  x.final | y.final << n, delta)


def trim(nfa: GapNFA) -> GapNFA:
    """Drop states not on any initial-to-final path; the kept states are
    renumbered in order."""
    moves = [0] * nfa.size
    for rows in nfa.delta.values():
        for q, row in enumerate(rows):
            moves[q] |= row
    live = frontier = nfa.initial
    while frontier:
        frontier = image(frontier, moves) & ~live
        live |= frontier
    useful, grown = 0, nfa.final
    while grown != useful:
        useful = grown
        for q, row in enumerate(moves):
            if row & useful:
                grown |= 1 << q
    kept = list(bits(live & useful))
    # renaming is composition with the relation old state -> new state
    rename = [0] * nfa.size
    for new, old in enumerate(kept):
        rename[old] = 1 << new
    delta = {
        gs: tuple(image(rows[old], rename) for old in kept)
        for gs, rows in nfa.delta.items()
    }
    return GapNFA(nfa.policy, nfa.alphabet, len(kept), image(nfa.initial, rename),
                  image(nfa.final, rename), delta)


def determinize(nfa: GapNFA) -> GapNFA:
    """Total subset-construction DFA; each state is a subset of the NFA's
    states, numbered in the order found, so every row has one bit."""
    subsets = [nfa.initial]
    index = {nfa.initial: 0}
    rows: dict = {gs: [] for gs in nfa.delta}
    for cur in subsets:  # grows while it is read: a breadth-first search
        for gs, out in rows.items():
            out.append(_bit(subsets, index, nfa.step(cur, gs)))
            if len(subsets) > MAX_DFA_STATES:
                raise ResourceLimitExceeded(
                    f"determinization exceeded {MAX_DFA_STATES} states (MAX_DFA_STATES)"
                )
    final = sum(1 << at for at, subset in enumerate(subsets) if subset & nfa.final)
    delta = {gs: tuple(out) for gs, out in rows.items()}
    return GapNFA(nfa.policy, nfa.alphabet, len(subsets), 1, final, delta)


def _minimize(dfa: GapNFA) -> GapNFA:
    """The minimal DFA of a total DFA whose states are all reachable.

    Hopcroft's partition refinement (1971): a block is split by the
    states that some symbol takes into a splitter block, and of the two
    halves of a block not waiting to split others only the smaller one
    waits.  Blocks are numbered by their first state, so state 0 stays
    the initial state and the numbering is deterministic.
    """
    n = dfa.size
    succ = {gs: [row.bit_length() - 1 for row in rows] for gs, rows in dfa.delta.items()}
    pred = []  # per symbol: state -> the states it is the successor of
    for targets in succ.values():
        into: dict = {}
        for q, t in enumerate(targets):
            into.setdefault(t, []).append(q)
        pred.append(into)
    accepting = set(bits(dfa.final))
    blocks = [part for part in (accepting, set(range(n)) - accepting) if part]
    block_of = [0] * n
    for b, part in enumerate(blocks):
        for q in part:
            block_of[q] = b
    waiting = set(range(len(blocks)))
    while waiting:
        splitter = list(blocks[waiting.pop()])
        for into in pred:
            hit: dict = {}  # block -> its states taken into the splitter
            for t in splitter:
                for q in into.get(t, ()):
                    hit.setdefault(block_of[q], []).append(q)
            for b, moved in hit.items():
                if len(moved) == len(blocks[b]):
                    continue
                new = len(blocks)
                blocks[b].difference_update(moved)
                blocks.append(set(moved))
                for q in moved:
                    block_of[q] = new
                if b in waiting or len(moved) < len(blocks[b]):
                    waiting.add(new)
                else:
                    waiting.add(b)
    number: dict = {}  # block -> its number
    first = []  # the first state of each numbered block
    for q in range(n):
        if block_of[q] not in number:
            number[block_of[q]] = len(first)
            first.append(q)
    delta = {gs: tuple(1 << number[block_of[targets[q]]] for q in first)
             for gs, targets in succ.items()}
    final = sum(1 << b for b, q in enumerate(first) if dfa.final >> q & 1)
    return GapNFA(dfa.policy, dfa.alphabet, len(first), 1, final, delta)


def complement(nfa: GapNFA) -> GapNFA:
    """Words not accepted: the minimal DFA of ``nfa`` with its final
    states flipped, itself a minimal DFA.

    Read through the shape, this is the set of shape-valid words that
    ``nfa`` rejects.
    """
    dfa = _minimize(determinize(nfa))
    rejecting = ~dfa.final & (1 << dfa.size) - 1
    return GapNFA(dfa.policy, dfa.alphabet, dfa.size, dfa.initial, rejecting, dfa.delta)


def exists_project(nfa: GapNFA, coord: int) -> GapNFA:
    """Project away one track of a product-alphabet gap NFA.

    Letters project componentwise.  A letter whose projection is all
    blank used to occupy a position, so it dissolves into its
    neighboring gaps; the merge g (+1+g')* is carried out in capped
    class arithmetic by one search over (accumulated class, relation)
    pairs, where row q of the relation holds the states source q has
    reached with that class.  The merged classes are the gap symbols
    of ``nfa``, the classes at most alpha: the search drops a total
    above alpha and does not go on from it, since every longer merge
    is above alpha too, and for the same reason it queues g + 1 only
    when that class is at most alpha.
    """
    base = nfa.alphabet.scalar
    r = nfa.alphabet.tracks
    if r < 2:
        raise GapError("exists_project needs a product alphabet of arity >= 2")
    if not 0 <= coord < r:
        raise GapError(f"coordinate {coord} out of range for arity {r}")
    narrow = product_alphabet(base, r - 1) if r > 2 else base

    def proj(sym: tuple) -> Symbol:
        rest = sym[:coord] + sym[coord + 1 :]
        return rest if r > 2 else rest[0]

    policy = nfa.policy
    one = policy.one_class
    classes = [gs[1] for gs in nfa.delta if gs[0] == "gap"]
    n = nfa.size
    letters = {ps: [0] * n for ps in (narrow.blank, *narrow.letters())}
    for s in nfa.alphabet.letters():
        for q, row in enumerate(nfa.delta[("let", s)]):
            letters[proj(s)][q] |= row
    erase = letters.pop(narrow.blank)  # one letter whose projection is blank
    nothing = (0,) * n
    reached: dict = {}  # merged class -> relation
    pairs = [0] * n  # (state, class) pairs found, per source state
    queue: deque = deque([(policy.zero_class, identity_relation(n))])
    while queue:
        acc, before = queue.popleft()
        for cls in classes:
            total = policy.add_classes(acc, cls)
            if ("gap", total) not in nfa.delta:
                continue
            known = reached.get(total, nothing)
            after = compose(before, nfa.delta[("gap", cls)])
            fresh = tuple(row & ~old for row, old in zip(after, known))
            if not any(fresh):
                continue
            reached[total] = tuple(row | old for row, old in zip(fresh, known))
            for q, row in enumerate(fresh):
                pairs[q] += row.bit_count()
                if pairs[q] > MAX_MERGE_PAIRS:
                    raise ResourceLimitExceeded(
                        f"gap-merge search exceeded {MAX_MERGE_PAIRS} "
                        "(state, class) pairs (MAX_MERGE_PAIRS)"
                    )
            nxt = policy.add_classes(total, one)
            erased = compose(fresh, erase) if ("gap", nxt) in nfa.delta else nothing
            if any(erased):
                queue.append((nxt, erased))
    delta = {("gap", cls): reached.get(cls, nothing) for cls in classes}
    delta.update((("let", ps), tuple(rows)) for ps, rows in letters.items())
    return trim(GapNFA(policy, narrow, n, nfa.initial, nfa.final, delta))


def emptiness_witness(nfa: GapNFA) -> AlphaWord | None:
    """A word of length alpha whose shadow is the least accepted
    shape-valid abstract word, or None when there is none.

    Breadth-first over sets of (state, shape state) pairs that share
    one word, trying symbols in ``repr`` order; a pair joins only the
    first set that reaches it.  The sets leave the FIFO queue in
    length-lexicographic order of their words, so the first set that
    accepts holds the least accepted word and witnesses are
    deterministic.  Gaps take their minimal class representatives, and
    ``from_gaps`` re-checks that they sum to exactly alpha.
    """
    policy = nfa.policy
    start, accept, step = _shape(policy)
    syms = sorted(nfa.delta, key=repr)
    by_kind = {kind: [gs for gs in syms if gs[0] == kind] for kind in ("gap", "let")}
    seen = {start: nfa.initial}  # shape state -> NFA states met with it
    queue: deque = deque([(start, nfa.initial, ())])
    while queue:
        shape, states, word = queue.popleft()
        for gs in by_kind[shape[0]]:
            nxt = step(shape, gs)
            fresh = nfa.step(states, gs) & ~seen.get(nxt, 0)
            if not fresh:
                continue
            seen[nxt] = seen.get(nxt, 0) | fresh
            if nxt == accept and fresh & nfa.final:
                return _concretize(word + (gs,), nfa)
            queue.append((nxt, fresh, word + (gs,)))
    return None


def _concretize(gsyms: Sequence[tuple], nfa: GapNFA) -> AlphaWord:
    stretches = [nfa.policy.representative(gs[1]) for gs in gsyms[0::2]]
    letters = [gs[1] for gs in gsyms[1::2]]
    try:
        return from_gaps(nfa.policy.alpha, stretches, letters, nfa.alphabet)
    except WordError as exc:
        raise GapError(f"concretization failed, cap policy unsound: {exc}") from exc
