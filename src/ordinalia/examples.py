"""Worked fixtures: orders, a self-similar word family, base-2 arithmetic,
and the growth probes.

Four groups of building blocks live here.

* Generic comparison relations usable in any presentation: letterwise
  well-order on finite-support words (largest differing position
  decides, blank smallest) and support containment.

* A family of words of length omega-squared with triangular support —
  block n1, offset n2, n1 + n2 <= n — together with the two tagged
  generator maps that build stage n+1 words out of pairs of stage-n
  words.  The family doubles in "distinguishable elements per
  parameter" faster than any linear function, which is what the growth
  probes measure.

* A small Presburger presentation (naturals with addition, base 2,
  least significant digit first) plus a battery of sentences with
  known truth values, used to exercise the decision pipeline.

* The growth probes: distinguishable-element counts for the triangular
  family, the bit graph and affine maps over carry-less polynomials.
  Each outgrows every linear bound in the number of parameters, which
  no automaton-presented family does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .automata import OrdinalAutomaton, make_automaton, reindex
from .growth import GrowthError, RelationFamily, signature
from .logic import Presentation
from .ordinals import ONE, OMEGA, ZERO, Ordinal, add, interval_type, omega_power
from .semantics import (
    ResourceLimitExceeded,
    accepts,
    compose,
    compiled,
    const_reach,
    member,
)
from .words import (
    Alphabet,
    AlphaWord,
    Symbol,
    WordError,
    alphabet,
    blank_word,
    convolve,
    make_word,
    product_alphabet,
    symbol_rank,
)

AB = alphabet({"a", "b"})


# -- comparison relations ----------------------------------------------------


def wellorder_automaton(base: Alphabet) -> OrdinalAutomaton:
    """Binary relation x <= y in the largest-differing-position order.

    The verdict-so-far is a state; later differences overwrite earlier
    ones.  Finite supports make the verdict eventually constant below
    every limit, so only singleton limit sets occur.
    """
    pair = product_alphabet(base, 2)
    rank = symbol_rank(base)
    states = {"EQ", "LT", "GT"}
    succ: dict = {}
    for s, t in itertools.product(sorted(base.symbols, key=repr), repeat=2):
        if s == t:
            for q in states:
                succ[(q, (s, t))] = frozenset({q})
        else:
            verdict = "LT" if rank[s] < rank[t] else "GT"
            for q in states:
                succ[(q, (s, t))] = frozenset({verdict})
    limit = {frozenset({q}): frozenset({q}) for q in states}
    return make_automaton(states, pair, {"EQ"}, {"EQ", "LT"}, succ, limit)


def subsupp_automaton(base: Alphabet) -> OrdinalAutomaton:
    """Binary relation supp(x) is contained in supp(y)."""
    pair = product_alphabet(base, 2)
    succ = {
        ("ok", (s, t)): frozenset({"ok"})
        for s, t in itertools.product(sorted(base.symbols, key=repr), repeat=2)
        if not (s != base.blank and t == base.blank)
    }
    limit = {frozenset({"ok"}): frozenset({"ok"})}
    return make_automaton({"ok"}, pair, {"ok"}, {"ok"}, succ, limit)


# -- the triangular family at length omega^2 ---------------------------------

W2 = omega_power(2)


def dn_set(n: int) -> frozenset:
    """Positions w*n1 + n2 with n1 + n2 <= n (the stage-n support)."""
    if n < 0:
        raise ValueError("stage must be >= 0")
    return frozenset(
        Ordinal((n2, n1))
        for n1 in range(n + 1)
        for n2 in range(n + 1 - n1)
    )


def tn_words(n: int) -> Iterator[AlphaWord]:
    """All words of length w^2 with support exactly stage n, letters a/b."""
    positions = sorted(dn_set(n))
    for letters in itertools.product("ab", repeat=len(positions)):
        yield make_word(W2, zip(positions, letters), AB)


def tn_automaton(n: int) -> OrdinalAutomaton:
    """Accepts exactly the stage-n words (support equal to dn_set(n)).

    States (j, i) track block index and offset, both capped at n+1:
    a letter is required while j + i <= n, blank required outside.
    Block tails idle in (j, n+1), whose singleton limit starts the
    next block; blocks beyond n+1 idle in states that the final limit
    jump recognizes as the everything-blank tail.
    """
    cap = n + 1
    states = {(j, i) for j in range(cap + 1) for i in range(cap + 1)} | {"acc"}
    succ: dict = {}
    for j in range(cap + 1):
        for i in range(cap + 1):
            nxt = frozenset({(j, min(i + 1, cap))})
            if j + i <= n:
                succ[((j, i), "a")] = nxt
                succ[((j, i), "b")] = nxt
            else:
                succ[((j, i), "_")] = nxt
    limit: dict = {
        frozenset({(j, cap)}): frozenset({(min(j + 1, cap), 0)})
        for j in range(cap + 1)
    }
    limit[frozenset({(cap, i) for i in range(cap + 1)})] = frozenset({"acc"})
    return make_automaton(states, AB, {(0, 0)}, {"acc"}, succ, limit)


def f_apply(tag: Symbol, w: AlphaWord, v: AlphaWord) -> AlphaWord:
    """The tagged generator: stamp the tag at 0, shift w up by one
    within each block, and lift v's block-start letters to the next
    block's limit position."""
    if tag not in ("a", "b"):
        raise WordError(f"tag must be a letter, got {tag!r}")
    if w.length != W2 or v.length != W2:
        raise WordError("generator arguments must have length w^2")
    entries: list[tuple[Ordinal, Symbol]] = [(ZERO, tag)]
    for pos, s in w.entries:
        entries.append((add(pos, ONE), s))
    for pos, s in v.entries:
        if pos.coefficient(0) == 0:
            entries.append((add(pos, OMEGA), s))
    return make_word(W2, entries, AB)


def f_automaton(tag: Symbol) -> OrdinalAutomaton:
    """Graph of the tagged generator, tracks ordered (w, v, u).

    Within a block the w-letter is delayed one step before being
    matched against u; the v-letter seen at a block start is carried
    to be matched against u at the next limit.  State layout:

    * "init" — before position 0, where u must show the tag;
    * (d, c) — u must show d now; c is owed at the next limit;
    * ("lim", c) — at a limit position, where u must show c;
    * "acc" — after the final limit jump.
    """
    if tag not in ("a", "b"):
        raise WordError(f"tag must be a letter, got {tag!r}")
    triple = product_alphabet(AB, 3)
    syms = sorted(AB.symbols, key=repr)
    states: set = {"init", "acc"}
    states |= {(d, c) for d in syms for c in syms}
    states |= {("lim", c) for c in syms}
    succ: dict = {}
    for wx, vx, ux in itertools.product(syms, repeat=3):
        sym = (wx, vx, ux)
        if ux == tag:
            succ[("init", sym)] = frozenset({(wx, vx)})
        for d in syms:
            for c in syms:
                if ux == d:
                    succ.setdefault(((d, c), sym), frozenset())
                    succ[((d, c), sym)] |= {(wx, c)}
            if ux == d:  # d doubles as the carried letter at limits
                succ.setdefault((("lim", d), sym), frozenset())
                succ[(("lim", d), sym)] |= {(wx, vx)}
    blank = AB.blank
    limit: dict = {
        frozenset({(blank, c)}): frozenset({("lim", c)}) for c in syms
    }
    limit[frozenset({("lim", blank), (blank, blank)})] = frozenset({"acc"})
    return make_automaton(states, triple, {"init"}, {"acc"}, succ, limit)


def generator_relations() -> list[OrdinalAutomaton]:
    """Both generator graphs with the produced word as first track (u, w, v)."""
    return [reindex(f_automaton(tag), 3, (1, 2, 0)) for tag in ("a", "b")]


def accepted_count(
    aut: OrdinalAutomaton,
    length: Ordinal,
    positions: Sequence[Ordinal],
    letters: Sequence[Symbol],
) -> int:
    """How many words with support inside ``positions`` are accepted.

    Every position independently carries one of ``letters`` or blank.
    Counting walks the choice tree depth-first, reusing the set of
    states reached on the shared prefix, so the cost per leaf is one
    relation composition instead of a full membership check.
    """
    positions = sorted(positions)
    blank = aut.alphabet.blank
    comp = compiled(aut)

    def walk(k: int, cursor: Ordinal, rel) -> int:
        if k == len(positions):
            tail = const_reach(aut, blank, interval_type(cursor, length))
            return 1 if accepts(aut, compose(rel, tail)) else 0
        pos = positions[k]
        at_pos = compose(rel, const_reach(aut, blank, interval_type(cursor, pos)))
        count = walk(k + 1, cursor, rel)  # leave this position blank
        nxt = add(pos, ONE)
        for s in letters:
            count += walk(k + 1, nxt, compose(at_pos, comp.rows[s]))
        return count

    return walk(0, ZERO, (comp.initial,))


# -- Presburger arithmetic (naturals, base 2, LSB first) ----------------------

BITS = alphabet({"0", "1"})


def presburger_domain() -> OrdinalAutomaton:
    """Canonical encodings: a solid digit block whose top digit is 1,
    then blanks (zero is the all-blank word)."""
    succ = {
        ("start", "0"): {"d0"},
        ("start", "1"): {"d1"},
        ("start", "_"): {"tail"},
        ("d0", "0"): {"d0"},
        ("d0", "1"): {"d1"},
        ("d1", "0"): {"d0"},
        ("d1", "1"): {"d1"},
        ("d1", "_"): {"tail"},
        ("tail", "_"): {"tail"},
    }
    limit = {frozenset({"tail"}): frozenset({"tail"})}
    return make_automaton(
        {"start", "d0", "d1", "tail"}, BITS, {"start"}, {"tail"}, succ, limit
    )


def presburger_plus() -> OrdinalAutomaton:
    """Addition x + y = z, digitwise with carry; blank counts as digit 0.

    Accepts some non-canonical digit patterns too (holes read as 0);
    the decision pipeline relativizes every variable to the domain
    language, which restores the intended model.
    """
    triple = product_alphabet(BITS, 3)

    def bit(s: Symbol) -> int:
        return 1 if s == "1" else 0

    succ: dict = {}
    for carry in (0, 1):
        for dx, dy, dz in itertools.product(sorted(BITS.symbols, key=repr), repeat=3):
            total = bit(dx) + bit(dy) + carry
            if bit(dz) == total % 2:
                succ[(f"c{carry}", (dx, dy, dz))] = frozenset({f"c{total // 2}"})
    limit = {frozenset({"c0"}): frozenset({"c0"})}
    return make_automaton({"c0", "c1"}, triple, {"c0"}, {"c0"}, succ, limit)


def encode_natural(n: int) -> AlphaWord:
    if n < 0:
        raise ValueError("naturals only")
    entries = []
    pos = 0
    while n:
        entries.append((Ordinal((pos,)) if pos else ZERO, "1" if n & 1 else "0"))
        n >>= 1
        pos += 1
    return make_word(OMEGA, entries, BITS)


def decode_natural(w: AlphaWord) -> int:
    total = 0
    for pos, s in w.entries:
        if pos.degree > 0:
            raise WordError("not a finite-position encoding")
        if s == "1":
            total |= 1 << pos.coefficient(0)
    return total


def presburger_presentation():
    return Presentation(
        alpha=OMEGA,
        domain=presburger_domain(),
        relations={"Plus": (3, presburger_plus())},
        equality=None,
    )


#: Sentences with hand-checked truth values over the naturals with +.
PRESBURGER_SENTENCES: tuple = (
    ("(exists x (Plus x x x))", True),
    ("(forall x (Plus x x x))", False),
    ("(forall x (exists y (Plus x y x)))", True),
    ("(forall x (exists y (Plus y y x)))", False),
    ("(exists x (exists y (and (Plus y y x) (not (= x y)))))", True),
    ("(forall x (forall y (exists z (Plus x y z))))", True),
    ("(forall x (forall y (-> (Plus x y x) (Plus y x x))))", True),
    ("(forall x (forall y (forall z (-> (Plus x y z) (Plus y x z)))))", True),
    (
        "(forall x (forall y (forall z (forall w"
        " (-> (and (Plus x y z) (Plus x y w)) (= z w))))))",
        True,
    ),
    (
        "(forall x (forall y (forall z"
        " (-> (and (Plus x y z) (Plus x z y)) (= y z)))))",
        True,
    ),
    ("(exists x (exists y (and (not (= x y)) (Plus x y y))))", True),
    ("(forall x (exists y (and (Plus x y y) (not (= x y)))))", False),
    ("(exists x (forall y (Plus y x y)))", True),
    ("(forall x (exists y (Plus x x y)))", True),
)


# -- growth probes -----------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    stage: int
    parameter_count: int
    nu: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.nu, self.parameter_count)


def transversal_minimum(universe, sig, free_family: Sequence[frozenset]) -> int:
    """Minimum over the maximal free sets G (the transversals of the
    classes of equal ``sig``) of the largest ``free_family`` member inside
    G, so the count cannot be inflated by a lucky transversal."""
    classes: dict = {}
    for w in universe:
        classes.setdefault(sig(w), []).append(w)
    groups = list(classes.values())
    total = math.prod(len(g) for g in groups)
    if total > TRANSVERSAL_CAP:
        raise ResourceLimitExceeded(
            f"{total} class transversals exceed TRANSVERSAL_CAP = {TRANSVERSAL_CAP}"
        )
    sets = [frozenset(fs) for fs in free_family]

    def score(G: frozenset) -> int:
        return max((len(fs) for fs in sets if fs <= G), default=0)

    return min(score(frozenset(combo)) for combo in itertools.product(*groups))


def growth_bound_probe(max_stage: int = 2, rng=None):
    """Distinguishability of the triangular family, stage by stage.

    Stage n uses the stage-n words as parameters and measures the
    family's count over the stage-(n+1) words (plus one filler).  The
    first two stages are evaluated straight off the generator-graph
    automata; the last stage builds signatures by running the
    generators forward, cross-checked against the automata on 40
    random triples when an rng is supplied.
    """
    _check_probe_size("growth probe needs stages", max_stage, "STAGES_MAX", STAGES_MAX)
    family = RelationFamily(tuple(generator_relations()), W2)
    tags = ("a", "b")
    rows: list[ProbeRow] = []
    for n in range(max_stage + 1):
        E = list(tn_words(n))
        universe = list(tn_words(n + 1)) + [blank_word(W2, AB)]
        fsets = [frozenset(tn_words(n)), frozenset(tn_words(n + 1))]
        if n <= 1:
            nu = transversal_minimum(universe, lambda u: signature(family, E, u), fsets)
        else:
            produced: dict = {}
            for t, tag in enumerate(tags):
                for wi, w in enumerate(E):
                    for vi, ve in enumerate(E):
                        u = f_apply(tag, w, ve)
                        produced.setdefault(u, set()).add((t, wi, vi))
            nu = transversal_minimum(
                universe, lambda u: frozenset(produced.get(u, ())), fsets
            )
            if rng is not None:
                for _ in range(40):
                    tag = rng.choice(tags)
                    w = rng.choice(E)
                    ve = rng.choice(E)
                    u = rng.choice(universe)
                    aut = family.automata[tags.index(tag)]
                    got = member(aut, convolve([u, w, ve]))
                    if got != (u == f_apply(tag, w, ve)):
                        raise GrowthError(
                            "generator automaton disagrees with direct application"
                        )
        rows.append(ProbeRow(n, len(E), nu))
    return tuple(rows)


def rado_edge(i: int, j: int) -> bool:
    """Adjacency of the bit graph on the naturals: the smaller index
    reads a set bit of the larger."""
    lo, hi = sorted((i, j))
    return lo != hi and bool((hi >> lo) & 1)


# Budgets of the growth probes.  On one core of a shared 2-CPU Linux
# host the triangular probe takes 3 s through stage 2 and over 40 s
# through stage 3; the bit-graph probe (2^(n+1) naturals per n) and the
# squaring probe (about 8^s products per support s) take a few seconds
# at their caps, and one step further doubles the first and multiplies
# the second by about ten.
STAGES_MAX = 2
RADO_MAX_N = 16
SQUARING_MAX_SUPPORT = 7
TRANSVERSAL_CAP = 4096


def _check_probe_size(what: str, size: int, cap_name: str, cap: int) -> None:
    """Raise unless 0 <= size <= cap; ``what`` opens the message."""
    if size < 0:
        raise GrowthError(f"{what} >= 0, got {size}")
    if size > cap:
        raise ResourceLimitExceeded(f"{what} <= {cap_name} = {cap}, got {size}")


@dataclass(frozen=True)
class RadoRow:
    n: int
    nu: int


def rado_growth_demo(max_n: int = 4):
    """Classes of the bit graph against parameters 0..n-1: always 2^n.

    The window [0, 2^(n+1)) already realizes every adjacency pattern,
    so the count is exact, and it exceeds n*k for every fixed k once n
    is large enough — the growth no automaton-presented family attains.
    """
    _check_probe_size("bit-graph probe needs n", max_n, "RADO_MAX_N", RADO_MAX_N)
    rows = []
    for n in range(max_n + 1):
        sigs = {
            tuple(rado_edge(x, e) for e in range(n))
            for x in range(1 << (n + 1))
        }
        rows.append(RadoRow(n, len(sigs)))
    return tuple(rows)


def _polymul(a: int, b: int) -> int:
    """Carry-less product: polynomials over the two-element field as bits."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


@dataclass(frozen=True)
class SquaringRow:
    support: int
    slope: int
    pair_count: int
    distinct: int


def squaring_experiment(max_support: int = 3):
    """Affine-map growth over the carry-less polynomial ring.

    For the parameter with support {0..s-1}, search the minimal slope x
    making (a, b) -> a*x + b injective on pairs from the parameter's
    subset lattice, then count the image.  The count is 4^s: a single
    parameter of size s supports quadratically-exponentially many
    distinguishable values, which is the shape of argument that rules
    out automaton presentations of rings with such definable maps.
    """
    _check_probe_size("squaring probe needs support", max_support,
                      "SQUARING_MAX_SUPPORT", SQUARING_MAX_SUPPORT)
    rows = []
    for s in range(1, max_support + 1):
        subs = list(range(1 << s))
        x = 0
        while True:
            vals = {_polymul(a, x) ^ b for a in subs for b in subs}
            if len(vals) == len(subs) ** 2:
                break
            x += 1
        rows.append(SquaringRow(s, x, len(subs) ** 2, len(vals)))
    return tuple(rows)
