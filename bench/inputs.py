"""Seeded input generation for the three benchmark workloads.

Inputs are plain data: automaton JSON dicts in the shape of
``automaton_to_dict``, word literals and formula text.  Workers load
them through the library's public loaders, so loading is part of the
measured set-up.  The same (workload, seed, set index) always gives the
same inputs; nothing here depends on the hash seed or on the library's
formatting code, only ``examples`` is used to supply the fixed
presentations of the ``decide`` workload.

Every input set is a list of *groups*.  A group shares one cold cache
fill: one automaton with its batch of words (``member``), one
presentation with its sentences (``decide``), or one fresh family with
its single word (``normalize``).
"""

from __future__ import annotations

import itertools
import random

LETTERS = ("a", "b")
BLANK = "_"

# -- ordinals as coefficient tuples (c0, c1, ..., cd) -------------------------


def fmt_ordinal(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("w" if c == 1 else f"w*{c}")
        else:
            terms.append(f"w^{k}" if c == 1 else f"w^{k}*{c}")
    return "+".join(terms) or "0"


def _trimmed(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _below(a, b) -> bool:
    a, b = _trimmed(a), _trimmed(b)
    return (len(a), a[::-1]) < (len(b), b[::-1])


def fmt_word(length, entries) -> str:
    """Word literal; ``entries`` maps coefficient tuples to symbol text."""
    body = ", ".join(f"{fmt_ordinal(p)}:{s}" for p, s in sorted(
        entries.items(), key=lambda e: (len(_trimmed(e[0])), _trimmed(e[0])[::-1])))
    return f"len={fmt_ordinal(length)}; {{{body}}}"


def _symbols(tracks: int) -> list[str]:
    """All symbols (blank included) of the one- or two-track alphabet."""
    base = (BLANK,) + LETTERS
    return ["|".join(t) for t in itertools.product(base, repeat=tracks)]


def _automaton(rng, n, tracks, targets: tuple, limit_density) -> dict:
    """Random automaton dict.  Each successor transition gets between
    ``targets[0]`` and ``targets[1]`` targets (0 leaves it out); each
    nonempty left set gets a limit transition with ``limit_density``."""
    states = [f"q{i}" for i in range(n)]
    syms = _symbols(tracks)
    succ = []
    for q in states:
        for s in syms:
            succ += [[q, s, t] for t in rng.sample(states, rng.randint(*targets))]
    limit = []
    for size in range(1, n + 1):
        for left in itertools.combinations(states, size):
            if rng.random() < limit_density:
                k = rng.randint(1, min(2, n))
                limit += [[list(left), t] for t in rng.sample(states, k)]
    return {
        "states": states,
        "alphabet": syms,
        "blank": "|".join((BLANK,) * tracks),
        "initial": [states[0]],
        "final": sorted(rng.sample(states, rng.randint(1, max(1, n - 1)))),
        "succ": sorted(succ),
        "limit": sorted(limit),
    }


# -- member -------------------------------------------------------------------

#: One length per automaton, cycled so every input set has the same mix.
MEMBER_LENGTHS = ((0, 0, 1), (0, 1, 1), (0, 0, 2), (0, 3, 2), (0, 0, 3), (7, 1, 3))
MEMBER_AUTOMATA = 24
MEMBER_WORDS = 48


def _member_position(rng, length) -> tuple:
    top = len(length) - 1
    while True:
        cs = [rng.randint(0, 12) for _ in range(top)] + [rng.randint(0, length[top])]
        if _below(cs, length):
            return tuple(cs)


def member_inputs(rng, index: int) -> list[dict]:
    groups = []
    for i in range(MEMBER_AUTOMATA):
        tracks = 2 if i % 4 == 3 else 1
        n = 4 + (i // len(MEMBER_LENGTHS)) % 2
        length = MEMBER_LENGTHS[i % len(MEMBER_LENGTHS)]
        aut = _automaton(rng, n, tracks, (1, 2), 1.0)
        letters = [s for s in _symbols(tracks) if s != aut["blank"]]
        words = []
        for _ in range(MEMBER_WORDS):
            entries: dict = {}
            count = rng.randint(16, 32)
            while len(entries) < count:
                entries[_member_position(rng, length)] = rng.choice(letters)
            words.append(fmt_word(length, entries))
        groups.append({"automaton": aut, "queries": words})
    return groups


# -- decide -------------------------------------------------------------------

#: Truth values hold at every infinite alpha for the wellorder presentation.
ORDER_SENTENCES = (
    ("(forall x (Le x x))", True),
    ("(forall x (forall y (or (Le x y) (Le y x))))", True),
    ("(forall x (forall y (-> (and (Le x y) (Le y x)) (= x y))))", True),
    ("(forall x (forall y (forall z (-> (and (Le x y) (Le y z)) (Le x z)))))", True),
    ("(exists x (forall y (Le x y)))", True),
    ("(forall x (exists y (and (Le x y) (not (Le y x)))))", True),
    ("(forall x (exists y (and (and (Le x y) (not (Le y x)))"
     " (forall z (-> (and (Le x z) (not (Le z x))) (Le y z))))))", True),
    ("(exists x (forall y (Le y x)))", False),
    ("(forall x (forall y (-> (and (Le x y) (not (Le y x)))"
     " (exists z (and (and (Le x z) (not (Le z x))) (and (Le z y) (not (Le y z))))))))",
     False),
)
#: The alpha values of the order battery.  Every input set has the cheap
#: ones, and set k the k-th of the costly ones (mod 3), so that a pass
#: stays short and the median latency falls among many similar queries.
CHEAP_ALPHAS = ("w", "w*2", "w^2")
COSTLY_ALPHAS = ("w^2*3+w", "w^3", "w^2+w")


def decide_inputs(rng, index: int) -> list[dict]:
    """The fixed hand-checked batteries, in their listed order; the seed
    plays no part here (it still sets each worker's hash seed).  The
    first sentence of every battery pays its presentation's cold fill."""
    from ordinalia.automata import make_automaton
    from ordinalia.examples import (
        AB,
        PRESBURGER_SENTENCES,
        presburger_presentation,
        wellorder_automaton,
    )
    from ordinalia.logic import Presentation, presentation_to_dict
    from ordinalia.ordinals import parse_ordinal

    groups = [{"presentation": presentation_to_dict(presburger_presentation()),
               "queries": [list(s) for s in PRESBURGER_SENTENCES]}]
    everything = make_automaton({"d"}, AB, {"d"}, {"d"},
                                {("d", s): {"d"} for s in AB.symbols},
                                {frozenset({"d"}): {"d"}})
    order = wellorder_automaton(AB)
    for alpha in CHEAP_ALPHAS + (COSTLY_ALPHAS[index % len(COSTLY_ALPHAS)],):
        pres = Presentation(parse_ordinal(alpha), everything, {"Le": (2, order)})
        groups.append({"presentation": presentation_to_dict(pres),
                       "queries": [list(s) for s in ORDER_SENTENCES]})
    return groups


# -- normalize ----------------------------------------------------------------

NORMALIZE_FAMILIES = 24
W2 = (0, 0, 1)


def _radius(n: int) -> int:
    """Default pigeonhole radius of a one-automaton family: one more than
    the number of run relations over n states."""
    return (1 << (n * n)) + 1


def _strata(rng, count: int, low: int, high: int) -> list[int]:
    """One value from each of ``count`` equal slices of [low, high], in
    random order.  Every set then spans the range evenly, so the step
    counts, which grow with the coefficients, vary little between seeds."""
    values = [round(low + (high - low) * (j + rng.random()) / count) for j in range(count)]
    rng.shuffle(values)
    return values


def normalize_inputs(rng, index: int) -> list[dict]:
    """Fresh one-automaton families, cycled through 1-3 states and one or
    two tracks.  Both support points have finite coefficients 100-200
    above the family's radius, so both lie outside the neighborhood and
    the step count does not depend on the state count."""
    groups = []
    count = NORMALIZE_FAMILIES
    finite = [_strata(rng, count, 100, 200) for _ in range(2)]
    omega = [_strata(rng, count, 0, 30) for _ in range(2)]
    for i in range(count):
        tracks = 1 + i % 2
        n = 1 + (i // 2) % 3
        aut = _automaton(rng, n, tracks, (0, n), 0.5)
        radius = _radius(n)
        first = (radius + finite[0][i], omega[0][i])
        second = (radius + finite[1][i], omega[1][i])
        if second == first:
            second = (second[0] + 1, second[1])
        word = {first: rng.choice(LETTERS), second: rng.choice(LETTERS)}
        params = []
        if tracks == 2:
            anchors = {(rng.randint(0, 9), rng.randint(0, 9)): rng.choice(LETTERS)
                       for _ in range(rng.randint(0, 2))}
            params.append(fmt_word(W2, anchors))
        groups.append({"automaton": aut,
                       "queries": [{"word": fmt_word(W2, word), "params": params}]})
    return groups


GENERATORS = {
    "member": member_inputs,
    "decide": decide_inputs,
    "normalize": normalize_inputs,
}


def generate(workload: str, seed: int, index: int) -> list[dict]:
    """Input set ``index`` of a run with ``seed``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}:{index}"), index)
