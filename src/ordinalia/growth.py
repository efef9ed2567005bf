"""Distinguishability growth: free sets and support normalization.

Fix a family of relations given by automata (first track distinguished)
and a finite parameter set E.  Two words are equivalent when no
relation of the family separates them using parameters from E; a set
is *free* when its members are pairwise inequivalent.  The central
quantity is how many pairwise-distinguishable elements a parameter set
of size m can support — for automaton-presented relations this grows
at most linearly in m once supports are normalized into a small
neighborhood of the parameters' supports, while natural non-automatic
structures (the random graph, definable affine maps over a polynomial
ring) blow past every linear bound.  The growth probes, kept with the
worked fixtures, put numbers on both sides of that contrast.

The normalization machinery mirrors the linear-bound argument: every
word is equivalent to one whose support lies in the neighborhood
``U_m`` of the parameter supports, computed by repeatedly cutting
pumpable stretches out of oversized gaps (the cut points come from a
pigeonhole on run relations, so equivalence is preserved exactly).
Cuts into blank windows are walked on the support points alone, a whole
run of them in one leap: each cut of a run lowers one coefficient of
the moving points by the period, and the leap ends where a neighborhood
test, the window choice or the blank prefix could first change, which
the coefficients of the anchors and the other points fix in closed
form.  Every batch of cuts at one window is re-verified by one
``equiv``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import OrdinalAutomaton
from .ordinals import ONE, ZERO, Ordinal, add, interval_type, omega_power
from .semantics import ResourceLimitExceeded, blank_shape, member, run_relation
from .words import (
    AlphaWord,
    blank_word,
    concat,
    convolve,
    restrict,
    sorted_support,
    support,
    word_sort_key,
)

#: Candidates of one neighborhood enumeration, summed over its anchors.
#: ``umset -X 'w*2+1' -m 5 -d w^2`` tries 93,325 in 0.5 s on a shared
#: 2-CPU Linux host; radius 6 would try 1,647,101.  Tests, golden runs
#: and demos enumerate at most 12,578.
U_ENUM_BOX_MAX = 200_000
U_BOUND_MAX = 1024
SHRINK_MAX_STEPS = 4096


class GrowthError(ValueError):
    pass


# -- relation families -------------------------------------------------------


@dataclass(frozen=True)
class RelationFamily:
    """Automata over a common base alphabet; track 0 is the element,
    the remaining tracks take parameters."""

    automata: tuple
    alpha: Ordinal

    def __post_init__(self) -> None:
        object.__setattr__(self, "automata", tuple(self.automata))
        if not self.automata:
            raise GrowthError("a relation family needs at least one automaton")
        bases = {aut.alphabet.scalar for aut in self.automata}
        if len(bases) > 1:
            raise GrowthError("family automata must share a base alphabet")

    @property
    def base_alphabet(self):
        return self.automata[0].alphabet.scalar

    def params(self, aut: OrdinalAutomaton) -> int:
        return aut.alphabet.tracks - 1


def k_const(family: RelationFamily) -> int:
    """One more than the number of possible run-relation tuples.

    Any function from a segment count into relation tuples must repeat
    within this many steps, which is what the gap-shrinking pigeonhole
    uses; it also sets the neighborhood radius for normalization.
    """
    return (1 << sum(len(aut.states) ** 2 for aut in family.automata)) + 1


# -- equivalence under parameters ---------------------------------------------


def signature(family: RelationFamily, E: Sequence[AlphaWord], x: AlphaWord) -> tuple:
    """Membership bits of x across all relations and parameter tuples;
    equal signatures is the same thing as equivalence."""
    E = list(E)
    return tuple(
        member(aut, convolve([x, *params]) if params else x)
        for aut in family.automata
        for params in itertools.product(E, repeat=family.params(aut))
    )


def equiv(family: RelationFamily, E: Sequence[AlphaWord],
          x: AlphaWord, y: AlphaWord) -> bool:
    """No relation of the family separates x from y with parameters in E."""
    return signature(family, E, x) == signature(family, E, y)


@dataclass(frozen=True)
class FreeSetReport:
    members: tuple
    universe_size: int

    @property
    def size(self) -> int:
        return len(self.members)


def maximal_free_set(
    family: RelationFamily,
    E: Sequence[AlphaWord],
    universe: Iterable[AlphaWord],
) -> FreeSetReport:
    """Greedy maximal pairwise-distinguishable subset of the universe.

    Scanning follows :func:`~ordinalia.words.word_sort_key`, and the
    first representative of every equivalence class gets picked, so the
    result is deterministic and genuinely maximal: anything left out is
    equivalent to something inside.
    """
    scan = sorted(universe, key=word_sort_key)
    seen: set = set()
    members: list[AlphaWord] = []
    for w in scan:
        sig = signature(family, E, w)
        if sig not in seen:
            seen.add(sig)
            members.append(w)
    return FreeSetReport(tuple(members), len(scan))


def nu_of_E(
    family: RelationFamily,
    E: Sequence[AlphaWord],
    universe: Iterable[AlphaWord],
) -> int:
    """Distinguishable-element count of E: the number of equivalence
    classes in the universe (every maximal free set is a class
    transversal)."""
    return len({signature(family, E, w) for w in universe})


# -- support neighborhoods ----------------------------------------------------


def high_part(o: Ordinal, m: int) -> Ordinal:
    """The terms of o with exponent strictly above m."""
    if o.degree <= m:
        return ZERO
    return Ordinal((0,) * (m + 1) + o.coeffs[m + 1 :])


def u_contains(X: Iterable[Ordinal], m: int, gamma: Ordinal) -> bool:
    """Is gamma in the m-neighborhood of X?

    gamma qualifies through some anchor in X (or 0) when both agree
    above exponent m and, at the largest disagreeing exponent k, gamma
    overshoots by at most m with all lower coefficients at most m.
    Works for astronomically large m: only actual CNF terms are
    touched, never m of anything.
    """
    for beta in {*X, ZERO}:
        if gamma == beta:
            return True
        if high_part(gamma, m) != high_part(beta, m):
            continue
        top = min(m, max(gamma.degree, beta.degree, 0))
        k = next(
            (i for i in range(top, -1, -1)
             if gamma.coefficient(i) != beta.coefficient(i)),
            None,
        )
        if k is None:
            continue
        if gamma.coefficient(k) > beta.coefficient(k) + m:
            continue
        if any(gamma.coefficient(i) > m for i in range(k)):
            continue
        return True
    return False


def _check_enum_box(anchors: Iterable[Ordinal], m: int) -> None:
    """Raise unless the m-neighborhoods of ``anchors`` have at most
    ``U_ENUM_BOX_MAX`` candidates in all, whatever the bound: per anchor,
    itself and, at each exponent k <= m, every other coefficient up to
    the anchor's plus m under (m+1)^k lower digits.  The count stops at
    the cap, so the check is cheap for any m."""
    if m < 0:
        raise GrowthError(f"the neighborhood radius must be >= 0, got {m}")
    total = 0
    for beta in anchors:
        total += 1
        for k in range(m + 1):
            total += (beta.coefficient(k) + m) * (m + 1) ** k
            if total > U_ENUM_BOX_MAX:
                raise ResourceLimitExceeded(
                    f"neighborhood enumeration of radius {m} tries more than "
                    f"U_ENUM_BOX_MAX = {U_ENUM_BOX_MAX} candidates"
                )


def u_single(beta: Ordinal, m: int, bound: Ordinal):
    """Enumerate the m-neighborhood of a single anchor, below ``bound``.

    Enumeration materializes coefficient boxes of side about m, so it
    is only for small m and is budgeted by the box size; membership
    tests scale to any m via :func:`u_contains`.
    """
    _check_enum_box([beta], m)
    if beta < bound:
        yield beta
    tail = beta.coeffs[m + 1 :] if beta.degree > m else ()
    anchor = [beta.coefficient(i) for i in range(m + 1)]
    for k in range(m + 1):
        for lk in range(anchor[k] + m + 1):
            if lk == anchor[k]:
                continue
            for lows in itertools.product(range(m + 1), repeat=k):
                coeffs = (*lows, lk, *anchor[k + 1 :], *tail)
                gamma = Ordinal(coeffs)
                if gamma < bound:
                    yield gamma


def u_set(X: Iterable[Ordinal], m: int, bound: Ordinal) -> frozenset:
    """The m-neighborhood of X (anchors X and 0), cut off at ``bound``."""
    anchors = {*X, ZERO}
    _check_enum_box(anchors, m)
    out: set = set()
    for beta in anchors:
        out.update(u_single(beta, m, bound))
    return frozenset(out)


def u_iter_set(X: Iterable[Ordinal], m: int, rounds: int, bound: Ordinal) -> frozenset:
    """``rounds``-fold iteration of the m-neighborhood operator."""
    if m < 0 or rounds < 0:
        raise GrowthError(f"radius and rounds must be >= 0, got {m} and {rounds}")
    cur = frozenset(o for o in X if o < bound)
    for _ in range(rounds):
        cur = u_set(cur, m, bound)
    return cur


def bound_u(X: Iterable[Ordinal], m: int, rounds: int, bound: Ordinal) -> int:
    """Closed-form cardinality bound for the iterated m-neighborhood.

    Polynomial in the coefficient magnitude and the number of distinct
    high parts — the smallness that makes linear growth bounds tick.
    """
    if m > U_BOUND_MAX:
        raise ResourceLimitExceeded(
            f"bound evaluation needs m <= {U_BOUND_MAX} (U_BOUND_MAX)")
    pool = {*X, bound}
    c = max(
        (o.coefficient(j) for o in pool for j in range(min(m, o.degree) + 1)),
        default=0,
    )
    dm = len({high_part(o, m) for o in {*pool, ZERO}})
    return (c + rounds * m) ** (m + 1) * (rounds * m + 1) * dm


# -- gap shrinking and support normalization -----------------------------------


def _first_repeat(
    family: RelationFamily, v: AlphaWord, gamma: Ordinal, n: int
) -> tuple[int, int]:
    """The first j1 < j2 whose prefix segments [gamma, gamma + w^n * j)
    of v, with blank parameter tracks, give the same run relations in
    every family automaton: the pigeonhole pair of a pumping window."""
    base = family.base_alphabet

    def relations_at(j: int) -> tuple:
        seg = restrict(v, gamma, add(gamma, omega_power(n, j)))
        rels = []
        for aut in family.automata:
            p = family.params(aut)
            word = convolve([seg] + [blank_word(seg.length, base)] * p) if p else seg
            rels.append(run_relation(aut, word))
        return tuple(rels)

    seen: dict = {}
    for j in range(SHRINK_MAX_STEPS + 1):
        rels = relations_at(j)
        if rels in seen:
            return seen[rels], j
        seen[rels] = j
    raise ResourceLimitExceeded("no repeated segment relation within "
                                f"{SHRINK_MAX_STEPS} steps (SHRINK_MAX_STEPS)")


def _cut(family: RelationFamily, E: Sequence[AlphaWord], v: AlphaWord,
         c1: Ordinal, c2: Ordinal) -> AlphaWord:
    """v with [c1, c2) cut out, re-verified exactly."""
    w = concat(restrict(v, ZERO, c1), restrict(v, c2, v.length))
    if w.length != v.length:
        raise GrowthError(
            "cut changed the word length; the window geometry is wrong"
        )
    if not equiv(family, E, v, w):
        raise GrowthError("shrink failed re-verification")
    return w


def shrink_gap(
    family: RelationFamily,
    E: Sequence[AlphaWord],
    v: AlphaWord,
    gamma: Ordinal,
    n: int,
) -> AlphaWord:
    """Cut a pumpable stretch out of the window [gamma, gamma + w^(n+1)).

    The run relations of all family automata over the prefix segments
    [gamma, gamma + w^n * j), with blank parameter tracks, must repeat
    by the pigeonhole; cutting between the first repeated pair leaves
    every relation — hence equivalence under any parameters whose
    supports avoid the window — unchanged.  The window must avoid the
    parameters' supports, and the result is re-verified exactly.
    """
    E = list(E)
    window_end = add(gamma, omega_power(n + 1))
    for e in E:
        if any(gamma <= p < window_end for p in support(e)):
            raise GrowthError("shrink window overlaps a parameter support")
    n1, n2 = _first_repeat(family, v, gamma, n)
    return _cut(family, E, v, add(gamma, omega_power(n, n1)),
                add(gamma, omega_power(n, n2)))


def _blank_cut(family: RelationFamily, eps1: Ordinal, n: int,
               points: Sequence[Ordinal]) -> tuple | None:
    """The cut [c1, c2) of the window at eps1 and its period when the
    first j2 blocks hold no point, else None.  There _first_repeat's pair
    (j1, j2) is (lam, lam + pi) of the family's blank shape; None too
    when the blank blocks do not repeat within SHRINK_MAX_STEPS."""
    try:
        lam, pi = blank_shape(family.automata, n)
    except ResourceLimitExceeded:
        return None
    c1, c2 = add(eps1, omega_power(n, lam)), add(eps1, omega_power(n, lam + pi))
    if lam + pi > SHRINK_MAX_STEPS or any(eps1 <= p < c2 for p in points):
        return None
    return c1, c2, pi


@dataclass(frozen=True)
class NormalizeResult:
    word: AlphaWord
    steps: tuple


def normalize(
    family: RelationFamily,
    E: Sequence[AlphaWord],
    v: AlphaWord,
    m: int | None = None,
    max_steps: int = 64,
) -> NormalizeResult:
    """Equivalent word with support inside the m-neighborhood of
    supp(E) plus the length.

    With ``m`` omitted the true pigeonhole constant is used.  Each step
    looks at the largest offending support point: when some coefficient
    of it is oversized and the pumping window around that coefficient
    avoids every parameter support (a blocked window at an exponent
    within the radius would certify the point as unoffending, so this
    is the common case), a stretch is cut out of the window; otherwise
    the offending stretch is transplanted flush against the anchors.
    Transplants happen under the true constant too: a one-state family
    has constant 3, so ``w^4*8+w^3*4`` in a word of length ``w^5``
    takes ten window cuts and then a transplant around ``w^4+w^3``.
    A user-supplied small ``m`` tightens the neighborhood far below
    what the pigeonhole justifies, so transplants become frequent and
    may fail.

    When the first blocks of a window are blank, its prefix relations
    are powers of the blank block relation, so its cut is known without
    building a word: such cuts are walked on the support points alone.
    A run of them is made in one leap.  Each cut of the run lowers the
    window's coefficient of every point past the cut, and of the window
    start, by the period of the blank blocks, and every test the loop
    makes depends on that coefficient only through comparisons with
    the same coefficient of the anchors and of the points that stay
    put (and with 0 and the radius).  So the leap makes, at once, as
    many cuts as the budget allows before some moving coefficient meets
    one of those critical values; the next leap starts from there.  A
    run costs a few leaps, however large its coefficients, and still
    emits one ``steps`` entry per cut.
    Walked cuts that meet end to start make one stretch, cut out of the
    word at once.  Every batch of cuts at one window is re-verified by
    one ``equiv``, and every other cut and every transplant by its own,
    so exploration can fail loudly but never silently lies.
    ``max_steps`` counts single cuts and transplants; needing one more
    once it is spent raises ResourceLimitExceeded, so a word that needs
    k of them passes under ``max_steps = k``.
    """
    E = list(E)
    radius = k_const(family) if m is None else m
    if radius < 3:
        raise GrowthError("the neighborhood radius must be at least 3")
    anchors = frozenset().union(*(support(e) for e in E)) if E else frozenset()
    anchors |= {v.length}
    inside: dict = {}
    cur = v
    points = sorted_support(v)  # the support after the walked cuts
    walked = None  # [c1, c2): the walked cuts, not yet made on cur
    steps: list[str] = []
    prev_measure = None

    def settle() -> None:
        nonlocal cur, walked
        if walked is not None:
            cur = _cut(family, E, cur, *walked)
            walked = None

    while True:
        for p in points:
            if p not in inside:
                inside[p] = u_contains(anchors, radius, p)
        offenders = sorted(p for p in points if not inside[p])
        if not offenders:
            settle()
            return NormalizeResult(cur, tuple(steps))
        if len(steps) >= max_steps:
            settle()
            raise ResourceLimitExceeded(
                f"normalization exceeded max_steps = {max_steps} steps"
            )
        beta = offenders[-1]
        measure = (len(offenders), beta)
        if prev_measure is not None and measure >= prev_measure:
            settle()
            raise GrowthError("normalization stopped making progress")
        prev_measure = measure
        window = _find_window(beta, anchors, radius, cur.length)
        if window is None:
            settle()
            cur = _transplant(family, E, cur, beta, radius)
            points = sorted_support(cur)
            steps.append(f"transplant around {beta}")
            continue
        nn, eps1 = window
        cut = _blank_cut(family, eps1, nn, points)
        if cut is None:
            settle()
            cur = shrink_gap(family, E, cur, eps1, nn)
            points = sorted_support(cur)
            steps.append(f"shrink window at {eps1} exponent {nn}")
            continue
        c1, c2, period = cut
        end = add(eps1, omega_power(nn + 1))
        moving = [p for p in points if c2 <= p < end]
        fixed = [*anchors, *(p for p in points if not c2 <= p < end)]
        k = _run_length(moving, fixed, nn, period, radius, max_steps - len(steps))
        points = [_lower(p, nn, k * period) if c2 <= p < end else p for p in points]
        c1 = _lower(c1, nn, (k - 1) * period)  # where the last of the k cuts starts
        if walked is not None and walked[0] == c2:
            walked[0] = c1  # these cuts end where the walked ones begin
        else:
            settle()
            walked = [c1, c2]
        steps += _cut_texts(eps1, nn, period, k)
        prev_measure = (len(offenders), _lower(beta, nn, (k - 1) * period))


def _lower(o: Ordinal, n: int, d: int) -> Ordinal:
    """o with its coefficient at exponent n lowered by d."""
    if not d:
        return o
    return Ordinal(o.coeffs[:n] + (o.coeffs[n] - d,) + o.coeffs[n + 1 :])


def _run_length(moving: Sequence[Ordinal], fixed: Iterable[Ordinal], n: int,
                period: int, radius: int, budget: int) -> int:
    """How many cuts of ``period`` blocks at exponent n the loop makes in
    a row, at most ``budget``, before any of its tests may change.

    Each cut lowers the n-th coefficient x of every moving point by the
    period.  The tests compare x only with the critical values 0,
    radius - 1...radius + 1 and, for each fixed ordinal q (anchor, length
    or non-moving point), q_n - 1...q_n + 1 and q_n + radius - 1...q_n +
    radius + 1, so they cannot change while every x stays strictly
    between the same two of them; a critical x gets a cut of its own."""
    marks = {0, radius - 1, radius, radius + 1}
    for q in fixed:
        c = q.coefficient(n)
        marks.update((c - 1, c, c + 1, c + radius - 1, c + radius, c + radius + 1))
    extra = budget - 1
    for p in moving:
        x = p.coefficient(n)
        below = max(c for c in marks if c <= x)
        extra = min(extra, max(x - below - 1, 0) // period)
    return extra + 1


def _cut_texts(eps1: Ordinal, n: int, period: int, k: int) -> list[str]:
    """The ``steps`` entries of k cuts at exponent n whose windows start
    at eps1, eps1 - w^n * period, ...: only eps1's last term changes."""
    if k == 1:
        return [f"shrink window at {eps1} exponent {n}"]
    # in a run of k > 1 cuts every start coefficient is 3 or more, so it
    # prints as the last number of the start
    top = eps1.coeffs[n]
    head = str(eps1)[: -len(str(top))]
    return [f"shrink window at {head}{top - i * period} exponent {n}" for i in range(k)]


def _find_window(
    beta: Ordinal, anchors: frozenset, radius: int, alpha: Ordinal
) -> tuple | None:
    """Smallest exponent of beta with an oversized coefficient whose
    pumping window avoids every anchor and the length."""
    for nn in range(beta.degree + 1):
        b = beta.coefficient(nn)
        if b < radius - 1:
            continue
        eps1 = Ordinal((0,) * nn + (b + 1 - radius,) + beta.coeffs[nn + 1 :])
        eps2 = Ordinal(
            (0,) * (nn + 1) + (beta.coefficient(nn + 1) + 1,) + beta.coeffs[nn + 2 :]
        )
        if any(eps1 <= a < eps2 for a in {*anchors, alpha}):
            continue
        return nn, eps1
    return None


def _transplant(
    family: RelationFamily,
    E: Sequence[AlphaWord],
    v: AlphaWord,
    beta: Ordinal,
    m: int,
) -> AlphaWord:
    """Exploratory support transplant around a blocked offender.

    Rebuilds the word with the stretch carrying beta moved flush
    against the nearest anchor structure, padding with blank blocks of
    order type w^m.  Exact equivalence is re-verified; a too-small m
    shows up as a loud failure here.
    """
    it = interval_type
    alpha = v.length
    beta_high = high_part(beta, m)
    vpoints = support(v)
    epoints = frozenset().union(*(support(e) for e in E)) if E else frozenset()
    below = [p for p in (vpoints | epoints) if p < beta_high]
    gamma = add(max(below), ONE) if below else ZERO
    after = sorted(p for p in epoints if beta <= p < alpha)
    delta = after[0] if after else alpha
    delta_high = high_part(delta, m)
    vbelow = [p for p in vpoints if p < delta_high]
    dprime = add(max(vbelow), ONE) if vbelow else ZERO
    if not (gamma <= beta_high <= dprime <= delta_high <= alpha):
        raise GrowthError("transplant geometry collapsed; m too small")
    eta = it(add(it(gamma, beta_high), it(beta_high, dprime)), it(gamma, delta_high))
    pieces = concat(
        concat(
            concat(restrict(v, ZERO, gamma), blank_word(omega_power(m), v.alphabet)),
            restrict(v, beta_high, dprime),
        ),
        concat(blank_word(eta, v.alphabet), restrict(v, delta_high, alpha)),
    )
    if pieces.length != alpha:
        raise GrowthError("transplant changed the word length; m too small")
    if not equiv(family, E, v, pieces):
        raise GrowthError("transplant failed re-verification; m too small")
    return pieces
