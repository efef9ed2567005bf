"""Distinguishability growth: neighborhood sets, the counting bound,
window surgery, and the staged probes.

The neighborhood operators have a brute-force mirror here (enumerate every
bullet combination on a small window) so the closed-form membership test
can be checked against plain iteration.
"""

import itertools
from fractions import Fraction

import pytest

from ordinalia import examples, growth
from ordinalia.automata import equality_automaton
from ordinalia.semantics import ResourceLimitExceeded, blank_shape
from ordinalia.examples import (
    AB,
    growth_bound_probe,
    rado_edge,
    rado_growth_demo,
    squaring_experiment,
    tn_words,
    transversal_minimum,
    wellorder_automaton,
)
from ordinalia.growth import (
    GrowthError,
    NormalizeResult,
    RelationFamily,
    bound_u,
    equiv,
    high_part,
    k_const,
    maximal_free_set,
    normalize,
    nu_of_E,
    shrink_gap,
    signature,
    u_contains,
    u_iter_set,
    u_set,
    u_single,
)
from ordinalia.ordinals import ZERO, Ordinal, from_int, omega_power, parse_ordinal
from ordinalia.words import blank_word, make_word, product_alphabet, support

from conftest import random_automaton

W2 = parse_ordinal("w^2")
W3 = parse_ordinal("w^3")


def one_state_family(alpha=W2):
    return RelationFamily((equality_automaton(AB),), alpha)


# ------------------------------------------------------------ the constant


def test_k_const_counts_squared_state_budgets(rng):
    two = random_automaton(rng, max_states=2)
    while len(two.states) != 2:
        two = random_automaton(rng, max_states=2)
    assert k_const(RelationFamily((two,), W2)) == 2**4 + 1 == 17
    assert k_const(RelationFamily((wellorder_automaton(AB),), W2)) == 2**9 + 1 == 513
    assert k_const(RelationFamily((two, two), W2)) == 2**8 + 1 == 257
    assert k_const(one_state_family()) == 3


def test_family_requires_a_common_base(rng):
    from ordinalia.words import alphabet

    other = random_automaton(rng, max_states=2, alpha_bet=alphabet({"x"}))
    mine = random_automaton(rng, max_states=2)
    with pytest.raises(GrowthError):
        RelationFamily((mine, other), W2)


# ------------------------------------------------------------ neighborhoods


def test_u_single_nine_element_example():
    # hand computation: keep the anchor, or change the top disagreeing
    # slot by at most the radius and reset everything below it
    beta = parse_ordinal("w*2+1")
    got = sorted(u_single(beta, 1, W2))
    expected = sorted(
        parse_ordinal(t)
        for t in ["0", "1", "w", "w+1", "w*2", "w*2+1", "w*2+2", "w*3", "w*3+1"]
    )
    assert got == expected


def test_u_single_rejects_oversized_radius():
    with pytest.raises(ResourceLimitExceeded):
        list(u_single(from_int(1), 9, W2))


def test_u_set_seven_element_example():
    # the origin is an implicit anchor, so its box joins the seed's
    X = [parse_ordinal("w+1")]
    got = sorted(u_set(X, 1, W2))
    expected = sorted(
        parse_ordinal(t)
        for t in ["0", "1", "w", "w+1", "w+2", "w*2", "w*2+1"]
    )
    assert got == expected


def test_u_contains_agrees_with_u_set(rng):
    # the enumerator and the closed-form test are separate code paths
    X = [parse_ordinal("w*3+2"), parse_ordinal("w")]
    full = u_set(X, 1, W2)
    window = [Ordinal((b, a)) for a in range(7) for b in range(6)]
    for gamma in window:
        assert u_contains(X, 1, gamma) == (gamma in full), gamma


def test_u_contains_handles_huge_radius():
    # membership must not enumerate the neighborhood; a huge radius
    # swallows every coefficient, so everything with matching (empty)
    # high part is inside
    m = 2**200
    assert u_contains([parse_ordinal("w^3*4")], m, parse_ordinal("w^3*3"))
    assert u_contains([parse_ordinal("w")], m, ZERO)
    assert u_contains([parse_ordinal("w")], m, parse_ordinal("w^2"))


def test_u_contains_respects_the_high_part_cut():
    # degree above the radius must match an anchor exactly
    assert not u_contains([parse_ordinal("w")], 5, parse_ordinal("w^6"))
    assert u_contains([parse_ordinal("w^6")], 5, parse_ordinal("w^6+3"))
    assert not u_contains([parse_ordinal("w^6")], 5, parse_ordinal("w^7"))


def test_u_contains_with_no_seeds_is_the_small_coefficient_box():
    assert u_contains([], 3, from_int(3))
    assert not u_contains([], 3, from_int(4))
    assert u_contains([], 3, parse_ordinal("w^2*3+w*2"))
    assert not u_contains([], 3, parse_ordinal("w^2*3+w*4"))


def test_u_iter_set_is_monotone_in_rounds():
    X = [parse_ordinal("w+1")]
    prev = frozenset(X)
    for rounds in range(1, 4):
        cur = u_iter_set(X, 1, rounds, W2)
        assert prev <= cur
        prev = cur


def test_bound_u_dominates_every_iteration(rng):
    for _ in range(20):
        X = [
            Ordinal((rng.randint(0, 3), rng.randint(0, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        m, rounds = rng.randint(1, 2), rng.randint(1, 3)
        try:
            reached = u_iter_set(X, m, rounds, W2)
        except ResourceLimitExceeded:
            continue
        assert len(reached) <= bound_u(X, m, rounds, W2)


def test_high_part_truncates_below_the_radius():
    o = parse_ordinal("w^3*5+w^2*2+w*7+4")
    assert high_part(o, 1) == parse_ordinal("w^3*5+w^2*2")
    assert high_part(o, 2) == parse_ordinal("w^3*5")
    assert high_part(o, 50) == ZERO
    assert high_part(ZERO, 10**30) == ZERO


# ------------------------------------------------------------ counting


def test_signature_and_equiv_are_consistent():
    fam = RelationFamily((wellorder_automaton(AB),), W2)
    words = list(tn_words(1))
    E = [words[3]]
    for x, y in itertools.product(words[:5], repeat=2):
        same = signature(fam, E, x) == signature(fam, E, y)
        assert same == equiv(fam, E, x, y)


def test_maximal_free_set_is_pairwise_inequivalent_and_maximal():
    fam = RelationFamily((wellorder_automaton(AB),), W2)
    words = list(tn_words(1))
    E = [words[0]]
    report = maximal_free_set(fam, E, words)
    assert report.universe_size == len(words)
    for x, y in itertools.combinations(report.members, 2):
        assert not equiv(fam, E, x, y)
    chosen = set(report.members)
    for w in words:
        if w not in chosen:
            assert any(equiv(fam, E, w, x) for x in chosen)


def test_nu_counts_classes_and_combining_relations_refines_them():
    words = list(tn_words(1))
    E = [words[4]]
    # one binary relation with one parameter yields one membership bit,
    # so two classes; the order and equality bits together see three
    order = RelationFamily((wellorder_automaton(AB),), W2)
    eq = one_state_family()
    both = RelationFamily((wellorder_automaton(AB), equality_automaton(AB)), W2)
    assert nu_of_E(order, E, words) == 2
    assert nu_of_E(eq, E, words) == 2
    assert nu_of_E(both, E, words) == 3


def test_nu_transversal_minimum_with_custom_free_family():
    fam = one_state_family()
    words = list(tn_words(1))
    E = [words[0]]
    # classes: the parameter alone, and the seven other words; every
    # transversal contains words[0], only one contains words[3]
    fsets = [frozenset({words[0]}), frozenset({words[0], words[3]})]
    sig = lambda w: signature(fam, E, w)
    assert transversal_minimum(words, sig, fsets) == 1


def test_nu_respects_the_transversal_cap(monkeypatch):
    fam = one_state_family()
    words = list(tn_words(1))
    monkeypatch.setattr(examples, "TRANSVERSAL_CAP", 1)
    with pytest.raises(ResourceLimitExceeded):
        transversal_minimum(words, lambda w: signature(fam, [words[0]], w), [])


# ------------------------------------------------------------ surgery


def test_shrink_gap_preserves_length_and_drags_support_left():
    # cutting a repeated stretch keeps the length (the tail re-absorbs
    # it) and shifts letters past the cut one notch down
    alpha = parse_ordinal("w*60+3")
    fam = one_state_family(alpha=alpha)
    word = make_word(
        alpha, [(from_int(1), "a"), (parse_ordinal("w*2+7"), "b")], AB
    )
    out = shrink_gap(fam, [], word, parse_ordinal("w*2"), 0)
    assert out.length == alpha
    assert out.at(from_int(1)) == "a"
    assert out.at(parse_ordinal("w*2+6")) == "b"
    assert len(support(out)) == 2


def test_shrink_gap_rejects_support_inside_the_window():
    fam = one_state_family(alpha=parse_ordinal("w*9"))
    word = make_word(parse_ordinal("w*9"), [(parse_ordinal("w*4"), "a")], AB)
    with pytest.raises(GrowthError):
        shrink_gap(fam, [word], word, parse_ordinal("w*3"), 1)


def test_normalize_pulls_support_into_the_neighborhood():
    alpha = parse_ordinal("w*60+3")
    fam = one_state_family(alpha=alpha)
    E = [make_word(alpha, [(from_int(0), "b")], AB)]
    v = make_word(alpha, [(parse_ordinal("w*17+5"), "a")], AB)
    K = k_const(fam)
    anchors = sorted(support(E[0])) + [alpha]
    assert not u_contains(anchors, K, parse_ordinal("w*17+5"))  # offender
    res = normalize(fam, E, v, max_steps=4096)
    assert res.word.length == alpha
    assert res.steps  # something actually moved
    for p in support(res.word):
        assert u_contains(anchors, K, p), p
    assert equiv(fam, E, res.word, v)


def test_normalize_with_a_parameter_respects_its_support():
    alpha = parse_ordinal("w*40+1")
    fam = one_state_family(alpha=alpha)
    E = [make_word(alpha, [(parse_ordinal("w*20"), "b")], AB)]
    v = make_word(alpha, [(parse_ordinal("w*20+9"), "a")], AB)
    res = normalize(fam, E, v, max_steps=4096)
    anchors = sorted(support(E[0])) + [alpha]
    K = k_const(fam)
    for p in support(res.word):
        assert u_contains(anchors, K, p), p
    assert equiv(fam, E, res.word, v)


def test_normalize_is_a_no_op_on_already_small_words():
    alpha = parse_ordinal("w*5")
    fam = one_state_family(alpha=alpha)
    v = make_word(alpha, [(from_int(1), "a")], AB)
    res = normalize(fam, [], v)
    assert res.word == v
    assert res.steps == ()


def test_normalize_exploratory_radius_must_be_at_least_three():
    alpha = parse_ordinal("w*5")
    fam = one_state_family(alpha=alpha)
    v = make_word(alpha, [(from_int(1), "a")], AB)
    with pytest.raises(GrowthError):
        normalize(fam, [], v, m=2)


@pytest.mark.parametrize("m", [3, None])
def test_normalize_transplant_route_on_high_exponents(m):
    # a radius far below the word's degree eventually leaves an offender
    # whose coefficients are all too small to pump, which forces the
    # transplant branch; a one-state family's own constant is already 3
    alpha = parse_ordinal("w^5")
    fam = one_state_family(alpha=alpha)
    assert k_const(fam) == 3
    v = make_word(alpha, [(parse_ordinal("w^4*8+w^3*4"), "a")], AB)
    res = normalize(fam, [], v, m=m, max_steps=64)
    assert any("transplant" in s for s in res.steps)
    assert res.word.length == alpha
    for p in support(res.word):
        assert u_contains([alpha], 3, p), p


# ------------------------------------------------------------ probes


def test_growth_bound_probe_rows_and_ratios():
    rows = growth_bound_probe(max_stage=2)
    assert [r.nu for r in rows] == [8, 64, 1024]
    assert [r.parameter_count for r in rows] == [2, 8, 64]
    ratios = [r.ratio for r in rows]
    assert ratios == [Fraction(4), Fraction(8), Fraction(16)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_rado_edges_are_symmetric_and_irreflexive():
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 11)]:
        assert rado_edge(i, j) == rado_edge(j, i)
    assert rado_edge(0, 1)  # bit 0 of 1
    assert not rado_edge(0, 2)  # bit 0 of 2 is clear
    assert rado_edge(1, 2)  # bit 1 of 2
    assert not rado_edge(5, 5)


def test_rado_growth_demo_doubles():
    rows = rado_growth_demo(max_n=4)
    assert [(r.n, r.nu) for r in rows] == [(n, 2**n) for n in range(5)]


def test_squaring_experiment_reports_doubling_slopes():
    rows = squaring_experiment(max_support=3)
    assert [r.slope for r in rows] == [2, 4, 8]
    assert [r.distinct for r in rows] == [4**s for s in (1, 2, 3)]


# ------------------------------------------------------------ batched cuts


def _single_step_window(beta, anchors, radius, alpha):
    """The lowest exponent of beta whose coefficient is at least
    radius - 1 and whose pumping window holds no anchor."""
    for n in range(beta.degree + 1):
        b = beta.coefficient(n)
        if b < radius - 1:
            continue
        start = Ordinal((0,) * n + (b + 1 - radius,) + beta.coeffs[n + 1:])
        end = Ordinal((0,) * (n + 1) + (beta.coefficient(n + 1) + 1,)
                      + beta.coeffs[n + 2:])
        if not any(start <= a < end for a in {*anchors, alpha}):
            return n, start
    return None


def _single_step_normalize(family, E, v, m=None, max_steps=64):
    """The normalization loop that makes every cut on its own, through
    the public ``shrink_gap``, and re-verifies it by its own ``equiv``."""
    radius = k_const(family) if m is None else m
    anchors = frozenset().union(*(support(e) for e in E)) | {v.length}
    cur, steps, prev = v, [], None
    while True:
        offenders = sorted(p for p in support(cur) if not u_contains(anchors, radius, p))
        if not offenders:
            return NormalizeResult(cur, tuple(steps))
        if len(steps) >= max_steps:
            raise ResourceLimitExceeded(
                f"normalization exceeded max_steps = {max_steps} steps")
        beta = offenders[-1]
        if prev is not None and (len(offenders), beta) >= prev:
            raise GrowthError("normalization stopped making progress")
        prev = (len(offenders), beta)
        window = _single_step_window(beta, anchors, radius, cur.length)
        if window is None:
            cur = growth._transplant(family, E, cur, beta, radius)
            steps.append(f"transplant around {beta}")
        else:
            n, start = window
            cur = shrink_gap(family, E, cur, start, n)
            steps.append(f"shrink window at {start} exponent {n}")


def _outcome(run):
    try:
        return run()
    except (GrowthError, ResourceLimitExceeded) as exc:
        return type(exc).__name__, str(exc)


def _random_point(rng, top):
    return Ordinal(tuple(rng.randint(0, top) for _ in range(rng.randint(1, 3))))


def _nearby(rng, point):
    """point with its finite coefficient redrawn: an anchor that can
    block the windows of point and force a transplant."""
    return Ordinal((rng.randint(0, point.coefficient(0) + 2),) + point.coeffs[1:])


def test_blank_shape_is_the_first_repeat_of_blank_blocks(rng):
    # normalize reads a blank window's cut off blank_shape; shrink_gap's
    # search over the blank word itself must find the same pair
    pair = product_alphabet(AB, 2)
    shapes = set()
    for _ in range(300):
        auts = tuple(random_automaton(rng, max_states=4, alpha_bet=rng.choice([AB, pair]))
                     for _ in range(rng.randint(1, 3)))
        n = rng.randint(0, 2)
        lam, pi = blank_shape(auts, n)
        blank = blank_word(omega_power(n + 1), AB)
        assert growth._first_repeat(RelationFamily(auts, W3), blank, ZERO, n) == (lam, lam + pi)
        shapes.add((lam, pi))
    assert {0, 3} <= {lam for lam, _ in shapes} and max(pi for _, pi in shapes) > 1


def test_batched_cuts_match_the_single_step_loop(rng):
    # random one- and two-track families of 1-3 states, parameters with
    # 0-2 anchors, words below w^3 reaching 40 past the radius
    pair = product_alphabet(AB, 2)
    letters = sorted(AB.symbols - {AB.blank})
    outcomes = []
    for _ in range(30):
        two = rng.random() < 0.5
        aut = random_automaton(rng, max_states=3, alpha_bet=pair if two else AB)
        fam = RelationFamily((aut,), W3)
        m = rng.choice([None, 3, 5])
        top = (k_const(fam) if m is None else m) + 40
        points = {_random_point(rng, top) for _ in range(rng.randint(1, 3))}
        v = make_word(W3, [(p, rng.choice(letters)) for p in points], AB)
        anchors = {rng.choice([_random_point(rng, top), _nearby(rng, max(points))])
                   for _ in range(rng.randint(0, 2))}
        E = [make_word(W3, [(p, rng.choice(letters)) for p in anchors - points], AB)]
        budgets = [rng.randint(1, 12), 8192]
        for max_steps in budgets:
            batched = _outcome(lambda: normalize(fam, E, v, m, max_steps))
            single = _outcome(lambda: _single_step_normalize(fam, E, v, m, max_steps))
            assert batched == single, (aut, v, E, m, max_steps)
            outcomes.append(single)
            if max_steps == 8192 and isinstance(single, NormalizeResult):
                # one short of the cuts runs out at the last cut; exactly them is enough
                budgets += [len(single.steps) - 1, len(single.steps)]
    finished = [o for o in outcomes if isinstance(o, NormalizeResult)]
    assert sum(len(o.steps) > 20 for o in finished) >= 5
    assert ("ResourceLimitExceeded",) in {o[:1] for o in outcomes if o not in finished}


def test_batched_cuts_match_the_single_step_loop_around_transplants(rng):
    # degrees above the radius leave offenders no window can pump, so
    # transplants come between the runs of cuts
    alpha = parse_ordinal("w^5")
    fam = one_state_family(alpha=alpha)
    outcomes = []
    for _ in range(12):
        points = {Ordinal(tuple(rng.randint(0, 12) for _ in range(5)))
                  for _ in range(rng.randint(1, 2))}
        v = make_word(alpha, [(p, "a") for p in points], AB)
        m = rng.choice([None, 3, 5])
        batched = _outcome(lambda: normalize(fam, [], v, m, 8192))
        assert batched == _outcome(lambda: _single_step_normalize(fam, [], v, m, 8192)), v
        outcomes.append(batched)
    steps = [s for o in outcomes if isinstance(o, NormalizeResult) for s in o.steps]
    assert any("transplant" in s for s in steps)


def test_a_batch_of_cuts_is_verified_once():
    # w*40+30 first loses its finite part and then its w coefficient, one
    # period per cut; each of the two runs of cuts is checked by one equiv
    fam = one_state_family()
    v = make_word(W2, [(parse_ordinal("w*40+30"), "a")], AB)
    calls = []

    def counted(*args):
        calls.append(args)
        return equiv(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "equiv", counted)
        res = normalize(fam, [], v, max_steps=4096)
    assert len(res.steps) > 50
    assert {s.rsplit(" ", 1)[-1] for s in res.steps} == {"0", "1"}
    assert len(calls) == 2


def test_a_batched_cut_that_fails_verification_is_loud(monkeypatch):
    fam = one_state_family()
    v = make_word(W2, [(parse_ordinal("w*40+30"), "a")], AB)

    def unused(*args):
        raise AssertionError("a blank window is cut without shrink_gap")

    monkeypatch.setattr(growth, "shrink_gap", unused)
    monkeypatch.setattr(growth, "equiv", lambda *args: False)
    with pytest.raises(GrowthError, match="shrink failed re-verification"):
        normalize(fam, [], v, max_steps=4096)


# ------------------------------------------------------------ leaps


def _around(rng, x, radius):
    """A coefficient near one where a leap must end: next to x itself, or
    next to where x falls within the radius of it, or a little past."""
    d = rng.choice([-1, 0, 1, 0, rng.randint(2, 12)])
    return max(0, x - rng.choice([0, radius]) - d)


def test_leaps_match_the_single_step_loop(rng):
    # 2-4 points share one window, so they move together; anchors and
    # further points sit at their coefficients or a radius below, give
    # or take one, so runs end on a window change, a point entering the
    # cut, a neighborhood boundary, the budget and the end of the work
    pair = product_alphabet(AB, 2)
    letters = sorted(AB.symbols - {AB.blank})
    outcomes = []
    for _ in range(24):
        two = rng.random() < 0.5
        aut = random_automaton(rng, max_states=2, alpha_bet=pair if two else AB)
        m = rng.choice([None, 3, 4, 6])
        radius = k_const(RelationFamily((aut,), W3)) if m is None else m
        # a length with low terms does not repeat the marks 0 and radius
        lows = tuple(rng.randint(1, radius + 9) for _ in range(3))
        alpha = rng.choice([W3, Ordinal(lows + (1,))])
        fam = RelationFamily((aut,), alpha)
        n = rng.randint(0, 2)
        high = tuple(rng.randint(0, 3) for _ in range(2 - n))
        xs = [radius + rng.randint(0, 30) for _ in range(rng.randint(2, 4))]
        window = {Ordinal(tuple(rng.randint(0, radius + 6) for _ in range(n)) + (x,) + high)
                  for x in xs}
        others = {Ordinal((0,) * n + (_around(rng, max(xs), radius),) + high)
                  for _ in range(rng.randint(0, 2))}
        v = make_word(alpha, [(p, rng.choice(letters)) for p in window | others], AB)
        anchors = {Ordinal((0,) * n + (_around(rng, rng.choice(xs), radius),) + high)
                   for _ in range(rng.randint(0, 2))} - window - others
        E = [make_word(alpha, [(p, rng.choice(letters)) for p in anchors], AB)]
        budgets = [rng.randint(1, 40), 8192]
        for max_steps in budgets:
            leaped = _outcome(lambda: normalize(fam, E, v, m, max_steps))
            single = _outcome(lambda: _single_step_normalize(fam, E, v, m, max_steps))
            assert leaped == single, (aut, v, E, m, max_steps)
            outcomes.append(single)
            if max_steps == 8192 and isinstance(single, NormalizeResult):
                budgets += [len(single.steps) - 1, len(single.steps)]
    finished = [o for o in outcomes if isinstance(o, NormalizeResult)]
    assert sum(len(o.steps) > 20 for o in finished) >= 5
    assert ("ResourceLimitExceeded",) in {o[:1] for o in outcomes if o not in finished}


def test_a_run_of_cuts_costs_the_same_whatever_its_length(monkeypatch):
    # the neighborhood tests of a run of cuts do not grow with its length
    calls = []

    def counted(*args):
        calls.append(args)
        return u_contains(*args)

    monkeypatch.setattr(growth, "u_contains", counted)
    counts, lengths = [], []
    for point in ("w*40+30", "w*40+30000"):
        calls.clear()
        v = make_word(W2, [(parse_ordinal(point), "a")], AB)
        res = normalize(one_state_family(), [], v, max_steps=65536)
        counts.append(len(calls))
        lengths.append(len(res.steps))
    assert counts[0] == counts[1]
    assert lengths[1] - lengths[0] == 29_970
