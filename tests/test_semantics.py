import gc
import weakref

import pytest

from ordinalia import gapcode, growth, semantics
from ordinalia.automata import make_automaton
from ordinalia.ordinals import OMEGA, ZERO, from_int, omega_power, parse_ordinal
from ordinalia.semantics import (
    Periodic,
    ResourceLimitExceeded,
    compose,
    const_reach,
    member,
    power_cycle,
    profile,
    reach_power,
    relation_power,
    run_relation,
    saturation_holds,
)
from ordinalia.words import blank_word, make_word

from conftest import (
    AB,
    classical_accepts,
    classical_relation,
    omega_profiles_oracle,
    omega_word_accepts_oracle,
    random_automaton,
    random_finite_word,
)


def names(aut):
    """The automaton's states in the order that numbers them."""
    return sorted(aut.states, key=repr)


def state_set(aut, mask):
    return frozenset(q for i, q in enumerate(names(aut)) if mask >> i & 1)


def pairs(aut, rel):
    """A relation's rows decoded into (state, state) pairs."""
    return frozenset(
        (q, p) for q, row in zip(names(aut), rel) for p in state_set(aut, row)
    )


def triples(aut, profs):
    """Profile triples decoded into (state, visited states, state)."""
    order = names(aut)
    return {(order[t.start], state_set(aut, t.visited), order[t.end]) for t in profs}


def test_run_relation_matches_classical_on_finite_words(rng):
    for _ in range(100):
        aut = random_automaton(rng, max_states=4)
        w, syms = random_finite_word(rng, AB, max_len=12)
        assert pairs(aut, run_relation(aut, w)) == classical_relation(aut, syms)


def test_member_matches_classical_on_finite_words(rng):
    for _ in range(200):
        aut = random_automaton(rng, max_states=4)
        w, syms = random_finite_word(rng, AB, max_len=12)
        assert member(aut, w) == classical_accepts(aut, syms)


def test_omega_block_profiles_match_the_walk_oracle(rng):
    for _ in range(60):
        aut = random_automaton(rng, max_states=4)
        for sym in sorted(AB.symbols, key=repr):
            got = triples(aut, profile(aut, sym, 1))
            assert got == omega_profiles_oracle(aut, sym)


def test_membership_on_omega_words_matches_the_oracle(rng):
    for _ in range(200):
        aut = random_automaton(rng, max_states=4)
        length = rng.randint(0, 8)
        syms = [rng.choice(["a", "b", "_"]) for _ in range(length)]
        entries = [(from_int(i), s) for i, s in enumerate(syms) if s != "_"]
        w = make_word(OMEGA, entries, AB)
        assert member(aut, w) == omega_word_accepts_oracle(aut, syms)


def test_empty_word_membership_is_initial_meets_final():
    aut = make_automaton(
        states=["q", "r"],
        alphabet=AB,
        initial=["q"],
        final=["q"],
        succ={("q", "a"): {"r"}},
        limit={},
    )
    assert member(aut, blank_word(ZERO, AB))
    aut2 = make_automaton(
        states=["q", "r"],
        alphabet=AB,
        initial=["q"],
        final=["r"],
        succ={("q", "a"): {"r"}},
        limit={},
    )
    assert not member(aut2, blank_word(ZERO, AB))


def test_profiles_level_zero_are_single_steps(rng):
    aut = random_automaton(rng, max_states=4)
    for sym in sorted(AB.symbols, key=repr):
        lvl0 = profile(aut, sym, 0)
        expect = {
            (q, frozenset({q}), p)
            for q in aut.states
            for p in aut.step(q, sym)
        }
        assert triples(aut, lvl0) == expect


def test_relation_power_basics():
    rel = (0b10, 0b01)  # 0 -> 1 and 1 -> 0
    assert relation_power(rel, 1) == rel
    assert relation_power(rel, 2) == (0b01, 0b10)
    assert relation_power(rel, 4) == relation_power(rel, 2)


def test_power_cycle_reports_identity_recurrence():
    universal = make_automaton(
        states=["u"],
        alphabet=AB,
        initial=["u"],
        final=["u"],
        succ={("u", s): {"u"} for s in AB.symbols},
        limit={frozenset({"u"}): {"u"}},
    )
    lam, pi = power_cycle(universal, "_", 1)
    assert (lam, pi) == (0, 1)


def test_const_reach_agrees_with_reach_power_on_pure_powers(rng):
    for _ in range(30):
        aut = random_automaton(rng, max_states=3)
        for k in (1, 2):
            assert const_reach(aut, "_", omega_power(k)) == reach_power(aut, "_", k)


def test_const_reach_composes_mixed_gaps(rng):
    # w^2*2 + w*3 must equal the explicit composition of its terms.
    for _ in range(20):
        aut = random_automaton(rng, max_states=3)
        gap = parse_ordinal("w^2*2+w*3")
        direct = const_reach(aut, "_", gap)
        via = compose(
            relation_power(reach_power(aut, "_", 2), 2),
            relation_power(reach_power(aut, "_", 1), 3),
        )
        assert direct == via


def test_saturation_on_random_automata(rng):
    for _ in range(25):
        aut = random_automaton(rng, max_states=4)
        m = len(aut.states)
        for sym in sorted(AB.symbols, key=repr):
            for c in (2, 3, 5, "omega"):
                assert saturation_holds(aut, sym, m, c)


def test_membership_beyond_omega_squared(rng):
    # A word of length w^3 whose only letter sits at w^2*2+w*4+1.
    aut = make_automaton(
        states=["z", "s"],
        alphabet=AB,
        initial=["z"],
        final=["s"],
        succ={
            ("z", "a"): {"s"},
            ("z", "_"): {"z"},
            ("z", "b"): {"z"},
            ("s", "a"): {"s"},
            ("s", "b"): {"s"},
            ("s", "_"): {"s"},
        },
        limit={
            frozenset({"z"}): {"z"},
            frozenset({"s"}): {"s"},
            frozenset({"z", "s"}): {"s"},
        },
    )
    w = make_word(
        parse_ordinal("w^3"), [(parse_ordinal("w^2*2+w*4+1"), "a")], AB
    )
    assert member(aut, w)
    assert not member(aut, blank_word(parse_ordinal("w^3"), AB))


def power_shape_oracle(states, rel):
    """(lam, pi) of rel^0, rel^1, ... at the first repeat, and those powers.

    Plain set comprehension, sharing no code with the library.
    """
    powers = [frozenset((q, q) for q in states)]
    while True:
        nxt = frozenset((a, c) for a, b in powers[-1] for b2, c in rel if b == b2)
        if nxt in powers:
            lam = powers.index(nxt)
            return lam, len(powers) - lam, powers
        powers.append(nxt)


def test_power_cycle_matches_the_oracle(rng):
    for _ in range(40):
        aut = random_automaton(rng, max_states=4)
        for k in (0, 1, 2):
            rel = pairs(aut, reach_power(aut, "_", k))
            lam, pi, _ = power_shape_oracle(aut.states, rel)
            assert power_cycle(aut, "_", k) == (lam, pi)


def test_const_reach_of_a_huge_coefficient_matches_the_oracle(rng):
    c = 10**12
    for _ in range(40):
        aut = random_automaton(rng, max_states=4)
        rel = pairs(aut, reach_power(aut, "_", 1))
        lam, pi, powers = power_shape_oracle(aut.states, rel)
        expect = powers[lam + (c - lam) % pi]
        assert pairs(aut, const_reach(aut, "_", omega_power(1, c))) == expect


def test_periodic_extends_lazily_and_wraps_at_the_first_repeat():
    calls = []

    def step(x):
        calls.append(x)
        return (x + 1) % 5 if x < 4 else 2  # 0 1 2 3 4 2 3 4 ...

    seq = Periodic(0, step, 10, "test terms", "TEST_LIMIT")
    assert seq[3] == 3 and len(calls) == 3
    assert seq.shape() == (2, 3)
    assert [seq[k] for k in range(9)] == [0, 1, 2, 3, 4, 2, 3, 4, 2]
    assert seq[10**9] == 2 + (10**9 - 2) % 3


def test_periodic_raises_past_its_limit():
    seq = Periodic(0, lambda x: x + 1, 5, "test terms", "TEST_LIMIT")
    assert seq[4] == 4  # five distinct terms fit
    with pytest.raises(ResourceLimitExceeded, match="test terms exceeded 5"):
        seq[5]


def _blank_swap():
    """Blanks swap two states; a limit of both lands in the first."""
    return make_automaton(
        states=["p", "q"], alphabet=AB, initial=["p"], final=["p"],
        succ={("p", "_"): {"q"}, ("q", "_"): {"p"}},
        limit={frozenset({"p", "q"}): {"p"}},
    )


def _lifted(aut):
    """``aut`` read on track 0 of two, through a policy at ω."""
    return gapcode.to_gap_nfa(aut, gapcode.cap_policy([aut], OMEGA), 2, (0,))


BUDGETS = [
    (semantics, "MAX_POWER_STEPS", 1, lambda aut: power_cycle(aut, "_", 0)),
    (semantics, "MAX_PROFILE_LEVELS", 1, lambda aut: profile(aut, "_", 1)),
    (semantics, "MAX_PATH_UNION_PAIRS", 0, lambda aut: profile(aut, "_", 1)),
    (gapcode, "MAX_DFA_STATES", 1, lambda aut: gapcode.determinize(_lifted(aut))),
    (gapcode, "MAX_MERGE_PAIRS", 0, lambda aut: gapcode.exists_project(_lifted(aut), 1)),
    (growth, "U_BOUND_MAX", 0, lambda aut: growth.bound_u([], 1, 1, OMEGA)),
    (growth, "SHRINK_MAX_STEPS", 0, lambda aut: growth.shrink_gap(
        growth.RelationFamily((aut,), OMEGA), [], blank_word(OMEGA, AB), ZERO, 0)),
]


@pytest.mark.parametrize("module, budget, low, run", BUDGETS, ids=[b[1] for b in BUDGETS])
def test_an_exhausted_budget_names_its_constant(module, budget, low, run, monkeypatch):
    run(_blank_swap())  # fits the default budget
    monkeypatch.setattr(module, budget, low)
    with pytest.raises(ResourceLimitExceeded, match=rf"\({budget}\)"):
        run(_blank_swap())  # a fresh machine: nothing analysed is kept


def test_analysed_automaton_is_freed_once_dropped(rng):
    aut = random_automaton(rng, max_states=4)
    w = make_word(parse_ordinal("w^2*2+3"), [(parse_ordinal("w+1"), "a")], AB)
    member(aut, w)
    ref = weakref.ref(aut)
    del aut
    gc.collect()
    assert ref() is None
