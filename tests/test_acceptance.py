"""Acceptance suite: one test per criterion, one [PASS] line each.

Every test is self-contained, seeds its own generator, and asserts the
stated wall-clock budget.  Oracles are the classical subset simulator
from conftest, explicit stage enumeration, and pencil-and-paper
arithmetic facts — never the code paths under test.
"""

import itertools
import random
import time
from fractions import Fraction

from ordinalia.examples import (
    AB,
    PRESBURGER_SENTENCES,
    accepted_count,
    decode_natural,
    dn_set,
    f_apply,
    growth_bound_probe,
    presburger_presentation,
    rado_growth_demo,
    tn_automaton,
    tn_words,
)
from ordinalia.gapcode import (
    accepts_word,
    cap_policy,
    complement,
    to_gap_nfa,
)
from ordinalia.growth import (
    RelationFamily,
    bound_u,
    equiv,
    k_const,
    normalize,
    u_contains,
    u_iter_set,
)
from ordinalia.logic import decide, find_witness, parse_formula
from ordinalia.ordinals import Ordinal, from_int, parse_ordinal
from ordinalia.semantics import member, saturation_holds
from ordinalia.words import make_word, product_alphabet, support

from conftest import classical_accepts, random_automaton

W2 = parse_ordinal("w^2")
W3 = parse_ordinal("w^3")
SIG = {"Plus": 3, "=": 2}


def _finite_words_up_to(max_len):
    """Every word over {a, b, blank} of each length 0..max_len."""
    for length in range(max_len + 1):
        for syms in itertools.product(["a", "b", "_"], repeat=length):
            entries = [(from_int(i), s) for i, s in enumerate(syms) if s != "_"]
            yield make_word(from_int(length), entries, AB), list(syms)


def test_criterion_1_membership_matches_classical_simulation():
    start = time.time()
    rng = random.Random(101)
    short_words = list(_finite_words_up_to(4))
    assert len(short_words) == 1 + 3 + 9 + 27 + 81
    checked = 0
    for _ in range(30):
        aut = random_automaton(rng, max_states=3)
        for w, syms in short_words:
            assert member(aut, w) == classical_accepts(aut, syms), (aut, syms)
            checked += 1
    for _ in range(1000):
        aut = random_automaton(rng, max_states=3)
        length = rng.randint(5, 16)
        syms = [rng.choice(["a", "b", "_"]) for _ in range(length)]
        entries = [(from_int(i), s) for i, s in enumerate(syms) if s != "_"]
        w = make_word(from_int(length), entries, AB)
        assert member(aut, w) == classical_accepts(aut, syms), (aut, syms)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"[PASS] criterion 1: membership == classical simulation on "
        f"{checked} word/automaton pairs ({elapsed:.1f}s)"
    )


def test_criterion_2_limit_power_saturation():
    start = time.time()
    rng = random.Random(202)
    for _ in range(100):
        aut = random_automaton(rng, max_states=4)
        m = len(aut.states)
        for sym in sorted(aut.alphabet.symbols, key=repr):
            for c in (2, 3, 5, "omega"):
                assert saturation_holds(aut, sym, m, c), (aut, sym, c)
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"[PASS] criterion 2: tower-power reachability saturates at every "
        f"factor in 2, 3, 5, omega across 100 automata ({elapsed:.1f}s)"
    )


def test_criterion_3_stage_counting_and_closure():
    start = time.time()
    # stage sizes through the recognizers
    for n, expected in enumerate([2, 8, 64, 1024]):
        count = accepted_count(tn_automaton(n), W2, sorted(dn_set(n)), ("a", "b"))
        assert count == expected, (n, count)
        if n <= 2:
            assert len(list(tn_words(n))) == expected
    # the closure law, exhaustively for n <= 2
    for n in range(3):
        cur = list(tn_words(n))
        built = {
            f_apply(tag, w, v)
            for tag in ("a", "b")
            for w, v in itertools.product(cur, repeat=2)
        }
        assert built == set(tn_words(n + 1)), n
    # distinguishable-element counts through the automaton signatures
    rows = growth_bound_probe(max_stage=1)
    by_params = {r.parameter_count: r.nu for r in rows}
    assert by_params[2] == 8
    assert by_params[8] == 64
    elapsed = time.time() - start
    assert elapsed < 300
    print(
        "[PASS] criterion 3: stage sizes 2/8/64/1024, closure law exhaustive "
        f"through stage 2, counts 8 and 64 at 2 and 8 parameters ({elapsed:.1f}s)"
    )


def test_criterion_4_neighborhood_size_bound():
    start = time.time()
    rng = random.Random(404)
    for _ in range(50):
        alpha = rng.choice([W2, W3])
        X = [
            Ordinal(tuple(rng.randint(0, 4) for _ in range(alpha.degree)))
            for _ in range(rng.randint(1, 3))
        ]
        m = rng.randint(1, 2)
        rounds = rng.randint(1, 3)
        reached = u_iter_set(X, m, rounds, alpha)
        assert len(reached) <= bound_u(X, m, rounds, alpha), (X, m, rounds)
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        "[PASS] criterion 4: iterated neighborhood size stays under the "
        f"closed-form bound on 50 random seed sets ({elapsed:.1f}s)"
    )


def test_criterion_5_normalization_pulls_support_to_the_parameters():
    start = time.time()
    rng = random.Random(505)
    pair_alphabet = product_alphabet(AB, 2)
    done = 0
    for round_no in range(50):
        binary = rng.random() < 0.5
        aut = random_automaton(
            rng, max_states=3, alpha_bet=pair_alphabet if binary else AB
        )
        fam = RelationFamily((aut,), W2)
        K = k_const(fam)
        E = []
        if binary:
            anchors_draw = {
                Ordinal((rng.randint(0, 9), rng.randint(0, 9))): rng.choice("ab")
                for _ in range(rng.randint(0, 2))
            }
            E = [make_word(W2, anchors_draw.items(), AB)]
        v_draw = {
            Ordinal((rng.randint(0, 30), rng.randint(0, 1500))): rng.choice("ab")
            for _ in range(rng.randint(1, 3))
        }
        v = make_word(W2, v_draw.items(), AB)
        res = normalize(fam, E, v, max_steps=8192)
        anchors = sorted(frozenset().union(*(support(e) for e in E), {W2}))
        assert res.word.length == W2
        for p in support(res.word):
            assert u_contains(anchors, K, p), (p, K)
        # exhaustive equivalence: every relation, every parameter tuple
        assert equiv(fam, E, v, res.word)
        done += 1
    elapsed = time.time() - start
    assert elapsed < 600
    print(
        f"[PASS] criterion 5: {done} random normalizations land inside the "
        f"pigeonhole neighborhood and stay equivalent ({elapsed:.1f}s)"
    )


def test_criterion_6_gap_encoding_logic_pipeline():
    start = time.time()
    rng = random.Random(606)

    def random_w2_word():
        entries = {
            Ordinal((rng.randint(0, 5), rng.randint(0, 2))): rng.choice("ab")
            for _ in range(rng.randint(0, 4))
        }
        return make_word(W2, entries.items(), AB)

    # factoring: the finite-word abstraction decides transfinite runs
    for _ in range(25):
        aut = random_automaton(rng, max_states=3)
        pol = cap_policy([aut], W2)
        nfa = to_gap_nfa(aut, pol)
        for _ in range(20):
            w = random_w2_word()
            assert member(aut, w) == accepts_word(nfa, w)
    # complementation flips exactly
    for _ in range(10):
        aut = random_automaton(rng, max_states=3)
        pol = cap_policy([aut], W2)
        nfa = to_gap_nfa(aut, pol)
        comp = complement(nfa)
        for _ in range(20):
            w = random_w2_word()
            assert accepts_word(comp, w) != accepts_word(nfa, w)
    # the first-order layer is truth-correct on arithmetic
    pres = presburger_presentation()
    assert len(PRESBURGER_SENTENCES) >= 10
    for text, expected in PRESBURGER_SENTENCES:
        assert decide(parse_formula(text, SIG), pres) is expected, text
    # witnesses re-verify: decode and check the arithmetic they claim
    witnessed = 0
    cases = [
        ("(exists x (Plus x x x))", lambda v: v[0] + v[0] == v[0]),
        (
            "(exists x (exists y (and (Plus y y x) (not (= x y)))))",
            lambda v: v[1] + v[1] == v[0] and v[0] != v[1],
        ),
        (
            "(exists x (exists y (and (not (= x y)) (Plus x y y))))",
            lambda v: v[0] + v[1] == v[1] and v[0] != v[1],
        ),
    ]
    for text, check in cases:
        words = find_witness(parse_formula(text, SIG), pres)
        assert words is not None, text
        assert check([decode_natural(w) for w in words]), text
        witnessed += 1
    assert find_witness(
        parse_formula("(exists x (and (Plus x x x) (not (= x x))))", SIG), pres
    ) is None
    elapsed = time.time() - start
    assert elapsed < 600
    print(
        "[PASS] criterion 6: 500 factoring samples, 200 complement flips, "
        f"14 arithmetic sentences, {witnessed} verified witnesses ({elapsed:.1f}s)"
    )


def test_criterion_7_bit_graph_counts_double():
    start = time.time()
    rows = rado_growth_demo(max_n=4)
    assert [(r.n, r.nu) for r in rows] == [(n, 2**n) for n in range(5)]
    elapsed = time.time() - start
    assert elapsed < 300
    print(
        "[PASS] criterion 7: bit-graph distinguishable-vertex counts are "
        f"2^n for n <= 4 ({elapsed:.1f}s)"
    )


def test_criterion_8_growth_ratio_strictly_increases():
    start = time.time()
    rows = growth_bound_probe(max_stage=2, rng=random.Random(808))
    ratios = [r.ratio for r in rows]
    assert ratios == [Fraction(2 ** (n + 2)) for n in range(3)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.time() - start
    assert elapsed < 300
    print(
        "[PASS] criterion 8: count-to-parameter ratios 4, 8, 16 strictly "
        f"increase across the staged family ({elapsed:.1f}s)"
    )
