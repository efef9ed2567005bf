"""Worked structures: the two-generator tree family, order/support relations,
and the base-2 arithmetic presentation.

Counting oracles here are deliberately dumb: explicit enumeration of the
finite stages, bit-twiddling for the numerals.
"""

import itertools

from ordinalia.examples import (
    AB,
    BITS,
    W2,
    accepted_count,
    decode_natural,
    dn_set,
    encode_natural,
    f_apply,
    f_automaton,
    generator_relations,
    presburger_domain,
    presburger_plus,
    subsupp_automaton,
    tn_automaton,
    tn_words,
    wellorder_automaton,
)
from ordinalia.ordinals import ZERO, from_int, parse_ordinal
from ordinalia.semantics import member
from ordinalia.words import (
    WordError,
    blank_word,
    convolve,
    make_word,
    support,
    symbol_rank,
    word_sort_key,
)

from conftest import random_finite_word


# ------------------------------------------------------------ tree stages


def test_dn_sets_grow_by_one_block():
    d0 = dn_set(0)
    d1 = dn_set(1)
    d2 = dn_set(2)
    assert len(d0) == 1 and len(d1) == 1 + len(d0) + 1 and len(d2) == 1 + len(d1) + 2
    assert all(a < b for a, b in zip(sorted(d1), sorted(d1)[1:]))
    assert d0 < d1 < d2  # strictly nested


def test_tn_sizes_double_then_square():
    assert [len(list(tn_words(n))) for n in range(4)] == [2, 8, 64, 1024]


def test_tn_words_are_distinct_and_supported_inside_dn():
    for n in range(3):
        words = list(tn_words(n))
        assert len(set(words)) == len(words)
        dn = dn_set(n)
        for w in words:
            assert set(support(w)) <= dn


def test_tn_automaton_agrees_with_enumeration():
    for n in range(3):
        aut = tn_automaton(n)
        good = set(tn_words(n))
        assert all(member(aut, w) for w in good)
        space = sorted(dn_set(n))
        assert accepted_count(aut, W2, space, ("a", "b")) == len(good)


def test_accepted_count_against_brute_force(rng):
    # independent check of the counter on a structure small enough to crawl
    aut = tn_automaton(1)
    # crawl the whole candidate space by hand and recount
    space = sorted(dn_set(1))
    total = 0
    for k in range(len(space) + 1):
        for poss in itertools.combinations(space, k):
            for syms in itertools.product("ab", repeat=k):
                total += member(aut, make_word(W2, zip(poss, syms), AB))
    assert accepted_count(aut, W2, space, ("a", "b")) == total


def test_closure_step_is_exactly_the_next_stage():
    for n in range(2):
        cur, nxt = list(tn_words(n)), set(tn_words(n + 1))
        built = set()
        for w, v in itertools.product(cur, repeat=2):
            for tag in ("a", "b"):
                built.add(f_apply(tag, w, v))
        assert built == nxt


def test_f_apply_keys_images_on_tag_w_and_block_starts_of_v():
    # the image forgets v everywhere except position 0 and the limit
    # positions, so collisions are exactly agreements on that data
    cur = list(tn_words(1))
    probe_positions = sorted(p for p in dn_set(1) if p == ZERO or p.is_limit)
    seen = {}
    for w, v in itertools.product(cur, repeat=2):
        for tag in ("a", "b"):
            u = f_apply(tag, w, v)
            assert u.at(ZERO) == tag
            key = (tag, w, tuple(v.at(p) for p in probe_positions))
            assert seen.setdefault(key, u) == u
    images = set(seen.values())
    assert len(images) == len(seen)  # distinct keys give distinct images


def test_f_automaton_matches_f_apply_exhaustively_at_stage_zero():
    # native track order is (w, v, image)
    for tag in ("a", "b"):
        aut = f_automaton(tag)
        cur = list(tn_words(0))
        for u in tn_words(1):
            for w, v in itertools.product(cur, repeat=2):
                expected = f_apply(tag, w, v) == u
                got = member(aut, convolve([w, v, u]))
                assert got == expected, (tag, u, w, v)


def test_f_automaton_matches_f_apply_sampled_at_stage_one(rng):
    cur = list(tn_words(1))
    for _ in range(60):
        tag = rng.choice(("a", "b"))
        w, v = rng.choice(cur), rng.choice(cur)
        u = f_apply(tag, w, v)
        assert member(f_automaton(tag), convolve([w, v, u]))
        # a perturbed image must be rejected
        other = rng.choice(cur)
        if f_apply(tag, w, other) != u:
            assert not member(f_automaton(tag), convolve([w, v, f_apply(tag, w, other)]))


def test_generator_relations_use_image_first_track_order():
    rels = generator_relations()
    assert len(rels) == 2
    w0 = list(tn_words(0))
    ua = f_apply("a", w0[0], w0[1])
    ub = f_apply("b", w0[0], w0[1])
    assert member(rels[0], convolve([ua, w0[0], w0[1]]))
    assert not member(rels[0], convolve([w0[0], ua, w0[1]]))
    assert member(rels[1], convolve([ub, w0[0], w0[1]]))
    assert not member(rels[1], convolve([ua, w0[0], w0[1]]))


# ------------------------------------------------------------ order/support


def compare_words(x, y) -> int:
    """-1/0/1 with the largest differing position deciding; blank least.

    The oracle for ``wellorder_automaton``: it reads symbols one position
    at a time and shares no code with the automaton or ``word_sort_key``.
    """
    if x.length != y.length or x.alphabet != y.alphabet:
        raise WordError("compare_words needs words of one length and alphabet")
    diffs = [p for p in {q for q, _ in x.entries} | {q for q, _ in y.entries}
             if x.at(p) != y.at(p)]
    if not diffs:
        return 0
    top = max(diffs)
    rank = symbol_rank(x.alphabet)
    return -1 if rank[x.at(top)] < rank[y.at(top)] else 1


def test_wellorder_automaton_matches_position_comparison(rng):
    # the automaton recognizes the reflexive order: u at-or-below v
    aut = wellorder_automaton(AB)
    for _ in range(100):
        u, _ = random_finite_word(rng, AB, max_len=6)
        v, _ = random_finite_word(rng, AB, max_len=6)
        # compare on a common length by re-making both words
        length = from_int(6)
        u6 = make_word(length, [(p, u.at(p)) for p in support(u)], AB)
        v6 = make_word(length, [(p, v.at(p)) for p in support(v)], AB)
        assert member(aut, convolve([u6, v6])) == (compare_words(u6, v6) <= 0)


def test_wellorder_is_a_total_order_on_a_small_universe():
    words = list(tn_words(1))
    aut = wellorder_automaton(AB)
    leq = {
        (u, v)
        for u, v in itertools.product(words, repeat=2)
        if member(aut, convolve([u, v]))
    }
    assert len(leq) == len(words) * (len(words) + 1) // 2
    for u in words:
        assert (u, u) in leq
    for u, v in itertools.product(words, repeat=2):
        if u != v:
            assert ((u, v) in leq) != ((v, u) in leq)
    for u, v, w in itertools.product(words, repeat=3):
        if (u, v) in leq and (v, w) in leq:
            assert (u, w) in leq


def test_word_sort_key_realizes_compare_words_across_supports():
    # words whose supports differ entirely, not just in their symbols
    words = [make_word(W2, [(pos, sym)], AB)
             for pos in (ZERO, from_int(3), parse_ordinal("w"), parse_ordinal("w*2+1"))
             for sym in ("a", "b")]
    words.append(blank_word(W2, AB))
    ordered = sorted(words, key=word_sort_key)
    for u, v in zip(ordered, ordered[1:]):
        assert compare_words(u, v) == -1


def test_subsupp_automaton_is_support_containment(rng):
    aut = subsupp_automaton(AB)
    for _ in range(100):
        u, _ = random_finite_word(rng, AB, max_len=5)
        v, _ = random_finite_word(rng, AB, max_len=5)
        length = from_int(5)
        u5 = make_word(length, [(p, u.at(p)) for p in support(u)], AB)
        v5 = make_word(length, [(p, v.at(p)) for p in support(v)], AB)
        expected = set(support(u5)) <= set(support(v5))
        assert member(aut, convolve([u5, v5])) == expected


# ------------------------------------------------------------ arithmetic


def test_numeral_codec_round_trips():
    for n in range(200):
        assert decode_natural(encode_natural(n)) == n


def test_numeral_words_are_least_significant_bit_first():
    w = encode_natural(6)  # binary 110
    assert w.at(ZERO) == "0"
    assert w.at(from_int(1)) == "1"
    assert w.at(from_int(2)) == "1"


def test_domain_accepts_exactly_valid_numerals(rng):
    dom = presburger_domain()
    for n in range(50):
        assert member(dom, encode_natural(n))
    # a blank below a set bit is not a numeral
    junk = make_word(parse_ordinal("w"), [(from_int(3), "1"), (from_int(1), "1")], BITS)
    assert not member(dom, junk)
    zero_padded = make_word(parse_ordinal("w"), [(from_int(0), "0"), (from_int(2), "1")], BITS)
    assert not member(dom, zero_padded)


def test_plus_relation_is_binary_addition():
    plus = presburger_plus()
    for a in range(13):
        for b in range(13):
            good = convolve([encode_natural(a), encode_natural(b), encode_natural(a + b)])
            assert member(plus, good), (a, b)
            bad = convolve([encode_natural(a), encode_natural(b), encode_natural(a + b + 1)])
            assert not member(plus, bad), (a, b)


def test_triangle_counts_on_the_wellorder_universe():
    # pairs in the reflexive order, counted two independent ways
    aut = wellorder_automaton(AB)
    words = list(tn_words(1))
    by_pairs = sum(
        1
        for u, v in itertools.product(words, repeat=2)
        if member(aut, convolve([u, v]))
    )
    n = len(words)
    assert by_pairs == n * (n + 1) // 2  # total order on 8 distinct words
