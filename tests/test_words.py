import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordinalia.ordinals import OMEGA, ONE, ZERO, Ordinal, add, from_int, parse_ordinal
from ordinalia.words import (
    WordError,
    alphabet,
    blank_word,
    component,
    concat,
    convolve,
    format_word,
    from_gaps,
    gaps,
    make_word,
    parse_word,
    product_alphabet,
    restrict,
    sorted_support,
    support,
)

AB = alphabet({"a", "b"})
W2 = parse_ordinal("w^2")

positions = st.lists(st.integers(0, 5), min_size=1, max_size=3).map(
    lambda cs: Ordinal(tuple(cs))
)


def sparse_words(length_text="w^2"):
    length = parse_ordinal(length_text)

    @st.composite
    def build(draw):
        entries = draw(
            st.dictionaries(
                positions.filter(lambda p: p < length),
                st.sampled_from(["a", "b"]),
                max_size=4,
            )
        )
        return make_word(length, entries.items(), AB)

    return build()


def test_alphabet_always_contains_its_blank():
    assert alphabet({"a", "_"}) == alphabet({"a"})
    ab = alphabet({"x", "y"}, blank=".")
    assert ab.blank == "."
    assert "." in ab.symbols


def test_product_alphabet_blank_is_the_all_blank_tuple():
    p = product_alphabet(AB, 2)
    assert p.blank == ("_", "_")
    assert p.arity == 2
    assert p.base == AB
    assert ("a", "_") in p.symbols
    assert p.scalar is AB and p.tracks == 2
    assert AB.scalar is AB and AB.tracks == 1


def test_make_word_validates_positions_and_symbols():
    with pytest.raises(WordError):
        make_word(from_int(3), [(from_int(5), "a")], AB)
    with pytest.raises(WordError):
        make_word(OMEGA, [(from_int(1), "z")], AB)


def test_blank_entries_are_normalized_away():
    w = make_word(OMEGA, [(from_int(1), "_"), (from_int(2), "a")], AB)
    assert support(w) == frozenset({from_int(2)})


def test_word_literals():
    w = make_word(OMEGA, [(from_int(3), "a")], AB)
    assert format_word(w) == "len=w; {3:a}"
    assert parse_word("len=w; {3:a}", AB) == w
    assert parse_word("len=0; {}", AB) == blank_word(ZERO, AB)


def test_parse_word_rejects_out_of_range_entries():
    with pytest.raises(WordError):
        parse_word("len=w; {w:a}", AB)


def test_out_of_range_message_names_the_position_and_the_length():
    for _ in range(2):  # the second parse reads memoized ordinals
        with pytest.raises(WordError) as exc:
            parse_word("len=w^2; {3:a, w^2+1:b}", AB)
        assert str(exc.value) == "entry position w^2+1 not below length w^2"


@pytest.mark.parametrize("text", [
    "len=w^2; {w+1:a, 2:b, w + 1:b}",
    "len=w^2; {w+1:a, w*1+1:a}",
])
def test_one_position_spelt_twice_is_a_duplicate(text):
    for _ in range(2):
        with pytest.raises(WordError, match=r"^duplicate entry at w\+1$"):
            parse_word(text, AB)


@given(sparse_words())
def test_literal_round_trip(w):
    assert parse_word(format_word(w), AB) == w


@given(sparse_words())
def test_support_is_sorted_and_consistent(w):
    pts = sorted_support(w)
    assert pts == sorted(pts)
    assert frozenset(pts) == support(w)
    assert all(w.at(p) != "_" for p in pts)


@given(sparse_words(), positions)
def test_concat_restrict_splits_cleanly(w, cut):
    if not cut < w.length:
        return
    left = restrict(w, ZERO, cut)
    right = restrict(w, cut, w.length)
    assert left.length == cut
    assert add(cut, right.length) == w.length
    if add(cut, right.length) == w.length and concat(left, right).length == w.length:
        pasted = concat(left, right)
        for p in support(w) | support(pasted):
            assert pasted.at(p) == w.at(p)


def test_restrict_shifts_positions_to_the_origin():
    w = make_word(
        parse_ordinal("w^2"),
        [(parse_ordinal("w*2+3"), "a"), (parse_ordinal("w*4"), "b")],
        AB,
    )
    seg = restrict(w, parse_ordinal("w*2"), parse_ordinal("w*5"))
    assert seg.length == parse_ordinal("w*3")
    assert seg.at(from_int(3)) == "a"
    assert seg.at(parse_ordinal("w*2")) == "b"


@given(sparse_words(), sparse_words())
def test_convolution_components_round_trip(u, v):
    c = convolve([u, v])
    assert c.alphabet.arity == 2
    assert component(c, 0) == u
    assert component(c, 1) == v


def test_convolve_requires_equal_lengths():
    with pytest.raises(WordError):
        convolve([blank_word(OMEGA, AB), blank_word(from_int(2), AB)])


def test_component_on_scalar_word_rejected():
    with pytest.raises(WordError):
        component(blank_word(OMEGA, AB), 0)


def test_product_word_literal_round_trip():
    u = make_word(OMEGA, [(from_int(1), "a")], AB)
    v = make_word(OMEGA, [(from_int(1), "b"), (from_int(2), "a")], AB)
    c = convolve([u, v])
    text = format_word(c)
    assert "a|b" in text
    assert parse_word(text, c.alphabet) == c


# -- gaps: the blank stretches between letters ---------------------------


@pytest.mark.parametrize("length_text", ["w^2", "w^3", "w^2*3+w"])
@given(data=st.data())
def test_letter_positions_are_partial_sums_of_gaps(length_text, data):
    w = data.draw(sparse_words(length_text))
    stretches = gaps(w)
    assert len(stretches) == len(w.entries) + 1
    total = stretches[0]
    for (pos, _), g in zip(w.entries, stretches[1:]):
        assert pos == total
        total = add(add(total, ONE), g)
    assert total == w.length


@pytest.mark.parametrize("length_text", ["w^2", "w^3", "w^2*3+w"])
@given(data=st.data())
def test_from_gaps_inverts_gaps(length_text, data):
    w = data.draw(sparse_words(length_text))
    letters = [s for _, s in w.entries]
    assert from_gaps(w.length, gaps(w), letters, AB) == w


@pytest.mark.parametrize("stretches, letters, message", [
    ((from_int(3), W2), ("_",), "non-blank"),
    ((from_int(3), W2), (), "one more gap"),
    ((ZERO, ZERO), ("a",), "sum to 1"),
], ids=["blank-letter", "gap-count", "sum"])
def test_from_gaps_rejects_bad_input(stretches, letters, message):
    with pytest.raises(WordError, match=message):
        from_gaps(W2, stretches, letters, AB)
