import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalia.ordinals import (
    MAX_COEFF,
    MAX_EXPONENT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    add,
    format_ordinal,
    from_int,
    interval_type,
    omega_power,
    parse_ordinal,
)

ordinals = st.lists(st.integers(0, 7), max_size=4).map(
    lambda cs: Ordinal(tuple(cs))
)


def test_zero_and_small_constants():
    assert ZERO.is_zero
    assert ZERO.degree == -1
    assert ONE.coeffs == (1,)
    assert OMEGA.coeffs == (0, 1)
    assert from_int(5) == Ordinal((5,))


def test_trailing_zero_coefficients_are_dropped():
    assert Ordinal((1, 0, 0)).coeffs == (1,)
    assert Ordinal((0, 0)).is_zero


def test_coefficient_out_of_range():
    with pytest.raises(OrdinalError):
        Ordinal((-1,))
    with pytest.raises(OrdinalError):
        Ordinal((MAX_COEFF + 1,))


def test_parse_format_round_trip():
    for text in ["0", "1", "w", "w+1", "w*2+1", "w^2", "w^3*4+w*2+7", "w^5*3"]:
        assert format_ordinal(parse_ordinal(text)) == text


def test_parse_rejects_misordered_terms():
    for bad in ["w+w^2", "1+w", "w+w", "w^2+w^2"]:
        with pytest.raises(OrdinalError):
            parse_ordinal(bad)


def test_parse_rejects_garbage():
    for bad in ["", "w^", "w**2", "2w", "w^-1", "+"]:
        with pytest.raises(OrdinalError):
            parse_ordinal(bad)


def test_parse_huge_exponent_guard():
    with pytest.raises(OrdinalError):
        parse_ordinal(f"w^{MAX_EXPONENT + 1}")


def test_omega_power():
    assert omega_power(0) == ONE
    assert omega_power(1) == OMEGA
    assert omega_power(2, 3).coeffs == (0, 0, 3)


def test_limits_and_successors():
    assert OMEGA.is_limit
    assert parse_ordinal("w^2*4").is_limit
    assert not parse_ordinal("w+1").is_limit
    assert parse_ordinal("w+1").is_successor
    assert not ZERO.is_limit and not ZERO.is_successor


def test_addition_absorbs_smaller_left_terms():
    assert add(ONE, OMEGA) == OMEGA
    assert add(OMEGA, ONE) == parse_ordinal("w+1")
    assert add(parse_ordinal("w^2+w*3"), parse_ordinal("w*5")) == parse_ordinal(
        "w^2+w*8"
    )
    assert add(parse_ordinal("w^2+3"), parse_ordinal("w*5")) == parse_ordinal(
        "w^2+w*5"
    )
    assert add(parse_ordinal("w*5"), parse_ordinal("w^2")) == parse_ordinal("w^2")


def test_addition_is_not_commutative():
    assert add(ONE, OMEGA) != add(OMEGA, ONE)


@given(ordinals, ordinals, ordinals)
def test_addition_is_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(ordinals)
def test_zero_is_neutral(a):
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a


@given(ordinals, ordinals, ordinals)
def test_addition_strictly_monotone_on_the_right(a, b, c):
    if b < c:
        assert add(a, b) < add(a, c)


@given(ordinals, ordinals)
def test_comparison_trichotomy(a, b):
    assert (a < b) + (a == b) + (b < a) == 1


@given(ordinals, ordinals)
def test_interval_type_recovers_the_difference(a, b):
    lo, hi = sorted((a, b))
    assert add(lo, interval_type(lo, hi)) == hi


def test_interval_type_rejects_descending():
    with pytest.raises(OrdinalError):
        interval_type(OMEGA, ONE)


def test_interval_type_examples():
    assert interval_type(ZERO, OMEGA) == OMEGA
    assert interval_type(parse_ordinal("w*5"), parse_ordinal("w^2")) == parse_ordinal(
        "w^2"
    )
    assert interval_type(parse_ordinal("w*2"), parse_ordinal("w*2+4")) == from_int(4)


@given(ordinals)
@settings(max_examples=40)
def test_format_parse_round_trip_random(a):
    assert parse_ordinal(format_ordinal(a)) == a


# -- the parse memo and over-long numerals ----------------------------------


@pytest.fixture
def fresh_parse_cache():
    """Clear the memo around a test that changes a parse limit: a result
    cached under one limit would otherwise bypass the other."""
    parse_ordinal.cache_clear()
    yield
    parse_ordinal.cache_clear()


def test_a_malformed_literal_raises_on_every_call():
    for bad in ["w+w^2", "2w", "", "w^"]:
        for _ in range(2):
            with pytest.raises(OrdinalError):
                parse_ordinal(bad)


@given(ordinals, st.lists(st.sampled_from([" ", "\t", "\n"]), max_size=6), st.randoms())
@settings(max_examples=40)
def test_parse_ignores_whitespace_through_the_memo(a, blanks, rnd):
    chars = list(format_ordinal(a))
    for blank in blanks:
        chars.insert(rnd.randint(0, len(chars)), blank)
    text = "".join(chars)
    assert parse_ordinal(text) == a
    assert parse_ordinal(text) == a  # a cache hit


@pytest.mark.parametrize("template, kind", [
    ("w^{}", "exponent"),
    ("w^{}*2", "exponent"),
    ("w^2*{}", "coefficient"),
    ("w*{}", "coefficient"),
    ("w+{}", "coefficient"),
    ("{}", "coefficient"),
])
def test_numerals_past_the_int_digit_limit_overflow(template, kind):
    nines = "9" * 5000
    with pytest.raises(OrdinalError) as exc:
        parse_ordinal(template.format(nines))
    assert str(exc.value) == f"{kind} overflow: {nines}"


def test_overflow_messages_name_the_value():
    with pytest.raises(OrdinalError, match=f"^coefficient overflow: {MAX_COEFF + 1}$"):
        parse_ordinal(f"w*{MAX_COEFF + 1}")
    with pytest.raises(OrdinalError, match=f"^coefficient overflow: {MAX_COEFF * 10}$"):
        parse_ordinal(f"w*00{MAX_COEFF * 10}")
    with pytest.raises(OrdinalError, match=f"^exponent overflow: {MAX_EXPONENT + 1}$"):
        parse_ordinal(f"w^{MAX_EXPONENT + 1}*{MAX_COEFF + 1}")
    with pytest.raises(OrdinalError, match="^exponent overflow: 10000000$"):
        parse_ordinal("w^10000000")
    assert parse_ordinal(str(MAX_COEFF)) == from_int(MAX_COEFF)


def test_leading_zeros_do_not_count_toward_a_numeral_length():
    zeros = "0" * 5000
    assert parse_ordinal(f"w^{zeros}2*{zeros}3+{zeros}7") == Ordinal((7, 0, 3))
    assert parse_ordinal(zeros) == ZERO
    assert parse_ordinal("\u0660" * 30 + "\u0665") == from_int(5)  # Arabic-Indic 0 and 5


def test_a_patched_limit_applies_after_a_cache_clear(fresh_parse_cache, monkeypatch):
    assert parse_ordinal("w^3*9") == Ordinal((0, 0, 0, 9))
    monkeypatch.setattr("ordinalia.ordinals.MAX_COEFF", 8)
    monkeypatch.setattr("ordinalia.ordinals.MAX_EXPONENT", 2)
    assert parse_ordinal("w^3*9").coeffs == (0, 0, 0, 9)  # the stale memo
    parse_ordinal.cache_clear()
    with pytest.raises(OrdinalError, match="^exponent overflow: 3$"):
        parse_ordinal("w^3*9")
    with pytest.raises(OrdinalError, match="^coefficient overflow: 9$"):
        parse_ordinal("w^2*9")
