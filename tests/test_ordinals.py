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
