"""Cantor-normal-form arithmetic for ordinals below w^w.

An ordinal is stored as its coefficient vector ``(c0, c1, ..., cd)``,
read as ``w^d*cd + ... + w*c1 + c0``.  The vector is kept canonical
(the highest entry is nonzero; zero is the empty vector), so structural
equality is ordinal equality.  Everything here is immutable and pure.

Coefficients are bounded naturals: exceeding ``MAX_COEFF`` raises
``OrdinalError`` instead of silently wrapping or bignum-growing, which
keeps downstream counting arguments honest about their ranges.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

MAX_COEFF = 2**63 - 1
MAX_EXPONENT = 100_000


class OrdinalError(ValueError):
    """Raised for malformed literals, overflow, or undefined operations."""


@dataclass(frozen=True, slots=True)
class Ordinal:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise OrdinalError(f"coefficients must be naturals, got {c!r}")
            if c > MAX_COEFF:
                raise OrdinalError(f"coefficient overflow: {c}")
        if len(cs) > MAX_EXPONENT:
            raise OrdinalError(f"exponent overflow: degree {len(cs) - 1}")
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 for zero."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if i < 0:
            raise OrdinalError("negative exponent")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    @property
    def is_limit(self) -> bool:
        """Nonzero with no finite part."""
        return bool(self.coeffs) and self.coeffs[0] == 0

    @property
    def is_successor(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0] != 0

    # -- order ----------------------------------------------------------

    def _key(self) -> tuple:
        return (len(self.coeffs), self.coeffs[::-1])

    def __lt__(self, other: "Ordinal") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Ordinal") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Ordinal") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Ordinal") -> bool:
        return self._key() >= other._key()

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return add(self, other)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


ZERO = Ordinal()
ONE = Ordinal((1,))
OMEGA = Ordinal((0, 1))


def from_int(n: int) -> Ordinal:
    return Ordinal((n,)) if n else ZERO


def omega_power(k: int, coeff: int = 1) -> Ordinal:
    """w^k * coeff."""
    if k < 0:
        raise OrdinalError("negative exponent")
    if k > MAX_EXPONENT:
        raise OrdinalError(f"exponent overflow: {k}")
    return Ordinal((0,) * k + (coeff,)) if coeff else ZERO


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum.  Non-commutative: the low part of ``a`` below the
    leading exponent of ``b`` is absorbed."""
    if b.is_zero:
        return a
    j = b.degree
    high = a.coeffs[j + 1 :] if j + 1 <= len(a.coeffs) else ()
    merged = b.coeffs[:j] + (a.coefficient(j) + b.coeffs[j],) + high
    return Ordinal(merged)


def interval_type(g: Ordinal, d: Ordinal) -> Ordinal:
    """The unique e with g + e = d, i.e. the order type of [g, d).

    Requires g <= d.
    """
    if g > d:
        raise OrdinalError(f"interval_type: {g} > {d}")
    if g == d:
        return ZERO
    # Find the highest exponent where they disagree; everything of d
    # below that point is copied, the disagreeing coefficient is
    # subtracted, everything above must already match.
    j = max(len(g.coeffs), len(d.coeffs)) - 1
    while g.coefficient(j) == d.coefficient(j):
        j -= 1
    if g.coefficient(j) > d.coefficient(j):
        raise OrdinalError(f"interval_type: {g} > {d}")
    merged = d.coeffs[:j] + (d.coefficient(j) - g.coefficient(j),)
    return Ordinal(merged)


# -- literals -----------------------------------------------------------

_TERM = re.compile(
    r"w\^(?P<exp>\d+)(\*(?P<c1>\d+))?$|w(\*(?P<c2>\d+))?$|(?P<nat>\d+)$"
)


#: Distinct literals ``parse_ordinal`` remembers.  A word file repeats a
#: few hundred position literals across thousands of entries.
PARSE_CACHE_SIZE = 4096


def _numeral(digits: str, limit: int, what: str) -> int:
    """The value of a decimal numeral, or ``OrdinalError`` above ``limit``.

    A numeral with more significant digits than ``limit`` is refused
    before ``int`` sees it: ``int`` refuses numerals past Python's digit
    limit with a plain ``ValueError``.  The message is the same either
    way, since the significant digits are the value's decimal text.
    """
    if not digits.isascii():  # ``\d`` matches the digits of every script
        digits = "".join(str(int(ch)) for ch in digits)
    significant = digits.lstrip("0") or "0"
    if len(significant) > len(str(limit)):
        raise OrdinalError(f"{what} overflow: {significant}")
    value = int(significant)
    if value > limit:
        raise OrdinalError(f"{what} overflow: {value}")
    return value


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_ordinal(text: str) -> Ordinal:
    """Parse ``0 | term (+ term)*`` where a term is one of
    ``w^k*m``, ``w^k``, ``w*m``, ``w``, ``m``.  Exponents must strictly
    decrease left to right.  Whitespace is ignored.

    Results are memoized by ``text`` (``PARSE_CACHE_SIZE`` entries);
    ``Ordinal`` is frozen, so callers may share them.  A malformed or
    overflowing literal raises on every call, since no exception is
    cached.  The limits ``MAX_COEFF`` and ``MAX_EXPONENT`` are read at
    parse time, so code that changes them must call
    ``parse_ordinal.cache_clear()`` first, or a cached result bypasses
    the new limit.
    """
    squeezed = re.sub(r"\s+", "", text)
    if not squeezed:
        raise OrdinalError("empty ordinal literal")
    coeffs: dict[int, int] = {}
    last_exp: int | None = None
    for part in squeezed.split("+"):
        m = _TERM.fullmatch(part)
        if m is None:
            raise OrdinalError(f"bad ordinal term: {part!r}")
        if m.group("nat") is not None:
            exp, digits = 0, m.group("nat")
        elif m.group("exp") is not None:
            exp = _numeral(m.group("exp"), MAX_EXPONENT, "exponent")
            digits = m.group("c1")
        else:
            exp, digits = 1, m.group("c2")
        coeff = _numeral(digits, MAX_COEFF, "coefficient") if digits else 1
        if last_exp is not None and exp >= last_exp:
            raise OrdinalError(
                f"exponents must strictly decrease: w^{exp} after w^{last_exp}"
            )
        last_exp = exp
        coeffs[exp] = coeff
    top = max(coeffs)
    return Ordinal(tuple(coeffs.get(i, 0) for i in range(top + 1)))


def format_ordinal(a: Ordinal) -> str:
    """Inverse of parse_ordinal on canonical values."""
    if a.is_zero:
        return "0"
    parts = []
    for k in range(a.degree, -1, -1):
        c = a.coefficient(k)
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("w" if c == 1 else f"w*{c}")
        else:
            parts.append(f"w^{k}" if c == 1 else f"w^{k}*{c}")
    return "+".join(parts)

