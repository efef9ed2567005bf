"""Finitely supported words over ordinal position sets.

A word of length alpha maps every position below alpha to a symbol,
with all but finitely many positions holding the alphabet's blank.
Storage is sparse: only the non-blank entries are kept, sorted by
position.  Restriction, concatenation and convolution are the three
workhorses; their position bookkeeping is plain ordinal arithmetic.

Symbols are either opaque scalars (typically one-character strings) or,
for convolutions, tuples of scalars.  A tuple symbol renders as its
components joined by ``|`` in literals and files.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .ordinals import (
    ONE,
    ZERO,
    Ordinal,
    add,
    format_ordinal,
    interval_type,
    parse_ordinal,
)

Symbol = object


class WordError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Alphabet:
    symbols: frozenset
    blank: Symbol
    base: "Alphabet | None" = field(default=None, compare=False)
    arity: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.blank not in self.symbols:
            raise WordError(f"blank {self.blank!r} not among symbols")

    @property
    def scalar(self) -> "Alphabet":
        """The alphabet of one track: ``base`` for a product, else itself."""
        return self.base if self.base is not None else self

    @property
    def tracks(self) -> int:
        """How many tracks a symbol carries: ``arity`` for a product, else 1."""
        return self.arity if self.arity is not None else 1

    def letters(self) -> list:
        """Non-blank symbols in a deterministic order."""
        return sorted((s for s in self.symbols if s != self.blank), key=repr)

    def __repr__(self) -> str:
        return f"Alphabet({sorted(map(repr, self.symbols))}, blank={self.blank!r})"


def alphabet(symbols: Iterable, blank: Symbol = "_") -> Alphabet:
    return Alphabet(frozenset(symbols) | {blank}, blank)


def product_alphabet(base: Alphabet, arity: int) -> Alphabet:
    """Componentwise product: tuple symbols, componentwise blank."""
    if arity < 1:
        raise WordError("product arity must be >= 1")
    syms = frozenset(itertools.product(sorted(base.symbols, key=repr), repeat=arity))
    return Alphabet(syms, (base.blank,) * arity, base=base, arity=arity)


@dataclass(frozen=True, slots=True)
class AlphaWord:
    length: Ordinal
    alphabet: Alphabet
    entries: tuple[tuple[Ordinal, Symbol], ...]  # sorted, non-blank only

    def at(self, pos: Ordinal) -> Symbol:
        if not pos < self.length:
            raise WordError(f"position {pos} out of range [0, {self.length})")
        for p, s in self.entries:
            if p == pos:
                return s
        return self.alphabet.blank

    def entry_map(self) -> dict:
        return dict(self.entries)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"AlphaWord({format_word(self)!r})"


def make_word(
    length: Ordinal, entries: Iterable[tuple[Ordinal, Symbol]], alpha_bet: Alphabet
) -> AlphaWord:
    """The word of ``length`` with the given entries, blanks dropped.

    Every symbol must be in the alphabet, every position below
    ``length``, and no non-blank position may repeat.  Each position's
    order key is computed once: it serves the range check, the
    duplicate check (equal ordinals have equal keys) and the sort.
    """
    seen: dict[tuple, tuple[Ordinal, Symbol]] = {}
    length_key = length._key()
    for pos, sym in entries:
        if sym not in alpha_bet.symbols:
            raise WordError(f"symbol {sym!r} not in alphabet")
        key = pos._key()
        if not key < length_key:
            raise WordError(f"entry position {pos} not below length {length}")
        if key in seen:
            raise WordError(f"duplicate entry at {pos}")
        if sym != alpha_bet.blank:
            seen[key] = (pos, sym)
    return AlphaWord(length, alpha_bet, tuple(seen[key] for key in sorted(seen)))


def blank_word(length: Ordinal, alpha_bet: Alphabet) -> AlphaWord:
    return AlphaWord(length, alpha_bet, ())


def support(w: AlphaWord) -> frozenset:
    return frozenset(p for p, _ in w.entries)


def sorted_support(w: AlphaWord) -> list[Ordinal]:
    return [p for p, _ in w.entries]


def gaps(w: AlphaWord) -> list[Ordinal]:
    """Order types of the n+1 blank stretches around a word's n entries."""
    starts = [ZERO] + [add(pos, ONE) for pos, _ in w.entries]
    ends = [pos for pos, _ in w.entries] + [w.length]
    return [interval_type(lo, hi) for lo, hi in zip(starts, ends)]


def from_gaps(length: Ordinal, stretches: Sequence[Ordinal], letters: Sequence[Symbol],
              alpha_bet: Alphabet) -> AlphaWord:
    """The word with blank stretches g0..gn around ``letters``, in order:
    the inverse of :func:`gaps`.  Needs g0 + 1 + g1 + ... + 1 + gn = length."""
    if len(stretches) != len(letters) + 1:
        raise WordError("need exactly one more gap than letters")
    entries = []
    cursor = stretches[0]
    for sym, g in zip(letters, stretches[1:]):
        if sym == alpha_bet.blank:
            raise WordError("letters between gaps must be non-blank")
        entries.append((cursor, sym))
        cursor = add(add(cursor, ONE), g)
    if cursor != length:
        raise WordError(f"gaps sum to {cursor}, expected {length}")
    return make_word(length, entries, alpha_bet)


def restrict(w: AlphaWord, lo: Ordinal, hi: Ordinal) -> AlphaWord:
    """The word w|[lo, hi), re-based at zero via interval types."""
    if lo > hi or hi > w.length:
        raise WordError(f"bad restriction bounds [{lo}, {hi}) for length {w.length}")
    new_len = interval_type(lo, hi)
    entries = tuple(
        (interval_type(lo, p), s) for p, s in w.entries if lo <= p and p < hi
    )
    return AlphaWord(new_len, w.alphabet, entries)


def concat(u: AlphaWord, v: AlphaWord) -> AlphaWord:
    """u followed by v; v's positions are shifted by len(u).

    Entries of u keep their positions.  Because len(u) + q is strictly
    monotone in q and at least len(u), the two entry families never
    collide and none are dropped.
    """
    if u.alphabet != v.alphabet:
        raise WordError("concat: alphabet mismatch")
    total = add(u.length, v.length)
    entries = u.entries + tuple((add(u.length, q), s) for q, s in v.entries)
    return AlphaWord(total, u.alphabet, tuple(sorted(entries, key=lambda e: e[0]._key())))


def convolve(ws: Sequence[AlphaWord]) -> AlphaWord:
    """Zip r same-length words into one word over the product alphabet."""
    if not ws:
        raise WordError("convolve needs at least one word")
    base = ws[0].alphabet
    length = ws[0].length
    for w in ws:
        if w.alphabet != base:
            raise WordError("convolve: alphabet mismatch")
        if w.length != length:
            raise WordError("convolve: length mismatch")
    prod = product_alphabet(base, len(ws))
    positions = sorted({p for w in ws for p in support(w)}, key=lambda o: o._key())
    maps = [w.entry_map() for w in ws]
    entries = tuple(
        (p, tuple(m.get(p, base.blank) for m in maps)) for p in positions
    )
    return AlphaWord(length, prod, entries)


def symbol_rank(base: Alphabet) -> dict:
    """Each symbol's rank in the order of words: the blank is least."""
    order = [base.blank] + base.letters()
    return {s: i for i, s in enumerate(order)}


def word_sort_key(w: AlphaWord):
    """Sort key for the order on words of one length: the largest
    differing position decides, and the blank is least.

    Entries listed from the highest position down compare
    lexicographically in exactly largest-difference order.
    """
    rank = symbol_rank(w.alphabet)
    return tuple((p._key(), rank[s]) for p, s in reversed(w.entries))


def component(w: AlphaWord, i: int) -> AlphaWord:
    """Drop to coordinate i of a product-alphabet word."""
    base = w.alphabet.base
    if base is None:
        raise WordError("component: word is not over a product alphabet")
    entries = tuple((p, s[i]) for p, s in w.entries if s[i] != base.blank)
    return AlphaWord(w.length, base, entries)


# -- symbol and word literals --------------------------------------------


def format_symbol(sym: Symbol) -> str:
    if isinstance(sym, tuple):
        return "|".join(str(c) for c in sym)
    return str(sym)


def parse_symbol(text: str) -> Symbol:
    return tuple(text.split("|")) if "|" in text else text


def format_word(w: AlphaWord) -> str:
    inner = ", ".join(
        f"{format_ordinal(p)}:{format_symbol(s)}" for p, s in w.entries
    )
    return f"len={format_ordinal(w.length)}; {{{inner}}}"


_WORD_RE = re.compile(r"len=(?P<len>[^;]+);\{(?P<entries>.*)\}$")


def parse_word(text: str, alpha_bet: Alphabet) -> AlphaWord:
    squeezed = re.sub(r"\s+", "", text)
    m = _WORD_RE.fullmatch(squeezed)
    if m is None:
        raise WordError(f"bad word literal: {text!r}")
    length = parse_ordinal(m.group("len"))
    entries = []
    body = m.group("entries")
    if body:
        for item in body.split(","):
            if ":" not in item:
                raise WordError(f"bad word entry: {item!r}")
            pos_text, sym_text = item.split(":", 1)
            entries.append((parse_ordinal(pos_text), parse_symbol(sym_text)))
    return make_word(length, entries, alpha_bet)
