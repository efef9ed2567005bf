"""Nondeterministic automata with limit transitions.

An automaton here reads words indexed by an ordinal.  Successor steps
use an ordinary transition relation; at each limit position the run
must jump to a state designated for the *set* of states visited
cofinally below that position.  Machines are immutable and compare by
identity; each carries a private memo in which the run-analysis layer
keeps the machine's tables compiled to rows of state bitmasks and what
it has computed about the machine, so the results live exactly as long
as the machine does.

Which cells of a wide symbol feed which track of a machine is decided
in one place, :func:`track_layout`.  :func:`reindex` builds the lifted
machine from it; the gap-NFA layer (:func:`ordinalia.gapcode.to_gap_nfa`)
reads the same map to lift a machine without building one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .words import Alphabet, Symbol, format_symbol, parse_symbol, product_alphabet

State = object


class AutomatonError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class OrdinalAutomaton:
    """States, alphabet, initial/final sets, successor and limit tables.

    ``succ`` maps (state, symbol) to a frozenset of successor states.
    ``limit`` maps a frozenset of states (those visited cofinally) to a
    frozenset of permitted continuation states.  Both tables are total
    in effect: missing keys mean the empty set.
    """

    states: frozenset
    alphabet: Alphabet
    initial: frozenset
    final: frozenset
    succ: Mapping
    limit: Mapping

    # Filled and read only by ordinalia.semantics.
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        succ = {k: frozenset(v) for k, v in self.succ.items() if v}
        limit = {frozenset(k): frozenset(v) for k, v in self.limit.items() if v}
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "limit", limit)

    def step(self, q: State, sym: Symbol) -> frozenset:
        return self.succ.get((q, sym), frozenset())

    @property
    def size(self) -> int:
        return len(self.states)


def validate(aut: OrdinalAutomaton) -> list[str]:
    """Everything that makes the machine ill-formed; empty when it is fine."""
    errors: list[str] = []
    if not aut.initial <= aut.states:
        errors.append("initial states not a subset of states")
    if not aut.final <= aut.states:
        errors.append("final states not a subset of states")
    for (q, s), targets in aut.succ.items():
        if q not in aut.states:
            errors.append(f"successor source {q!r} not a state")
        if s not in aut.alphabet.symbols:
            errors.append(f"successor symbol {s!r} not in alphabet")
        if not targets <= aut.states:
            errors.append(f"successor targets of ({q!r}, {s!r}) not states")
    for left, targets in aut.limit.items():
        if not left <= aut.states:
            errors.append(f"limit left set {sorted(map(repr, left))} not states")
        if not targets <= aut.states:
            errors.append("limit targets not a subset of states")
    return errors


def make_automaton(
    states: Iterable,
    alphabet: Alphabet,
    initial: Iterable,
    final: Iterable,
    succ: Mapping,
    limit: Mapping,
) -> OrdinalAutomaton:
    aut = OrdinalAutomaton(
        frozenset(states), alphabet, frozenset(initial), frozenset(final),
        dict(succ), dict(limit),
    )
    errors = validate(aut)
    if errors:
        raise AutomatonError("; ".join(errors))
    return aut


# -- constructions --------------------------------------------------------


def track_layout(ab: Alphabet, arity: int, coords: Sequence[int]) -> tuple:
    """The wide alphabet of ``arity`` tracks over ``ab``'s scalar one,
    and the map from each wide symbol to the symbol of ``ab`` it feeds.

    ``coords[i]`` says which coordinate of the wide symbol feeds the
    i-th track of ``ab``.  Repeats are allowed (equating tracks);
    unmentioned coordinates are unconstrained.  A plain (non-product)
    alphabet counts as one track.  With ``arity == 1`` the wide
    alphabet is the scalar one: a plain ``ab`` itself.
    """
    if len(coords) != ab.tracks:
        raise AutomatonError(
            f"reindex: expected {ab.tracks} coordinates, got {len(coords)}"
        )
    if any(c < 0 or c >= arity for c in coords):
        raise AutomatonError("reindex: coordinate out of range")
    plain = ab.scalar is ab
    wide = product_alphabet(ab.scalar, arity) if arity > 1 else ab.scalar
    narrow = {}
    for wsym in wide.symbols:
        cells = wsym if arity > 1 else (wsym,)
        narrow[wsym] = cells[coords[0]] if plain else tuple(cells[c] for c in coords)
    return wide, narrow


def reindex(aut: OrdinalAutomaton, arity: int, coords: Sequence[int]) -> OrdinalAutomaton:
    """Lift an automaton over Sigma^r to one over Sigma^arity, whose
    tracks ``coords`` feed it (:func:`track_layout`).  A one-track
    automaton lifted onto the scalar alphabet is returned as it is."""
    wide, narrow = track_layout(aut.alphabet, arity, coords)
    if wide is aut.alphabet:
        return aut
    succ = {(q, wsym): aut.step(q, sym)
            for wsym, sym in narrow.items() for q in aut.states}
    return OrdinalAutomaton(
        aut.states, wide, aut.initial, aut.final, succ, dict(aut.limit)
    )


def equality_automaton(base: Alphabet) -> OrdinalAutomaton:
    """Letterwise equality of two tracks, any length."""
    pair = product_alphabet(base, 2)
    q = "eq"
    succ = {(q, (s, s)): frozenset({q}) for s in base.symbols}
    limit = {frozenset({q}): frozenset({q})}
    return OrdinalAutomaton(
        frozenset({q}), pair, frozenset({q}), frozenset({q}), succ, limit
    )


# -- serialization ---------------------------------------------------------


def _state_name(q: State) -> str:
    return q if isinstance(q, str) else repr(q)


def automaton_to_dict(aut: OrdinalAutomaton) -> dict:
    names = {q: _state_name(q) for q in aut.states}
    if len(set(names.values())) != len(names):
        names = {q: f"s{i}" for i, q in enumerate(sorted(aut.states, key=repr))}
    succ = sorted(
        [names[q], format_symbol(s), names[t]]
        for (q, s), targets in aut.succ.items()
        for t in targets
    )
    limit = sorted(
        [sorted(names[q] for q in left), names[t]]
        for left, targets in aut.limit.items()
        for t in targets
    )
    return {
        "states": sorted(names.values()),
        "alphabet": sorted(format_symbol(s) for s in aut.alphabet.symbols),
        "blank": format_symbol(aut.alphabet.blank),
        "initial": sorted(names[q] for q in aut.initial),
        "final": sorted(names[q] for q in aut.final),
        "succ": succ,
        "limit": limit,
    }


def _strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise AutomatonError(f"automaton JSON: {what} must be a list of strings")
    return value


def automaton_from_dict(data: dict) -> OrdinalAutomaton:
    if not isinstance(data, dict):
        raise AutomatonError("automaton JSON must be an object")
    try:
        symbols = frozenset(map(parse_symbol, _strings(data["alphabet"], "alphabet")))
        blank = data["blank"]
        states = frozenset(_strings(data["states"], "states"))
        initial = frozenset(_strings(data["initial"], "initial"))
        final = frozenset(_strings(data["final"], "final"))
        raw_succ = data["succ"]
        raw_limit = data["limit"]
    except KeyError as exc:
        raise AutomatonError(f"automaton JSON missing field {exc}") from None
    if not isinstance(blank, str):
        raise AutomatonError("automaton JSON: blank must be a string")
    blank = parse_symbol(blank)
    if not isinstance(raw_succ, list) or not isinstance(raw_limit, list):
        raise AutomatonError("automaton JSON: succ and limit must be lists")
    arities = {len(s) if isinstance(s, tuple) else None for s in symbols | {blank}}
    if len(arities) != 1:
        raise AutomatonError("automaton JSON: symbols differ in track count")
    arity = arities.pop()
    if arity is not None:
        base = Alphabet(frozenset(c for s in symbols for c in s), blank[0])
        alpha_bet = product_alphabet(base, arity)
        if alpha_bet.symbols != symbols or alpha_bet.blank != blank:
            raise AutomatonError("automaton JSON: a tuple alphabet must be the full "
                                 "product of its track symbols, all-blank tuple as blank")
    else:
        alpha_bet = Alphabet(symbols, blank)
    succ: dict = {}
    for entry in raw_succ:
        if len(_strings(entry, "a succ entry")) != 3:
            raise AutomatonError(
                f"automaton JSON: succ entry {entry!r} is not [state, symbol, state]"
            )
        src, sym, dst = entry
        key = (src, parse_symbol(sym))
        succ[key] = succ.get(key, frozenset()) | {dst}
    limit: dict = {}
    for entry in raw_limit:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[1], str)):
            raise AutomatonError(
                f"automaton JSON: limit entry {entry!r} is not [[state, ...], state]"
            )
        key = frozenset(_strings(entry[0], "a limit left set"))
        limit[key] = limit.get(key, frozenset()) | {entry[1]}
    return make_automaton(states, alpha_bet, initial, final, succ, limit)


def save_automaton(aut: OrdinalAutomaton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(automaton_to_dict(aut), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_automaton(path: str) -> OrdinalAutomaton:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            # the schema nests a fixed few levels deep
            raise AutomatonError(f"automaton JSON: {path} nests too deeply") from None
    return automaton_from_dict(data)
