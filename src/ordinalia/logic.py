"""First-order queries over automaton-presented structures.

A presentation packages a domain automaton, named relation automata,
and an optional equality automaton (absent means identity is literal
word equality).  Formulas compile track-by-track into the classical
gap-NFA layer: conjunction is product, negation is complement, an
existential quantifier is projection of one track.  Compiled nodes are
exact on the tuples inside the domain and need be nothing more, so the
domain enters only at binders: each ∃, and the top for free variables.
Deciding a sentence then reduces to emptiness, and
existential sentences yield concrete witness words that are re-checked
against the original ordinal automata before being returned.

Free variables always appear in convolutions sorted by name, so the
track layout of every compiled formula is reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping

from . import automata as au
from . import gapcode as gc
from .automata import OrdinalAutomaton
from .ordinals import Ordinal, format_ordinal, parse_ordinal
from .semantics import ResourceLimitExceeded, member
from .words import Alphabet, AlphaWord, component, convolve

CONNECTIVES = {"and", "or", "not", "->"}
QUANTIFIERS = {"forall", "exists"}
#: Deepest formula parse_formula accepts; the tree walks that follow
#: recurse once or twice per level.
MAX_FORMULA_DEPTH = 200


class LogicError(ValueError):
    pass


# -- formulas ----------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """One node of a formula tree.

    kind is a quantifier ("forall"/"exists", with ``var`` bound in
    ``subs[0]``), a connective ("and"/"or"/"not"/"->"), or an atom
    ("atom" with ``rel`` and ``vars``, "eq" with two ``vars``).
    """

    kind: str
    var: str = ""
    rel: str = ""
    vars: tuple[str, ...] = ()
    subs: tuple["Formula", ...] = ()

    def __str__(self) -> str:
        return format_formula(self)


def format_formula(f: Formula) -> str:
    if f.kind in QUANTIFIERS:
        return f"({f.kind} {f.var} {format_formula(f.subs[0])})"
    if f.kind == "not":
        return f"(not {format_formula(f.subs[0])})"
    if f.kind in CONNECTIVES:
        return f"({f.kind} {format_formula(f.subs[0])} {format_formula(f.subs[1])})"
    if f.kind == "eq":
        return f"(= {f.vars[0]} {f.vars[1]})"
    return "(" + " ".join((f.rel,) + f.vars) + ")"


def free_variables(f: Formula) -> frozenset:
    if f.kind in QUANTIFIERS:
        return free_variables(f.subs[0]) - {f.var}
    if f.kind in CONNECTIVES:
        return frozenset().union(*(free_variables(s) for s in f.subs))
    return frozenset(f.vars)


_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def parse_formula(text: str, signature: Mapping | None = None) -> Formula:
    """Parse the s-expression grammar and run structural checks.

    ``signature`` maps relation names to arities; when given, unknown
    relations and arity mismatches are rejected here rather than at
    compile time.
    """
    tokens = _TOKEN.findall(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise LogicError("unexpected end of formula")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_node(depth: int) -> Formula:
        if depth > MAX_FORMULA_DEPTH:
            raise ResourceLimitExceeded(
                f"formula nests deeper than MAX_FORMULA_DEPTH = {MAX_FORMULA_DEPTH}"
            )
        tok = take()
        if tok != "(":
            raise LogicError(f"expected '(', got {tok!r}")
        head = take()
        if head in QUANTIFIERS:
            var = take()
            if not _NAME.match(var):
                raise LogicError(f"bad variable name {var!r}")
            body = parse_node(depth + 1)
            node = Formula(head, var=var, subs=(body,))
        elif head == "not":
            node = Formula("not", subs=(parse_node(depth + 1),))
        elif head in {"and", "or", "->"}:
            node = Formula(head, subs=(parse_node(depth + 1), parse_node(depth + 1)))
        elif head == "=":
            x, y = take(), take()
            for v in (x, y):
                if not _NAME.match(v):
                    raise LogicError(f"bad variable name {v!r}")
            node = Formula("eq", vars=(x, y))
        else:
            if not _NAME.match(head):
                raise LogicError(f"bad relation name {head!r}")
            args: list[str] = []
            while pos < len(tokens) and tokens[pos] != ")":
                v = take()
                if not _NAME.match(v):
                    raise LogicError(f"bad variable name {v!r}")
                args.append(v)
            node = Formula("atom", rel=head, vars=tuple(args))
        if take() != ")":
            raise LogicError("expected ')'")
        return node

    f = parse_node(1)
    if pos != len(tokens):
        raise LogicError(f"trailing input after formula: {tokens[pos:]}")
    _check_formula(f, frozenset(), signature)
    return f


def _check_formula(f: Formula, bound: frozenset, signature: Mapping | None) -> None:
    if f.kind in QUANTIFIERS:
        if f.var in bound:
            raise LogicError(f"variable {f.var!r} bound twice on one path")
        _check_formula(f.subs[0], bound | {f.var}, signature)
    elif f.kind in CONNECTIVES:
        for s in f.subs:
            _check_formula(s, bound, signature)
    elif f.kind == "atom":
        if not f.vars:
            raise LogicError(f"relation {f.rel!r} applied to no variables")
        if signature is not None:
            if f.rel not in signature:
                raise LogicError(f"unknown relation {f.rel!r}")
            if signature[f.rel] != len(f.vars):
                raise LogicError(
                    f"relation {f.rel!r} has arity {signature[f.rel]}, "
                    f"got {len(f.vars)} arguments"
                )


# -- presentations -----------------------------------------------------------


@dataclass
class Presentation:
    """A structure given by automata; treat instances as immutable.

    ``relations`` maps names to (arity, automaton); ``equality`` is
    None for injective presentations (identity = word equality).  The
    cap policy and the compiled building blocks are kept in a private
    memo on first use, which is what makes repeated decide() calls
    cheap.
    """

    alpha: Ordinal
    domain: OrdinalAutomaton
    relations: Mapping
    equality: OrdinalAutomaton | None = None

    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        base = self.base_alphabet
        for name, (arity, aut) in self.relations.items():
            got = aut.alphabet.tracks
            if got != arity:
                raise LogicError(f"relation {name!r}: automaton has {got} tracks, "
                                 f"declared arity {arity}")
            if aut.alphabet.scalar != base:
                raise LogicError(f"relation {name!r}: alphabet mismatch")
        if self.equality is not None and (
            self.equality.alphabet.arity != 2
            or self.equality.alphabet.scalar != base
        ):
            raise LogicError("equality automaton must be binary over the alphabet")

    @property
    def base_alphabet(self) -> Alphabet:
        return self.domain.alphabet.scalar

    @property
    def signature(self) -> dict:
        return {name: arity for name, (arity, _) in self.relations.items()}

    def policy(self) -> gc.CapPolicy:
        policy = self._memo.get("policy")
        if policy is None:
            working = [self.domain]
            working += [aut for _, aut in self.relations.values()]
            working.append(self.equality_automaton)
            policy = self._memo["policy"] = gc.cap_policy(working, self.alpha)
        return policy

    @property
    def equality_automaton(self) -> OrdinalAutomaton:
        if self.equality is not None:
            return self.equality
        # one machine, so its run analysis is shared by every eq atom
        letterwise = self._memo.get("equality")
        if letterwise is None:
            letterwise = au.equality_automaton(self.base_alphabet)
            self._memo["equality"] = letterwise
        return letterwise


def presentation_to_dict(pres: Presentation) -> dict:
    return {
        "alpha": format_ordinal(pres.alpha),
        "domain": au.automaton_to_dict(pres.domain),
        "relations": {
            name: {"arity": arity, "automaton": au.automaton_to_dict(aut)}
            for name, (arity, aut) in sorted(pres.relations.items())
        },
        "equality": (
            "letterwise"
            if pres.equality is None
            else au.automaton_to_dict(pres.equality)
        ),
    }


def presentation_from_dict(data: dict) -> Presentation:
    if not isinstance(data, dict):
        raise LogicError("malformed presentation: not a JSON object")
    try:
        raw_alpha, raw_relations = data["alpha"], data["relations"]
        domain = au.automaton_from_dict(data["domain"])
    except KeyError as exc:
        raise LogicError(f"malformed presentation: missing field {exc}") from None
    if not isinstance(raw_alpha, str):
        raise LogicError("malformed presentation: alpha must be an ordinal literal")
    if not isinstance(raw_relations, dict):
        raise LogicError("malformed presentation: relations must be an object")
    relations = {}
    for name, entry in raw_relations.items():
        if not (isinstance(entry, dict) and "automaton" in entry
                and type(entry.get("arity")) is int):
            raise LogicError(f"malformed presentation: relation {name!r} needs "
                             "an integer arity and an automaton")
        relations[name] = (entry["arity"], au.automaton_from_dict(entry["automaton"]))
    raw_eq = data.get("equality", "letterwise")
    equality = None if raw_eq == "letterwise" else au.automaton_from_dict(raw_eq)
    return Presentation(parse_ordinal(raw_alpha), domain, relations, equality)


def save_presentation(pres: Presentation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_dict(pres), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_presentation(path: str) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            # the schema nests a fixed few levels deep
            raise LogicError(f"malformed presentation: {path} nests too deeply") from None
    return presentation_from_dict(data)


# -- compilation -------------------------------------------------------------


def _atom_nfa(pres: Presentation, aut: OrdinalAutomaton,
              n: int, coords: tuple[int, ...]) -> gc.GapNFA:
    """Words over n tracks that ``aut`` accepts on the tracks ``coords``."""
    cached = pres._memo.get(("atom", aut, n, coords))
    if cached is None:
        cached = gc.to_gap_nfa(aut, pres.policy(), n, coords)
        pres._memo[("atom", aut, n, coords)] = cached
    return cached


def _domain_product(pres: Presentation, n: int) -> gc.GapNFA:
    cached = pres._memo.get(("domain", n))
    if cached is None:
        cached = _atom_nfa(pres, pres.domain, n, (0,))
        for track in range(1, n):
            cached = gc.nfa_product(cached, _atom_nfa(pres, pres.domain, n, (track,)))
        pres._memo[("domain", n)] = cached
    return cached


def _domain_word(pres: Presentation) -> AlphaWord | None:
    """The least word of the domain, or None when the domain is empty."""
    if "domain_word" not in pres._memo:
        pres._memo["domain_word"] = gc.emptiness_witness(_domain_product(pres, 1))
    return pres._memo["domain_word"]


def _compile(f: Formula, pres: Presentation, ambient: tuple[str, ...]) -> gc.GapNFA:
    """Gap NFA over ``ambient``, exact on the tuples inside the domain:
    atoms, product, union and complement act word by word, and an ∃
    relativizes its own track before projecting."""
    n = len(ambient)
    if f.kind == "atom":
        arity, aut = pres.relations[f.rel]
        if arity != len(f.vars):
            raise LogicError(f"relation {f.rel!r} expects {arity} arguments")
        coords = tuple(ambient.index(v) for v in f.vars)
        return _atom_nfa(pres, aut, n, coords)
    if f.kind == "eq":
        coords = tuple(ambient.index(v) for v in f.vars)
        return _atom_nfa(pres, pres.equality_automaton, n, coords)
    if f.kind == "and":
        return gc.nfa_product(
            _compile(f.subs[0], pres, ambient), _compile(f.subs[1], pres, ambient)
        )
    if f.kind == "or":
        return gc.nfa_union(
            _compile(f.subs[0], pres, ambient), _compile(f.subs[1], pres, ambient)
        )
    if f.kind == "->":
        return gc.nfa_union(
            _compile(Formula("not", subs=(f.subs[0],)), pres, ambient),
            _compile(f.subs[1], pres, ambient),
        )
    if f.kind == "not":
        return gc.complement(_compile(f.subs[0], pres, ambient))
    if f.kind == "exists":
        inner = tuple(sorted(set(ambient) | {f.var}))
        if len(inner) == len(ambient):
            raise LogicError(f"variable {f.var!r} already in scope")
        idx = inner.index(f.var)
        body = _compile(f.subs[0], pres, inner)
        body = gc.nfa_product(body, _atom_nfa(pres, pres.domain, len(inner), (idx,)))
        return gc.exists_project(body, idx)
    if f.kind == "forall":
        rewritten = Formula(
            "not", subs=(Formula("exists", var=f.var,
                                 subs=(Formula("not", subs=(f.subs[0],)),)),)
        )
        return _compile(rewritten, pres, ambient)
    raise LogicError(f"unknown formula kind {f.kind!r}")


def compile_formula(f: Formula, pres: Presentation) -> gc.GapNFA:
    """Gap NFA of the free-variable convolutions satisfying ``f``.

    Tracks are the free variables sorted by name.  :func:`_compile` is
    exact only on tuples inside the domain, so the result is its product
    with every track's domain atom, once.  Like every gap NFA it is read
    through the shape: its shape-valid accepted words are the shadows of
    the satisfying convolutions, and it may accept invalid words too.
    """
    free = tuple(sorted(free_variables(f)))
    if not free:
        raise LogicError("compile_formula needs at least one free variable; "
                         "use decide() for sentences")
    _check_formula(f, frozenset(), pres.signature)
    body = _compile(f, pres, free)
    return gc.nfa_product(body, _domain_product(pres, len(free)))


def decide(f: Formula, pres: Presentation) -> bool:
    """Truth value of a sentence over the presented structure."""
    if free_variables(f):
        raise LogicError(f"not a sentence; free variables {sorted(free_variables(f))}")
    if f.kind == "and":
        return decide(f.subs[0], pres) and decide(f.subs[1], pres)
    if f.kind == "or":
        return decide(f.subs[0], pres) or decide(f.subs[1], pres)
    if f.kind == "->":
        return (not decide(f.subs[0], pres)) or decide(f.subs[1], pres)
    if f.kind == "not":
        return not decide(f.subs[0], pres)
    if f.kind == "forall":
        flipped = Formula("exists", var=f.var,
                          subs=(Formula("not", subs=(f.subs[0],)),))
        return not decide(flipped, pres)
    if f.kind == "exists":
        if f.var not in free_variables(f.subs[0]):
            # a vacuous quantifier: the domain is nonempty and the body holds
            return _domain_word(pres) is not None and decide(f.subs[0], pres)
        lang = compile_formula(f.subs[0], pres)
        return gc.emptiness_witness(lang) is not None
    raise LogicError("an atom cannot be a sentence")


def find_witness(f: Formula, pres: Presentation):
    """Words witnessing an existential sentence, or None.

    The sentence must be a block of existentials over a quantifier-free
    matrix.  Returned words follow the order the variables are bound
    in; a bound variable the matrix never mentions gets any domain word.
    Each witness is re-verified atom by atom, and checked to lie in the
    domain, through direct membership before being handed back.
    """
    if free_variables(f):
        raise LogicError("find_witness needs a sentence")
    prefix: list[str] = []
    matrix = f
    while matrix.kind == "exists":
        prefix.append(matrix.var)
        matrix = matrix.subs[0]
    if not prefix:
        raise LogicError("find_witness needs an outermost existential block")
    _require_quantifier_free(matrix)
    if not free_variables(matrix):
        raise LogicError("matrix mentions none of the quantified variables")
    lang = compile_formula(matrix, pres)
    word = gc.emptiness_witness(lang)
    if word is None:
        return None
    ambient = tuple(sorted(free_variables(matrix)))
    if len(ambient) == 1:
        assignment = {ambient[0]: word}
    else:
        assignment = {v: component(word, i) for i, v in enumerate(ambient)}
    if not _eval_quantifier_free(matrix, pres, assignment):
        raise LogicError("witness failed re-verification; compilation bug")
    missing = [v for v in prefix if v not in assignment]
    if missing:
        anything = _domain_word(pres)
        if anything is None:
            return None
        assignment.update((v, anything) for v in missing)
    if not all(member(pres.domain, w) for w in assignment.values()):
        raise LogicError("witness word outside the domain; compilation bug")
    return tuple(assignment[v] for v in prefix)


def _require_quantifier_free(f: Formula) -> None:
    if f.kind in QUANTIFIERS:
        raise LogicError("find_witness expects a quantifier-free matrix")
    for s in f.subs:
        _require_quantifier_free(s)


def _eval_quantifier_free(f: Formula, pres: Presentation, assignment: Mapping) -> bool:
    if f.kind == "and":
        return all(_eval_quantifier_free(s, pres, assignment) for s in f.subs)
    if f.kind == "or":
        return any(_eval_quantifier_free(s, pres, assignment) for s in f.subs)
    if f.kind == "->":
        a, b = f.subs
        return (not _eval_quantifier_free(a, pres, assignment)) or (
            _eval_quantifier_free(b, pres, assignment)
        )
    if f.kind == "not":
        return not _eval_quantifier_free(f.subs[0], pres, assignment)
    if f.kind == "eq":
        x, y = (assignment[v] for v in f.vars)
        if pres.equality is None:
            return x == y
        return member(pres.equality, convolve([x, y]))
    if f.kind == "atom":
        _, aut = pres.relations[f.rel]
        words = [assignment[v] for v in f.vars]
        w = words[0] if len(words) == 1 else convolve(words)
        return member(aut, w)
    raise LogicError(f"not quantifier-free: {f.kind}")
