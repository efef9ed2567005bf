"""First-order layer over the automatic presentation machinery.

The Presburger presentation is the workhorse here because every sentence in
the battery is an ordinary arithmetic fact that can be checked by eye.
"""

import itertools
import random

import pytest

from ordinalia import automata, logic
from ordinalia.examples import (
    AB,
    PRESBURGER_SENTENCES,
    decode_natural,
    encode_natural,
    presburger_presentation,
    wellorder_automaton,
)
from ordinalia.logic import (
    LogicError,
    Presentation,
    compile_formula,
    decide,
    find_witness,
    format_formula,
    free_variables,
    load_presentation,
    parse_formula,
    presentation_from_dict,
    presentation_to_dict,
    save_presentation,
)
from ordinalia.ordinals import from_int, parse_ordinal
from ordinalia.words import AlphaWord, product_alphabet

from conftest import classical_accepts, random_automaton

SIG = {"Plus": 3, "=": 2}


@pytest.fixture(scope="module")
def pres():
    return presburger_presentation()


# ---------------------------------------------------------------- parsing


def test_parse_format_round_trip():
    texts = [
        "(exists x (Plus x x x))",
        "(forall x (exists y (and (Plus x y x) (not (= x y)))))",
        "(forall x (-> (Plus x x x) (= x x)))",
        "(or (= x y) (= y x))",
    ]
    for text in texts:
        f = parse_formula(text, SIG)
        assert format_formula(f) == text
        assert format_formula(parse_formula(format_formula(f), SIG)) == text


def test_parse_rejects_rebinding():
    with pytest.raises(LogicError):
        parse_formula("(exists x (forall x (= x x)))", SIG)


def test_parse_rejects_wrong_arity():
    with pytest.raises(LogicError):
        parse_formula("(Plus x y)", SIG)
    with pytest.raises(LogicError):
        parse_formula("(= x y z)", SIG)


def test_parse_rejects_unknown_relation():
    with pytest.raises(LogicError):
        parse_formula("(Times x y z)", SIG)


def test_parse_rejects_garbage():
    for bad in ["", "(", "((", "(exists)", "(exists x)", "(and (= x y))", ")"]:
        with pytest.raises(LogicError):
            parse_formula(bad, SIG)


def test_free_variables():
    assert free_variables(parse_formula("(Plus x y z)", SIG)) == {"x", "y", "z"}
    assert free_variables(parse_formula("(exists x (Plus x y z))", SIG)) == {"y", "z"}
    assert free_variables(parse_formula("(forall x (exists y (Plus x y y)))", SIG)) == set()


# ---------------------------------------------------------------- deciding


def test_presburger_battery(pres):
    """Each sentence is a pencil-and-paper arithmetic fact."""
    for text, expected in PRESBURGER_SENTENCES:
        assert decide(parse_formula(text, SIG), pres) is expected, text


def test_equality_is_reflexive_and_nothing_differs_from_itself(pres):
    assert decide(parse_formula("(forall x (= x x))", SIG), pres)
    assert not decide(parse_formula("(exists x (not (= x x)))", SIG), pres)


def test_letterwise_equality_is_one_machine(pres):
    # every eq atom then shares the run analysis done for the cap policy
    assert pres.equality is None
    assert pres.equality_automaton is pres.equality_automaton


def test_decide_handles_boolean_sentence_structure(pres):
    t = "(exists x (Plus x x x))"
    f = "(forall x (Plus x x x))"
    assert decide(parse_formula(f"(and {t} (not {f}))", SIG), pres)
    assert not decide(parse_formula(f"(and {t} {f})", SIG), pres)
    assert decide(parse_formula(f"(or {f} {t})", SIG), pres)
    assert decide(parse_formula(f"(-> {f} {f})", SIG), pres)
    assert not decide(parse_formula(f"(-> {t} {f})", SIG), pres)


def test_decide_never_reindexes(monkeypatch):
    # atoms are lifted onto their tracks inside the gap-NFA layer
    def refused(*args):
        raise AssertionError("decide built a reindexed automaton")

    monkeypatch.setattr(automata, "reindex", refused)
    everything = automata.make_automaton({"d"}, AB, {"d"}, {"d"},
                                         {("d", s): {"d"} for s in AB.symbols},
                                         {frozenset({"d"}): {"d"}})
    order = Presentation(parse_ordinal("w^2"), everything,
                         {"Le": (2, wellorder_automaton(AB))})
    antisymmetric = "(forall x (forall y (-> (and (Le x y) (Le y x)) (= x y))))"
    assert decide(parse_formula(antisymmetric, order.signature), order) is True
    arithmetic = presburger_presentation()
    commutative = "(forall x (forall y (forall z (-> (Plus x y z) (Plus y x z)))))"
    assert decide(parse_formula(commutative, arithmetic.signature), arithmetic) is True


def test_decide_rejects_open_formulas(pres):
    with pytest.raises(LogicError):
        decide(parse_formula("(Plus x y z)", SIG), pres)


def test_decide_reads_vacuous_quantifiers(pres):
    """A quantified variable the body never uses: the domain is nonempty."""
    for text in ["(exists x (exists y (Plus y y y)))",
                 "(forall x (exists y (Plus y y y)))"]:
        assert decide(parse_formula(text, SIG), pres) is True, text
    assert not decide(parse_formula("(exists x (forall y (Plus y y y)))", SIG), pres)


# ---------------------------------------------------------------- witnesses


def test_witness_for_doubling(pres):
    f = parse_formula("(exists x (exists y (Plus y y x)))", SIG)
    words = find_witness(f, pres)
    assert words is not None and len(words) == 2
    x, y = (decode_natural(w) for w in words)
    assert y + y == x


def test_witness_re_verifies_atoms(pres):
    f = parse_formula(
        "(exists x (exists y (and (Plus x y y) (not (= x y)))))", SIG
    )
    words = find_witness(f, pres)
    assert words is not None
    x, y = (decode_natural(w) for w in words)
    assert x + y == y and x != y  # forces x = 0, y >= 1


def test_witness_none_when_no_solution_exists(pres):
    f = parse_formula("(exists x (and (Plus x x x) (not (= x x))))", SIG)
    assert find_witness(f, pres) is None


def test_witness_rejects_non_existential_prefix(pres):
    with pytest.raises(LogicError):
        find_witness(parse_formula("(forall x (= x x))", SIG), pres)


def test_witness_rejects_quantified_matrix(pres):
    f = parse_formula("(exists x (forall y (Plus y x y)))", SIG)
    with pytest.raises(LogicError):
        find_witness(f, pres)


def test_witness_words_live_in_the_domain(pres):
    f = parse_formula("(exists x (= x x))", SIG)
    (w,) = find_witness(f, pres)
    assert encode_natural(decode_natural(w)) == w


@pytest.mark.parametrize("text, y_at", [
    ("(exists x (exists y (Plus y y y)))", 1),
    ("(exists y (exists x (Plus y y y)))", 0),
])
def test_witness_for_a_vacuous_existential(pres, text, y_at):
    """x is never used, so any domain word witnesses it."""
    words = find_witness(parse_formula(text, SIG), pres)
    assert words is not None and len(words) == 2
    for w in words:
        assert encode_natural(decode_natural(w)) == w
    assert decode_natural(words[y_at]) == 0


def test_witness_outside_the_domain_is_rejected(pres, monkeypatch):
    from ordinalia.words import parse_word

    # 0 + 0 = 0 holds digitwise, but a leading zero digit is no numeral
    junk = parse_word("len=w; {0:0}", pres.base_alphabet)
    monkeypatch.setattr(logic.gc, "emptiness_witness", lambda nfa: junk)
    with pytest.raises(LogicError, match="domain"):
        find_witness(parse_formula("(exists x (Plus x x x))", SIG), pres)


# ---------------------------------------------------------------- compiling


def test_compile_open_formula_recognizes_solution_tuples(pres):
    from ordinalia.gapcode import accepts_word
    from ordinalia.words import convolve

    nfa = compile_formula(parse_formula("(Plus x y z)", SIG), pres)
    for a, b in [(0, 0), (1, 2), (3, 3), (5, 0)]:
        good = convolve(
            [
                encode_natural(a),
                encode_natural(b),
                encode_natural(a + b),
            ]
        )
        bad = convolve(
            [
                encode_natural(a),
                encode_natural(b),
                encode_natural(a + b + 1),
            ]
        )
        assert accepts_word(nfa, good)
        assert not accepts_word(nfa, bad)


def test_compile_negation_stays_inside_the_domain(pres):
    from ordinalia.gapcode import accepts_word
    from ordinalia.words import blank_word

    nfa = compile_formula(parse_formula("(not (= x y))", SIG), pres)
    from ordinalia.words import convolve

    pair = convolve([encode_natural(2), encode_natural(3)])
    same = convolve([encode_natural(2), encode_natural(2)])
    assert accepts_word(nfa, pair)
    assert not accepts_word(nfa, same)
    # a track that is not a valid numeral is outside the domain product
    from ordinalia.ordinals import from_int
    from ordinalia.words import make_word

    junk = make_word(pres.alpha, [(from_int(3), "1")], pres.domain.alphabet)
    assert not accepts_word(nfa, convolve([junk, encode_natural(1)]))


# ---------------------------------------------------------------- persistence


def test_presentation_dict_round_trip(pres):
    d = presentation_to_dict(pres)
    back = presentation_from_dict(d)
    assert presentation_to_dict(back) == d
    for text, expected in PRESBURGER_SENTENCES[:4]:
        assert decide(parse_formula(text, SIG), back) is expected


@pytest.mark.parametrize("mangle", [
    lambda d: [d],
    lambda d: {**d, "alpha": 1},
    lambda d: {**d, "relations": [d["relations"]]},
    lambda d: {**d, "relations": {"Plus": {"arity": "3", "automaton": d["domain"]}}},
])
def test_presentation_from_dict_rejects_malformed_input(pres, mangle):
    with pytest.raises(LogicError):
        presentation_from_dict(mangle(presentation_to_dict(pres)))


def test_presentation_file_round_trip(pres, tmp_path):
    path = tmp_path / "pres.json"
    save_presentation(pres, path)
    back = load_presentation(path)
    assert decide(parse_formula("(exists x (Plus x x x))", SIG), back)
    assert not decide(parse_formula("(forall x (Plus x x x))", SIG), back)


# ---------------------------------------------------------------- finite-length oracle
#
# At a finite length n every presentation is a finite structure: its
# domain is the accepted words among the 3^n words over {_, a, b}.  So a
# sentence can be evaluated by brute force over that domain, with the
# relations read by plain NFA simulation (conftest.classical_accepts).
# Nothing here shares code with the gap-NFA pipeline behind decide().
# The counts keep the test near a second: each projection keeps its
# states and every product with the domain triples them (ROADMAP item 8).

ORACLE_VARS = ("x", "y", "z")
ORACLE_DEPTH = 5


def _random_sentence(rng, scope=(), depth=ORACLE_DEPTH):
    """A formula tree with every variable bound, at most ORACLE_DEPTH deep."""
    free = [v for v in ORACLE_VARS if v not in scope]
    choices = (["atom"] * 2 if scope else []) + (["not", "bin"] if scope and depth > 1 else [])
    if free and depth > 1:
        choices += ["quant"] * (3 if not scope else 1)
    kind = rng.choice(choices)
    if kind == "quant":
        var = rng.choice(free)
        return (rng.choice(["exists", "forall"]), var,
                _random_sentence(rng, scope + (var,), depth - 1))
    if kind == "not":
        return ("not", _random_sentence(rng, scope, depth - 1))
    if kind == "bin":
        return (rng.choice(["and", "or", "->"]),
                _random_sentence(rng, scope, depth - 1),
                _random_sentence(rng, scope, depth - 1))
    rel = rng.choice(["P", "R", "="])
    args = [rng.choice(scope) for _ in range(1 if rel == "P" else 2)]
    return (rel, *args)


def _sentence_text(t) -> str:
    if t[0] in ("exists", "forall"):
        return f"({t[0]} {t[1]} {_sentence_text(t[2])})"
    if t[0] in ("not", "and", "or", "->"):
        return "(" + " ".join([t[0]] + [_sentence_text(s) for s in t[1:]]) + ")"
    return "(" + " ".join(t) + ")"


def _brute_force(t, domain, holds, env=None) -> bool:
    env = env or {}
    head = t[0]
    if head == "exists":
        return any(_brute_force(t[2], domain, holds, {**env, t[1]: w}) for w in domain)
    if head == "forall":
        return all(_brute_force(t[2], domain, holds, {**env, t[1]: w}) for w in domain)
    if head == "not":
        return not _brute_force(t[1], domain, holds, env)
    if head in ("and", "or", "->"):
        a = _brute_force(t[1], domain, holds, env)
        b = _brute_force(t[2], domain, holds, env)
        return {"and": a and b, "or": a or b, "->": (not a) or b}[head]
    return holds(head, tuple(env[v] for v in t[1:]))


@pytest.mark.parametrize("length, presentations, sentences", [(3, 16, 40), (4, 10, 15)])
def test_decide_agrees_with_brute_force_at_finite_lengths(length, presentations, sentences):
    rng = random.Random(20140 + length)
    pair = product_alphabet(AB, 2)
    everything = list(itertools.product(sorted(AB.symbols), repeat=length))
    for _ in range(presentations):
        domain_aut, unary, binary = (
            random_automaton(rng, max_states=3, alpha_bet=a, min_states=3)
            for a in (AB, AB, pair))
        pres = Presentation(from_int(length), domain_aut,
                            {"P": (1, unary), "R": (2, binary)})
        domain = [w for w in everything if classical_accepts(domain_aut, w)]
        table = {}

        def holds(rel, words):
            if rel == "=":
                return words[0] == words[1]
            if (rel, words) not in table:
                syms = words[0] if rel == "P" else list(zip(*words))
                table[rel, words] = classical_accepts(unary if rel == "P" else binary, syms)
            return table[rel, words]

        for _ in range(sentences):
            tree = _random_sentence(rng)
            text = _sentence_text(tree)
            expected = _brute_force(tree, domain, holds)
            assert decide(parse_formula(text, pres.signature), pres) is expected, text


# ------------------------------------------------- negation needs no domain product
#
# compile_formula relativizes a variable to the domain only at its
# binder and at the top.  The reference route below also takes the
# product with the whole domain after every complement, as the
# textbook construction does; no brute force reaches these lengths, but
# both routes must give the same verdicts and the same least witnesses.
# The reference route is the slow one: a ∀ under a free variable can
# take it a second at ω^2·3+ω.  So formulas are shallow and few.


def _answers(pres, trees) -> list:
    """decide's verdict on each sentence, the least witness of each
    formula with free variables."""
    out = []
    for tree in trees:
        f = parse_formula(_sentence_text(tree), pres.signature)
        if free_variables(f):
            out.append(logic.gc.emptiness_witness(compile_formula(f, pres)))
        else:
            out.append(decide(f, pres))
    return out


@pytest.mark.parametrize("alpha, seed, presentations, formulas",
                         [("w", 30, 8, 10), ("w^2", 31, 5, 6), ("w^2*3+w", 32, 3, 5)])
def test_negation_without_a_domain_product_matches_the_relativized_route(
        alpha, seed, presentations, formulas, monkeypatch):
    rng = random.Random(seed)
    pair = product_alphabet(AB, 2)
    answers = []
    nonempty = parse_formula("(exists x (= x x))")
    for _ in range(presentations):
        while True:  # an empty domain decides nothing
            domain_aut, unary, binary = (
                random_automaton(rng, max_states=3, alpha_bet=a, min_states=2)
                for a in (AB, AB, pair))
            pres = Presentation(parse_ordinal(alpha), domain_aut,
                                {"P": (1, unary), "R": (2, binary)})
            if decide(nonempty, pres):
                break
        trees = [_random_sentence(rng, rng.choice([(), ("x",)]), depth=3)
                 for _ in range(formulas)]
        bare = _answers(pres, trees)
        plain = logic.gc.complement
        with monkeypatch.context() as m:
            m.setattr(logic.gc, "complement", lambda nfa: logic.gc.nfa_product(
                plain(nfa), logic._domain_product(pres, nfa.alphabet.tracks)))
            assert _answers(pres, trees) == bare, [_sentence_text(t) for t in trees]
        answers += bare
    assert {True, False} <= set(answers)
    assert any(isinstance(a, AlphaWord) for a in answers)
