# Collapsing a transfinite word to a finite one: the letters in order, with
# each blank gap replaced by its length, capped into finitely many classes.
# A plain NFA on these abstractions decides the original automaton's language.
#
# Run:  python3 demos/03_gap_encoding.py

from ordinalia.automata import make_automaton
from ordinalia.gapcode import (
    accepts_word,
    abstract_word,
    cap_policy,
    complement,
    emptiness_witness,
    nfa_product,
    to_gap_nfa,
)
from ordinalia.ordinals import from_int, parse_ordinal
from ordinalia.semantics import member
from ordinalia.words import alphabet, gaps, make_word

AB = alphabet(["a", "b"], blank="_")
W2 = parse_ordinal("w^2")

# -- the encoding itself ------------------------------------------------------

v = make_word(W2, [(from_int(3), "a"), (parse_ordinal("w*2+1"), "b")], AB)
print("word          :", v)
print("letters       :", tuple(sym for _, sym in v.entries))
print("gap lengths   :", [str(g) for g in gaps(v)])
# one more gap than letters, and the gaps + single steps re-sum to w^2

# -- capping: finitely many gap classes suffice for a fixed automaton ---------

contains_a = make_automaton(
    states=["no", "yes"],
    alphabet=AB,
    initial=["no"],
    final=["yes"],
    succ={
        ("no", "_"): {"no"},
        ("no", "b"): {"no"},
        ("no", "a"): {"yes"},
        ("yes", "_"): {"yes"},
        ("yes", "a"): {"yes"},
        ("yes", "b"): {"yes"},
    },
    limit={frozenset({"no"}): {"no"}, frozenset({"yes"}): {"yes"}},
)

pol = cap_policy([contains_a], W2)
print()
print("cap thresholds:", [str(t) for t in pol.thresholds])
print("class of 5    :", pol.class_of(from_int(5)))
print("class of w*7  :", pol.class_of(parse_ordinal("w*7")))
print("abstracted    :", abstract_word(v, pol))

# -- factoring: the finite NFA decides the transfinite language ---------------

nfa = to_gap_nfa(contains_a, pol)
print()
print("finite NFA size:", nfa.size)
for word in [v, make_word(W2, [(from_int(0), "b")], AB)]:
    print(
        "member=%5s  via gap NFA=%5s  (%s)"
        % (member(contains_a, word), accepts_word(nfa, word), word)
    )

# -- boolean closure and witness extraction -----------------------------------

no_a = complement(nfa)
both = nfa_product(nfa, no_a)  # a word with and without an a: empty
print()
print("L and not L is empty:", emptiness_witness(both) is None)

found = emptiness_witness(no_a)
print("witness without a   :", found)
print("  really rejected   :", not member(contains_a, found))
