# Automata whose runs are indexed by ordinals: successor steps read a symbol,
# limit steps jump to the states named for the set of states seen cofinally.
#
# Run:  python3 demos/02_transfinite_runs.py

from ordinalia.automata import make_automaton
from ordinalia.ordinals import from_int, parse_ordinal
from ordinalia.semantics import member, reach_power, saturation_holds
from ordinalia.words import alphabet, blank_word, make_word

AB = alphabet(["a", "b"], blank="_")
W = parse_ordinal("w")
W2 = parse_ordinal("w^2")

# -- "finitely many a's, then stabilize" -------------------------------------
#
# q0 loops on blanks and a's; any run that is eventually all-blank keeps
# visiting exactly {q0}, and the limit rule maps that history to q0 again.

aut = make_automaton(
    states=["q0", "qdead"],
    alphabet=AB,
    initial=["q0"],
    final=["q0"],
    succ={
        ("q0", "_"): {"q0"},
        ("q0", "a"): {"q0"},
        ("q0", "b"): {"qdead"},
    },
    limit={frozenset({"q0"}): {"q0"}},
)

some_as = make_word(W, [(from_int(2), "a"), (from_int(9), "a")], AB)
one_b = make_word(W, [(from_int(4), "b")], AB)

print("word with two a's accepted: ", member(aut, some_as))
print("word with one b accepted:   ", member(aut, one_b))

# the same machine keeps working at length w^2: the run passes w-many limits
long_as = make_word(W2, [(parse_ordinal("w*3+1"), "a")], AB)
print("length-w^2 word accepted:   ", member(aut, long_as))
print("all-blank w^2 word accepted:", member(aut, blank_word(W2, AB)))

# -- reachability through towers of blanks -----------------------------------
#
# reach_power(aut, sym, m) is the relation "reading sym for w^m steps":
# row q is a bitmask of the states reachable from q, with the states
# numbered in sorted(repr) order.  From the state-count bound onward,
# multiplying the tower height changes nothing: the relation has
# already saturated.

print()
m = len(aut.states)
rel = reach_power(aut, "_", m)
names = sorted(aut.states, key=repr)
pairs = [(names[q], names[p]) for q, row in enumerate(rel)
         for p in range(len(names)) if row >> p & 1]
print("pairs reachable across w^%d blanks:" % m, sorted(pairs))
for c in (2, 3, 5, "omega"):
    print("  saturated at factor %-5s:" % c, saturation_holds(aut, "_", m, c))
