# The counting argument: words equivalent under every relation of a family can
# be normalized so their support hugs the parameters' support, and the size of
# that neighborhood bounds how many inequivalent elements the family can tell
# apart.  A staged family of word sets then certifies a growing ratio.
#
# Run:  python3 demos/05_growth_lower_bound.py

from ordinalia.automata import equality_automaton
from ordinalia.examples import (
    AB,
    growth_bound_probe,
    rado_growth_demo,
    wellorder_automaton,
)
from ordinalia.growth import RelationFamily, k_const, normalize, nu_of_E, u_set
from ordinalia.ordinals import Ordinal, parse_ordinal
from ordinalia.words import make_word, sorted_support

W2 = parse_ordinal("w^2")

# -- neighborhoods: what "close to the parameters" means -----------------------

seeds = [parse_ordinal("w+1")]
box = u_set(seeds, 1, W2)
print("one-step neighborhood of {w+1} at radius 1:")
print("  ", sorted(str(o) for o in box))

# -- normalization: dragging support into the neighborhood ---------------------

fam = RelationFamily((equality_automaton(AB),), W2)
print()
print("pigeonhole constant for one 1-state relation:", k_const(fam))

v = make_word(W2, [(Ordinal((7, 90)), "a"), (Ordinal((2, 14)), "b")], AB)
res = normalize(fam, [], v, max_steps=1024)
print("before:", [str(p) for p in sorted_support(v)])
print("after :", [str(p) for p in sorted_support(res.word)])
print("moves :", len(res.steps), "window cuts, equivalence re-checked at each")

# -- counting inequivalent elements ---------------------------------------------

order = wellorder_automaton(AB)
both = RelationFamily((order, equality_automaton(AB)), W2)
sample = [
    make_word(W2, [(Ordinal((k,)), "a")], AB) for k in range(4)
]
print()
# with no parameter words the binary relations can compare against nothing:
print("classes with no parameters :", nu_of_E(both, [], sample))
# one parameter splits the sample into below / equal / above it:
print("classes against one word   :", nu_of_E(both, [sample[1]], sample))

# -- the staged ratio and a classical comparison ---------------------------------

print()
print("stage | parameters | inequivalent | ratio")
for row in growth_bound_probe(max_stage=2):
    print(
        "  %d   | %10d | %12d | %s"
        % (row.stage, row.parameter_count, row.nu, row.ratio)
    )

print()
print("bit-graph benchmark (counts double with each fresh vertex):")
print("  ", [(r.n, r.nu) for r in rado_growth_demo(max_n=4)])
