import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalia import gapcode
from ordinalia.automata import AutomatonError, equality_automaton, make_automaton, reindex
from ordinalia.gapcode import (
    CapPolicy,
    GapError,
    GapNFA,
    abstract_word,
    accepts_abstract,
    accepts_word,
    cap_policy,
    complement,
    determinize,
    emptiness_witness,
    exists_project,
    nfa_product,
    nfa_union,
    to_gap_nfa,
    trim,
)
from ordinalia.ordinals import ZERO, Ordinal, add, from_int, parse_ordinal
from ordinalia.semantics import ResourceLimitExceeded, const_reach, member
from ordinalia.words import convolve, make_word, product_alphabet

from conftest import AB, random_automaton

W2 = parse_ordinal("w^2")

gap_positions = st.lists(st.integers(0, 5), min_size=1, max_size=2).map(
    lambda cs: Ordinal(tuple(cs))
)


def fixture_policy():
    aut = random_automaton(__import__("random").Random(3), max_states=3)
    return aut, cap_policy([aut], W2)


def test_cap_policy_thresholds_cover_the_length():
    _, pol = fixture_policy()
    # W2 has coefficients (0, 0, 1): thresholds must exceed each by one.
    assert pol.thresholds[2] >= 2
    assert pol.thresholds[0] >= 1 and pol.thresholds[1] >= 1


def test_cap_policy_needs_a_common_base():
    from ordinalia.words import alphabet

    other = alphabet({"x"})
    a = random_automaton(__import__("random").Random(0), max_states=2)
    b = random_automaton(__import__("random").Random(1), max_states=2, alpha_bet=other)
    with pytest.raises(GapError):
        cap_policy([a, b], W2)


@given(gap_positions.filter(lambda p: p < W2), gap_positions.filter(lambda p: p < W2))
@settings(max_examples=60)
def test_class_addition_is_a_congruence(g1, g2):
    _, pol = fixture_policy()
    direct = pol.class_of(add(g1, g2))
    via = pol.add_classes(pol.class_of(g1), pol.class_of(g2))
    assert direct == via


@given(gap_positions.filter(lambda p: p < W2))
def test_representative_lands_in_the_same_class(g):
    _, pol = fixture_policy()
    cls = pol.class_of(g)
    assert pol.class_of(pol.representative(cls)) == cls


def test_alpha_class_is_a_singleton():
    _, pol = fixture_policy()
    # The whole point of the thresholds: only the length itself caps to
    # the length's class, so "total gap equals the length" is class-checkable.
    assert pol.representative(pol.alpha_class) == W2
    for cls in pol.all_classes():
        if cls == pol.alpha_class:
            continue
        assert pol.representative(cls) != W2


def test_all_classes_are_the_classes_at_most_alpha(rng):
    below = above = 0
    for _ in range(60):
        d = rng.randint(0, 3)
        alpha = Ordinal(tuple(rng.randint(0, 3) for _ in range(d)) + (rng.randint(1, 3),))
        pol = CapPolicy(alpha,
                        tuple(alpha.coefficient(j) + rng.randint(1, 3) for j in range(d + 1)),
                        tuple(rng.randint(1, 3) for _ in range(d + 1)))
        classes = list(pol.all_classes())
        box = itertools.product(*(range(l + p) for l, p in zip(pol.thresholds, pol.periods)))
        assert classes == [cls for cls in box if pol.representative(cls) <= alpha]
        assert pol.class_count() == len(classes)
        for _ in range(20):
            g = Ordinal(tuple(rng.randint(0, alpha.coefficient(j) + 2) for j in range(d + 1)))
            # class_of refuses a gap above alpha, so cap by hand
            cls = tuple(pol.cap(j, g.coefficient(j)) for j in range(d + 1))
            assert (cls in classes) == (g <= alpha)
            if g <= alpha:
                below += 1
                assert cls == pol.class_of(g)
            else:
                above += 1
    assert below >= 100 and above >= 100


def test_factoring_random_sample(rng):
    for _ in range(60):
        aut = random_automaton(rng, max_states=3)
        pol = cap_policy([aut], W2)
        nfa = to_gap_nfa(aut, pol)
        entries = {
            Ordinal((rng.randint(0, 5), rng.randint(0, 1))): rng.choice(["a", "b"])
            for _ in range(rng.randint(0, 3))
        }
        w = make_word(W2, entries.items(), AB)
        assert member(aut, w) == accepts_word(nfa, w)
        assert accepts_word(nfa, w) == accepts_abstract(nfa, abstract_word(w, pol))


@pytest.mark.parametrize("alpha_text", ["w^3", "w^2*3+w"])
def test_factoring_at_larger_lengths(alpha_text, rng):
    alpha = parse_ordinal(alpha_text)
    for _ in range(30):
        aut = random_automaton(rng, max_states=3)
        nfa = to_gap_nfa(aut, cap_policy([aut], alpha))
        for _ in range(8):
            entries = {}
            count = rng.randint(0, 3)
            while len(entries) < count:
                p = Ordinal(tuple(rng.randint(0, 4) for _ in range(alpha.degree + 1)))
                if p < alpha:
                    entries[p] = rng.choice(["a", "b"])
            w = make_word(alpha, entries.items(), AB)
            assert member(aut, w) == accepts_word(nfa, w)


def test_shape_language_constrains_alternation():
    _, pol = fixture_policy()
    # One state accepting every symbol sequence: only the shape can reject.
    delta = {("gap", cls): (1,) for cls in pol.all_classes()}
    delta.update((("let", s), (1,)) for s in AB.letters())
    anything = GapNFA(pol, AB, 1, 1, 1, delta)
    good = abstract_word(make_word(W2, [(from_int(3), "a")], AB), pol)
    assert accepts_abstract(anything, good)
    # Two letters in a row is not a shape any encoding produces.
    assert not accepts_abstract(anything, (good[0], good[1], good[1], good[2]))
    # Alternating, but the capped total is the class of 3 + 1 + 3, not w^2's.
    short = ("gap", pol.class_of(from_int(3)))
    assert not accepts_abstract(anything, (short, good[1], short))


def test_complement_flips_membership(rng):
    for _ in range(25):
        aut = random_automaton(rng, max_states=3)
        pol = cap_policy([aut], W2)
        nfa = to_gap_nfa(aut, pol)
        comp = complement(nfa)
        for _ in range(8):
            entries = {
                Ordinal((rng.randint(0, 4), rng.randint(0, 1))): rng.choice(["a", "b"])
                for _ in range(rng.randint(0, 3))
            }
            w = make_word(W2, entries.items(), AB)
            assert accepts_word(comp, w) != accepts_word(nfa, w)


def test_product_and_union_language_algebra(rng):
    for _ in range(15):
        a = random_automaton(rng, max_states=3)
        b = random_automaton(rng, max_states=3)
        pol = cap_policy([a, b], W2)
        na, nb = to_gap_nfa(a, pol), to_gap_nfa(b, pol)
        both = nfa_product(na, nb)
        either = nfa_union(na, nb)
        for _ in range(8):
            entries = {
                Ordinal((rng.randint(0, 4), rng.randint(0, 1))): rng.choice(["a", "b"])
                for _ in range(rng.randint(0, 3))
            }
            w = make_word(W2, entries.items(), AB)
            assert accepts_word(both, w) == (accepts_word(na, w) and accepts_word(nb, w))
            assert accepts_word(either, w) == (accepts_word(na, w) or accepts_word(nb, w))


def test_exists_project_drops_a_track(rng):
    from ordinalia.automata import equality_automaton

    eq = equality_automaton(AB)
    pol = cap_policy([eq], W2)
    nfa = to_gap_nfa(eq, pol)
    anything = exists_project(nfa, 1)
    for _ in range(10):
        entries = {
            Ordinal((rng.randint(0, 4), rng.randint(0, 1))): rng.choice(["a", "b"])
            for _ in range(rng.randint(0, 2))
        }
        w = make_word(W2, entries.items(), AB)
        # every word equals itself, so after projection everything passes
        assert accepts_word(anything, w)


def test_exists_project_accepts_every_word_some_second_track_extends(rng):
    # one-way brute force: a second track u, found by search over a small
    # box of supports, that puts convolve([v, u]) in the language forces
    # v into the projection
    boxes = [Ordinal(c) for c in ((0,), (1,), (0, 1), (1, 1))]
    seconds = [
        make_word(W2, [(p, s) for p, s in zip(boxes, syms) if s != "_"], AB)
        for syms in itertools.product(["_", "a", "b"], repeat=len(boxes))
    ]
    extended = 0
    for _ in range(16):
        aut = random_automaton(rng, max_states=3, alpha_bet=product_alphabet(AB, 2))
        proj = exists_project(to_gap_nfa(aut, cap_policy([aut], W2)), 1)
        for _ in range(4):
            entries = {rng.choice(boxes): rng.choice(["a", "b"])
                       for _ in range(rng.randint(0, 1))}
            v = make_word(W2, entries.items(), AB)
            if any(member(aut, convolve([v, u])) for u in seconds):
                extended += 1
                assert accepts_word(proj, v)
    assert extended >= 8


def _states(mask):
    return {q for q in range(mask.bit_length()) if mask >> q & 1}


def reference_project(nfa, coord):
    """exists_project by a plain search per source state over (class,
    state) pairs, reading only ``delta`` and ``add_classes``; the gap
    rows come with each source's count of (state, class) pairs.  A
    merged total that is not a gap class of ``nfa`` is skipped."""
    pol, n, tracks = nfa.policy, nfa.size, nfa.alphabet.tracks
    classes = [gs[1] for gs in nfa.delta if gs[0] == "gap"]
    zero = (0,) * len(classes[0])
    one = (1,) + zero[1:]  # every threshold is >= 1, so 1 is its own class

    def proj(sym):
        rest = sym[:coord] + sym[coord + 1 :]
        return rest if tracks > 2 else rest[0]

    letters, erased = {}, [set() for _ in range(n)]
    for gs, rows in nfa.delta.items():
        if gs[0] == "let":
            narrow = proj(gs[1])
            if narrow == "_" or narrow == ("_",) * (tracks - 1):
                for q in range(n):
                    erased[q] |= _states(rows[q])
            else:
                old = letters.setdefault(("let", narrow), set())
                old |= {(q, p) for q in range(n) for p in _states(rows[q])}
    gaps = {cls: [0] * n for cls in classes}
    counts = []
    for source in range(n):
        reached = set()  # (merged class, state)
        todo, seen = [(zero, source)], {(zero, source)}
        while todo:
            acc, q = todo.pop()
            for cls in classes:
                total = pol.add_classes(acc, cls)
                if total not in gaps:
                    continue
                for p in _states(nfa.delta[("gap", cls)][q]):
                    reached.add((total, p))
                    for t in erased[p]:
                        item = (pol.add_classes(total, one), t)
                        if item not in seen:
                            seen.add(item)
                            todo.append(item)
        for total, p in reached:
            gaps[total][source] |= 1 << p
        counts.append(len(reached))
    delta = {("gap", cls): tuple(rows) for cls, rows in gaps.items()}
    for gs, pairs in sorted(letters.items(), key=repr):
        delta[gs] = tuple(sum(1 << p for q2, p in pairs if q2 == q) for q in range(n))
    narrow = product_alphabet(AB, tracks - 1) if tracks > 2 else AB
    ref = trim(GapNFA(pol, narrow, n, nfa.initial, nfa.final, delta))
    return ref, counts


@pytest.mark.parametrize("tracks", [2, 3])
@pytest.mark.parametrize("alpha_text", ["w^2", "w^2*3+w"])
def test_exists_project_matches_a_per_state_search(tracks, alpha_text, rng):
    alpha = parse_ordinal(alpha_text)
    for _ in range(6):
        aut = random_automaton(rng, max_states=4, alpha_bet=product_alphabet(AB, tracks))
        nfa = to_gap_nfa(aut, cap_policy([aut], alpha))
        coord = rng.randrange(tracks)
        got = exists_project(nfa, coord)
        ref, _ = reference_project(nfa, coord)
        assert (got.size, got.initial, got.final) == (ref.size, ref.initial, ref.final)
        assert list(got.delta.items()) == list(ref.delta.items())


def test_exists_project_queues_only_gap_classes(rng, monkeypatch):
    # a merge that reaches alpha's class stops there: g + 1 is above alpha
    seen = []
    add_classes = CapPolicy.add_classes

    def spy(policy, x, y):
        seen.append(tuple(x))
        return add_classes(policy, x, y)

    for alpha_text in ("w", "w^2", "w^2*3+w"):
        alpha = parse_ordinal(alpha_text)
        for _ in range(4):
            aut = random_automaton(rng, max_states=3, alpha_bet=product_alphabet(AB, 2))
            nfa = to_gap_nfa(aut, cap_policy([aut], alpha))
            seen.clear()
            with monkeypatch.context() as mp:
                mp.setattr(CapPolicy, "add_classes", spy)
                got = exists_project(nfa, 1)
            assert seen and all(("gap", acc) in nfa.delta for acc in seen)
            ref, _ = reference_project(nfa, 1)
            assert list(got.delta.items()) == list(ref.delta.items())


LAYOUTS = [
    (2, 2, (1, 0)),  # swapped tracks
    (2, 3, (2, 0)),  # an unmentioned track
    (2, 1, (0, 0)),  # both tracks read one
    (1, 1, (0,)),  # the automaton's own layout
    (1, 3, (1,)),  # a scalar automaton onto a wide arity
]


@pytest.mark.parametrize("tracks, arity, coords", LAYOUTS)
def test_to_gap_nfa_lifts_like_reindex(tracks, arity, coords, rng):
    alpha_bet = product_alphabet(AB, 2) if tracks == 2 else AB
    auts = [random_automaton(rng, max_states=3, alpha_bet=alpha_bet) for _ in range(4)]
    if tracks == 2:
        auts.append(equality_automaton(AB))
    for aut in auts:
        pol = cap_policy([aut], rng.choice([W2, parse_ordinal("w^2*3+w")]))
        got = to_gap_nfa(aut, pol, arity, coords)
        want = to_gap_nfa(reindex(aut, arity, coords), pol)
        assert got.alphabet == want.alphabet
        assert (got.size, got.initial, got.final) == (want.size, want.initial, want.final)
        assert list(got.delta.items()) == list(want.delta.items())


@pytest.mark.parametrize("arity, coords", [(2, (0,)), (3, (0, 3)), (2, (-1, 0))])
def test_to_gap_nfa_refuses_a_bad_layout_like_reindex(arity, coords):
    aut = equality_automaton(AB)
    pol = cap_policy([aut], W2)
    with pytest.raises(AutomatonError) as want:
        reindex(aut, arity, coords)
    with pytest.raises(AutomatonError) as got:
        to_gap_nfa(aut, pol, arity, coords)
    assert str(got.value) == str(want.value)


def full_box_nfa(aut, policy):
    """to_gap_nfa with a row for every class of the policy's box, those
    above alpha included, built here with const_reach."""
    nfa = to_gap_nfa(aut, policy)
    box = itertools.product(*(range(l + p) for l, p in zip(policy.thresholds, policy.periods)))
    delta = {("gap", cls): const_reach(aut, aut.alphabet.blank, policy.representative(cls))
             for cls in box}
    for gs, rows in nfa.delta.items():
        if gs[0] == "gap":
            assert delta[gs] == rows
        else:
            delta[gs] = rows
    return GapNFA(policy, aut.alphabet, nfa.size, nfa.initial, nfa.final, delta)


def flipped_dfa(nfa):
    """complement without minimization: the subset DFA, finals flipped."""
    dfa = determinize(nfa)
    rejecting = ~dfa.final & (1 << dfa.size) - 1
    return GapNFA(dfa.policy, dfa.alphabet, dfa.size, dfa.initial, rejecting, dfa.delta)


@pytest.mark.parametrize("alpha_text", ["w", "w^2", "w^2*3+w"])
def test_the_classes_above_alpha_move_no_witness(alpha_text, rng):
    alpha = parse_ordinal(alpha_text)
    two = product_alphabet(AB, 2)
    found = 0
    for _ in range(8):
        a = random_automaton(rng, max_states=3, alpha_bet=two)
        b = random_automaton(rng, max_states=3, alpha_bet=two)
        pol = cap_policy([a, b], alpha)
        na, nb = to_gap_nfa(a, pol), to_gap_nfa(b, pol)
        fa, fb = full_box_nfa(a, pol), full_box_nfa(b, pol)
        coord = rng.randrange(2)
        pairs = [
            (complement(na), flipped_dfa(fa)),
            (nfa_product(na, nb), nfa_product(fa, fb)),
            (exists_project(na, coord), reference_project(fa, coord)[0]),
        ]
        for got, full in pairs:
            w = emptiness_witness(got)
            assert w == emptiness_witness(full)
            found += w is not None
    assert found >= 8


def test_complement_is_a_minimal_dfa_of_the_same_language(rng):
    shrunk = 0
    for _ in range(10):
        aut = random_automaton(rng, max_states=3)
        nfa = to_gap_nfa(aut, cap_policy([aut], W2))
        comp, plain = complement(nfa), flipped_dfa(nfa)
        assert comp.size <= plain.size
        shrunk += comp.size < plain.size
        again = gapcode._minimize(comp)
        assert (again.size, again.initial, again.final) == (comp.size, comp.initial, comp.final)
        assert list(again.delta.items()) == list(comp.delta.items())
        # only words that alternate, starting with a gap, can be shape-valid
        kinds = [[gs for gs in comp.delta if gs[0] == kind] for kind in ("gap", "let")]
        for n in (1, 3, 5):
            for word in itertools.product(*(kinds[i % 2] for i in range(n))):
                assert accepts_abstract(comp, word) == accepts_abstract(plain, word)
    assert shrunk >= 3


def test_merge_budget_counts_pairs_per_source_state(monkeypatch, rng):
    for _ in range(8):
        aut = random_automaton(rng, max_states=4, alpha_bet=product_alphabet(AB, 2))
        nfa = to_gap_nfa(aut, cap_policy([aut], W2))
        _, counts = reference_project(nfa, 1)
        monkeypatch.setattr(gapcode, "MAX_MERGE_PAIRS", max(counts))
        exists_project(nfa, 1)
        monkeypatch.setattr(gapcode, "MAX_MERGE_PAIRS", max(counts) - 1)
        with pytest.raises(ResourceLimitExceeded, match="gap-merge search exceeded"):
            exists_project(nfa, 1)


def test_emptiness_witness_round_trips(rng):
    found = 0
    for _ in range(40):
        aut = random_automaton(rng, max_states=3)
        pol = cap_policy([aut], W2)
        nfa = to_gap_nfa(aut, pol)
        w = emptiness_witness(nfa)
        if w is None:
            continue
        found += 1
        assert w.length == W2
        assert accepts_word(nfa, w)
        assert member(aut, w)
    assert found >= 10


def test_emptiness_witness_none_for_empty_language():
    universal = random_automaton(__import__("random").Random(5), max_states=2)
    pol = cap_policy([universal], W2)
    nfa = to_gap_nfa(universal, pol)
    empty = nfa_product(nfa, complement(nfa))
    assert emptiness_witness(empty) is None


def test_emptiness_witness_rejects_an_unsound_representative(monkeypatch):
    everything = make_automaton({"q"}, AB, {"q"}, {"q"},
                                {("q", s): {"q"} for s in AB.symbols},
                                {frozenset({"q"}): {"q"}})
    nfa = to_gap_nfa(everything, cap_policy([everything], W2))
    assert emptiness_witness(nfa) is not None
    # every gap concretized as 0: the gaps can no longer sum to w^2
    monkeypatch.setattr(CapPolicy, "representative", lambda self, cls: ZERO)
    with pytest.raises(GapError, match="cap policy unsound"):
        emptiness_witness(nfa)


def _least_accepted_word(nfa, max_symbols):
    """Length-lexicographic search, in repr order, over alternating words."""
    syms = sorted(nfa.delta, key=repr)
    kinds = [[gs for gs in syms if gs[0] == kind] for kind in ("gap", "let")]
    for n in range(1, max_symbols + 1, 2):
        for word in itertools.product(*(kinds[i % 2] for i in range(n))):
            if accepts_abstract(nfa, word):
                return word
    return None


def test_emptiness_witness_is_the_least_accepted_word(rng):
    found = 0
    for _ in range(12):
        aut = random_automaton(rng, max_states=3)
        pol = cap_policy([aut], W2)
        nfa = to_gap_nfa(aut, pol)
        for lang in (nfa, complement(nfa)):
            least = _least_accepted_word(lang, 5)
            w = emptiness_witness(lang)
            if least is None:
                assert w is None or 2 * len(w.entries) + 1 > 5
                continue
            found += 1
            assert abstract_word(w, pol) == least
    assert found >= 10


def test_trim_preserves_the_language(rng):
    aut = random_automaton(rng, max_states=3)
    pol = cap_policy([aut], W2)
    nfa = to_gap_nfa(aut, pol)
    slim = trim(nfa)
    assert slim.size <= nfa.size
    for _ in range(10):
        entries = {
            Ordinal((rng.randint(0, 4), rng.randint(0, 1))): rng.choice(["a", "b"])
            for _ in range(rng.randint(0, 3))
        }
        w = make_word(W2, entries.items(), AB)
        assert accepts_word(slim, w) == accepts_word(nfa, w)


def test_determinize_yields_unique_runs(rng):
    aut = random_automaton(rng, max_states=3)
    pol = cap_policy([aut], W2)
    dfa = determinize(to_gap_nfa(aut, pol))
    for rows in dfa.delta.values():
        for row in rows:
            assert row and row & (row - 1) == 0  # exactly one successor
