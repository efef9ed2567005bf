import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from ordinalia.automata import (
    AutomatonError,
    automaton_from_dict,
    automaton_to_dict,
    equality_automaton,
    load_automaton,
    make_automaton,
    reindex,
    save_automaton,
    validate,
)
from ordinalia.words import product_alphabet

from conftest import AB, classical_accepts, random_automaton


def two_state(final=("e",)):
    return make_automaton(
        states=["s", "e"],
        alphabet=AB,
        initial=["s"],
        final=final,
        succ={
            ("s", "a"): {"e"},
            ("s", "_"): {"s"},
            ("e", "_"): {"e"},
            ("e", "b"): {"s"},
        },
        limit={frozenset({"s"}): {"s"}, frozenset({"e"}): {"e"}},
    )


def test_make_automaton_rejects_unknown_states():
    with pytest.raises(AutomatonError):
        make_automaton(
            states=["q"], alphabet=AB, initial=["missing"], final=[], succ={}, limit={}
        )
    with pytest.raises(AutomatonError):
        make_automaton(
            states=["q"],
            alphabet=AB,
            initial=["q"],
            final=["other"],
            succ={},
            limit={},
        )
    with pytest.raises(AutomatonError):
        make_automaton(
            states=["q"],
            alphabet=AB,
            initial=["q"],
            final=[],
            succ={("q", "z"): {"q"}},
            limit={},
        )


def test_empty_limit_left_set_is_not_an_error():
    # An empty left set can never be the cofinal visit set of a run, so
    # the transition is dead weight rather than wrong.
    aut = make_automaton(
        states=["q"],
        alphabet=AB,
        initial=["q"],
        final=["q"],
        succ={("q", "_"): {"q"}},
        limit={frozenset(): {"q"}},
    )
    assert validate(aut) == []


def test_step_on_missing_transition_is_empty():
    aut = two_state()
    assert aut.step("s", "b") == frozenset()
    assert aut.step("s", "a") == frozenset({"e"})


def test_equality_automaton_on_finite_pairs(rng):
    eq = equality_automaton(AB)
    p2 = product_alphabet(AB, 2)
    for _ in range(50):
        syms_u = [rng.choice(["a", "b", "_"]) for _ in range(4)]
        same = rng.random() < 0.5
        syms_v = list(syms_u) if same else [rng.choice(["a", "b", "_"]) for _ in range(4)]
        pair = [tuple(p) for p in zip(syms_u, syms_v)]
        assert p2.blank == ("_", "_")
        assert classical_accepts(eq, pair) == (syms_u == syms_v)


def test_reindex_moves_tracks():
    eq = equality_automaton(AB)
    swapped = reindex(eq, 3, (2, 0))
    assert swapped.alphabet.arity == 3
    syms = [("a", "b", "a"), ("_", "_", "_"), ("b", "a", "b")]
    assert classical_accepts(swapped, syms)
    assert not classical_accepts(swapped, [("a", "b", "b")])


def test_reindex_accepts_scalar_automata_as_one_track():
    aut = two_state()
    wide = reindex(aut, 2, (1,))
    assert wide.alphabet.arity == 2
    assert classical_accepts(wide, [("b", "a")]) == classical_accepts(aut, ["a"])


def test_reindex_onto_one_track_reads_the_scalar_alphabet():
    aut = two_state()
    assert reindex(aut, 1, (0,)) is aut
    diagonal = reindex(equality_automaton(AB), 1, (0, 0))
    assert diagonal.alphabet == AB
    assert classical_accepts(diagonal, ["a", "_", "b"])
    with pytest.raises(AutomatonError):
        reindex(aut, 1, (0, 0))


def test_json_round_trip(rng, tmp_path):
    for _ in range(10):
        aut = random_automaton(rng, max_states=4)
        data = automaton_to_dict(aut)
        back = automaton_from_dict(data)
        assert automaton_to_dict(back) == data
        for syms in itertools.product(sorted(AB.symbols, key=repr), repeat=2):
            assert classical_accepts(aut, syms) == classical_accepts(back, syms)
    path = tmp_path / "aut.json"
    save_automaton(aut, path)
    assert automaton_to_dict(load_automaton(path)) == automaton_to_dict(aut)


def test_json_dict_shape():
    data = automaton_to_dict(two_state())
    assert set(data) == {
        "states",
        "alphabet",
        "blank",
        "initial",
        "final",
        "succ",
        "limit",
    }
    assert all(len(triple) == 3 for triple in data["succ"])
    assert data["succ"] == sorted(data["succ"])
    assert all(len(pair) == 2 for pair in data["limit"])


def test_from_dict_rejects_malformed_input():
    data = automaton_to_dict(two_state())
    broken = dict(data)
    broken["succ"] = [["s", "a"]]
    with pytest.raises(AutomatonError):
        automaton_from_dict(broken)


@pytest.mark.parametrize("mangle", [
    lambda d: {**d, "alphabet": [s for s in d["alphabet"] if s != "a|b"]},
    lambda d: {**d, "blank": "_|a"},
], ids=["partial-product", "mixed-blank"])
def test_from_dict_needs_the_full_product_alphabet(mangle):
    data = automaton_to_dict(equality_automaton(AB))
    assert automaton_from_dict(data).alphabet == product_alphabet(AB, 2)
    with pytest.raises(AutomatonError, match="full product"):
        automaton_from_dict(mangle(data))


def test_seeded_random_automata_do_not_depend_on_the_hash_seed():
    # the rng fixture promises the same automata in every process
    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import json, random\n"
        "from conftest import AB, random_automaton\n"
        "from ordinalia.automata import automaton_to_dict\n"
        "from ordinalia.words import product_alphabet\n"
        "rng = random.Random(7)\n"
        "alphabets = (AB, product_alphabet(AB, 2))\n"
        "auts = [random_automaton(rng, alpha_bet=ab) for ab in alphabets]\n"
        "print(json.dumps([automaton_to_dict(a) for a in auts]))\n"
    )
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    outs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outs.add(done.stdout)
    assert len(outs) == 1
