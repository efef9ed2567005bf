"""Command-line behavior: exit codes, stdout shapes, deterministic reports."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import ordinalia
from ordinalia.automata import automaton_to_dict, equality_automaton, save_automaton
from ordinalia.cli import main
from ordinalia.examples import (
    AB,
    presburger_presentation,
    subsupp_automaton,
    wellorder_automaton,
)
from ordinalia.logic import presentation_to_dict, save_presentation


@pytest.fixture(scope="module")
def eq_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "eq.json"
    save_automaton(equality_automaton(AB), path)
    return str(path)


@pytest.fixture(scope="module")
def order_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "order.json"
    save_automaton(wellorder_automaton(AB), path)
    return str(path)


@pytest.fixture(scope="module")
def pres_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "plus.json"
    save_presentation(presburger_presentation(), path)
    return str(path)


# ---------------------------------------------------------------- member


def test_member_accept_and_reject(eq_path, capsys):
    same = "len=w; {1:a|a, 3:b|b}"
    assert main(["member", "-a", eq_path, "-w", same]) == 0
    assert capsys.readouterr().out.strip() == "accepted"
    differ = "len=w; {1:a|b}"
    assert main(["member", "-a", eq_path, "-w", differ]) == 1
    assert capsys.readouterr().out.strip() == "rejected"


def test_member_report_is_deterministic(eq_path, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["member", "-a", eq_path, "-w", "len=w; {2:a|a}"]
    assert main(argv + ["--json-out", str(out1)]) == 0
    assert main(argv + ["--json-out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["schema"] == "ordinalia.report/1"
    assert report["accepted"] is True


def test_member_missing_file_is_a_usage_error(capsys):
    assert main(["member", "-a", "/no/such/file.json", "-w", "len=1; {}"]) == 2
    assert "error:" in capsys.readouterr().err


def test_member_malformed_word_is_a_usage_error(eq_path, capsys):
    assert main(["member", "-a", eq_path, "-w", "not a word"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("prefix, kind", [("w^", "exponent"), ("", "coefficient")],
                         ids=["exponent", "length"])
def test_member_numeral_past_the_int_digit_limit_is_a_usage_error(
        eq_path, prefix, kind, tmp_path, capsys):
    nines = "9" * 5000
    message = f"{kind} overflow: {nines}"
    out = tmp_path / "r.json"
    argv = ["member", "-a", eq_path, "-w", f"len={prefix}{nines}; {{}}"]
    assert main(argv + ["--json-out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    error = {"exit": 2, "type": "OrdinalError", "message": message}
    assert json.loads(out.read_text())["error"] == error


@pytest.mark.parametrize("mangle", [
    lambda d: {**d, "succ": [d["succ"][0][:2]]},
    lambda d: [d],
    lambda d: {**d, "states": [[q] for q in d["states"]]},
    # a one-character string used to be read as a set of characters
    lambda d: {**d, "states": "q", "initial": ["q"], "final": ["q"],
               "succ": [["q", "a|a", "q"]], "limit": [[["q"], "q"]]},
])
def test_member_malformed_automaton_json_is_a_usage_error(mangle, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mangle(automaton_to_dict(equality_automaton(AB)))))
    assert main(["member", "-a", str(path), "-w", "len=1; {}"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def _without_symbol(aut: dict, dropped: str) -> dict:
    """An automaton dict whose tuple alphabet leaves out ``dropped``."""
    return {**aut, "alphabet": [s for s in aut["alphabet"] if s != dropped],
            "succ": [e for e in aut["succ"] if e[1] != dropped]}


def _assert_usage_error_report(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(argv + ["--json-out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert json.loads(out.read_text())["error"]["exit"] == 2


def test_witness_with_a_partial_product_alphabet_is_a_usage_error(tmp_path, capsys):
    data = presentation_to_dict(presburger_presentation())
    plus = data["relations"]["Plus"]
    plus["automaton"] = _without_symbol(plus["automaton"], "_|_|1")
    path = tmp_path / "p_partial.json"
    path.write_text(json.dumps(data))
    argv = ["witness", "-p", str(path), "-f", "(exists x (exists y (Plus x y x)))"]
    _assert_usage_error_report(argv, tmp_path, capsys)


def test_normalize_with_a_partial_product_alphabet_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "eq_partial.json"
    path.write_text(json.dumps(
        _without_symbol(automaton_to_dict(equality_automaton(AB)), "a|b")))
    argv = ["normalize", "-a", str(path), "-w", "len=w*40+1; {w*30+7:a}",
            "--param", "len=w*40+1; {0:b}"]
    _assert_usage_error_report(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["member", "-w", "len=1; {}", "-a"],
    ["decide", "-f", "(exists x (Plus x x x))", "-p"],
], ids=["automaton", "presentation"])
def test_json_nested_past_the_decoder_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    _assert_usage_error_report(argv + [str(path)], tmp_path, capsys)


# ---------------------------------------------------------------- decide


def test_decide_true_and_false(pres_path, capsys):
    assert main(["decide", "-p", pres_path, "-f", "(exists x (Plus x x x))"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["decide", "-p", pres_path, "-f", "(forall x (Plus x x x))"]) == 1
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize("sentence", [
    "(exists x (exists y (Plus y y y)))",
    "(forall x (exists y (Plus y y y)))",
])
def test_decide_vacuous_quantifier(pres_path, sentence, capsys):
    assert main(["decide", "-p", pres_path, "-f", sentence]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_decide_rejects_open_formulas(pres_path, capsys):
    assert main(["decide", "-p", pres_path, "-f", "(Plus x y z)"]) == 2
    capsys.readouterr()


def _nested(head: str, depth: int) -> str:
    """A sentence ``depth`` nodes deep: ``head`` wraps the innermost
    quantifier depth - 2 times."""
    body = "(Plus x x x)"
    for _ in range(depth - 2):
        body = f"({head} {body})"
    return f"(exists x {body})"


def test_decide_past_the_formula_depth_is_exit_three(pres_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["decide", "-p", pres_path, "-f", _nested("not", 201)]
    assert main(argv + ["--json-out", str(out)]) == 3
    message = "formula nests deeper than MAX_FORMULA_DEPTH = 200"
    assert capsys.readouterr().err == f"resource limit: {message}\n"
    error = {"exit": 3, "type": "ResourceLimitExceeded", "message": message}
    assert json.loads(out.read_text())["error"] == error


def _decide_in_two_seconds(pres: str, sentence: str) -> subprocess.CompletedProcess:
    src = pathlib.Path(ordinalia.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "ordinalia.cli", "decide", "-p", pres, "-f", sentence],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=2,
    )


def test_decide_over_a_huge_abstract_alphabet_is_exit_three_at_once(tmp_path):
    # 18,024,010 abstract symbols: building the gap NFA would not finish
    data = presentation_to_dict(presburger_presentation())
    data["alpha"] = "w^2*3000+w*3000"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    done = _decide_in_two_seconds(str(path), "(exists x (Plus x x x))")
    assert done.returncode == 3
    assert done.stderr.startswith("resource limit:")
    assert "MAX_ABSTRACT_SYMBOLS" in done.stderr


def test_decide_over_twelve_variables_is_exit_three_at_once(pres_path):
    # twelve tracks make 3^12 - 1 letters; they are counted, never built
    body = "(Plus x0 x0 x1)"
    for i in range(1, 11):
        body = f"(and {body} (Plus x{i} x{i} x{i + 1}))"
    for i in reversed(range(12)):
        body = f"(exists x{i} {body})"
    done = _decide_in_two_seconds(pres_path, body)
    assert done.returncode == 3
    assert done.stderr.startswith("resource limit:")
    assert "MAX_ABSTRACT_SYMBOLS" in done.stderr


# ---------------------------------------------------------------- witness


def test_witness_prints_an_assignment(pres_path, tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main([
        "witness", "-p", pres_path,
        "-f", "(exists x (exists y (Plus y y x)))",
        "--json-out", str(out),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("x = ") and lines[1].startswith("y = ")
    report = json.loads(out.read_text())
    assert set(report["witness"]) == {"x", "y"}


@pytest.mark.parametrize("sentence", [
    "(exists x (exists y (Plus y y y)))",
    "(exists y (exists x (Plus y y y)))",
])
def test_witness_vacuous_existential(pres_path, sentence, capsys):
    assert main(["witness", "-p", pres_path, "-f", sentence]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(line.split(" = ")[0] for line in lines) == ["x", "y"]


def test_witness_at_the_formula_depth_still_works(pres_path, capsys):
    f = _nested("and (Plus x x x)", 200)
    assert main(["witness", "-p", pres_path, "-f", f]) == 0
    assert capsys.readouterr().out.startswith("x = ")


def test_witness_missing_is_exit_one(pres_path, capsys):
    code = main([
        "witness", "-p", pres_path,
        "-f", "(exists x (and (Plus x x x) (not (= x x))))",
    ])
    assert code == 1
    assert capsys.readouterr().out.strip() == "no witness"


# ---------------------------------------------------------------- umset


def test_umset_lists_the_neighborhood(capsys):
    code = main(["umset", "-X", "w*2+1", "-m", "1", "-d", "w^2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "9 ordinals"
    assert lines[:-1] == ["0", "1", "w", "w+1", "w*2", "w*2+1", "w*2+2", "w*3", "w*3+1"]


def test_umset_radius_over_the_enumeration_cap_is_exit_three(capsys):
    assert main(["umset", "-X", "1", "-m", "9", "-d", "w"]) == 3
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("radius, bound", [("8", "w^9"), ("7", "w^2")])
def test_umset_box_over_the_enumeration_cap_is_exit_three_at_once(radius, bound, capsys):
    # the budget counts the candidates before trying any, whatever the bound
    start = time.perf_counter()
    assert main(["umset", "-X", "w*2+1", "-m", radius, "-d", bound]) == 3
    assert time.perf_counter() - start < 1
    assert "U_ENUM_BOX_MAX" in capsys.readouterr().err


def test_umset_bad_ordinal_is_a_usage_error(capsys):
    assert main(["umset", "-X", "w+w", "-m", "1", "-d", "w^2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- normalize


def test_normalize_moves_support_down(eq_path, capsys):
    code = main([
        "normalize", "-a", eq_path,
        "-w", "len=w*60+3; {w*17+5:a}",
        "--param", "len=w*60+3; {0:b}",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("len=w*60+3;")
    assert "w*17+3" in lines[0]
    assert any("shrink" in line for line in lines[1:])


def test_normalize_exploratory_radius(eq_path, capsys):
    code = main([
        "normalize", "-a", eq_path,
        "-w", "len=w*40+1; {w*30+7:a}",
        "-m", "5",
    ])
    assert code == 0
    capsys.readouterr()


def test_normalize_tiny_radius_is_a_usage_error(eq_path, capsys):
    code = main([
        "normalize", "-a", eq_path, "-w", "len=w*5; {w:a}", "-m", "2",
    ])
    assert code == 2
    capsys.readouterr()


def test_normalize_past_its_step_budget_is_exit_three(tmp_path, capsys):
    path = tmp_path / "subsupp.json"
    save_automaton(subsupp_automaton(AB), path)
    out = tmp_path / "r.json"
    argv = ["normalize", "-a", str(path), "-w", "len=w^2; {w*200+2:a}"]
    assert main(argv + ["--json-out", str(out)]) == 3
    message = "normalization exceeded max_steps = 64 steps"
    assert capsys.readouterr() == ("", f"resource limit: {message}\n")
    error = {"exit": 3, "type": "ResourceLimitExceeded", "message": message}
    assert json.loads(out.read_text())["error"] == error


@pytest.mark.parametrize("flags, code, err", [
    ([], 3, "resource limit: normalization exceeded max_steps = 64 steps\n"),
    (["--max-steps", "200"], 0, ""),
    (["--max-steps", "-1"], 2, "error: --max-steps must be >= 0, got -1\n"),
], ids=["default", "raised", "negative"])
def test_normalize_step_budget_flag(flags, code, err, tmp_path, capsys):
    path = tmp_path / "subsupp.json"
    save_automaton(subsupp_automaton(AB), path)
    argv = ["normalize", "-a", str(path), "-w", "len=w^2; {w*90+7:a}"]
    assert main(argv + flags) == code
    assert capsys.readouterr().err == err


def test_normalize_needing_no_cut_passes_a_zero_step_budget(tmp_path, capsys):
    path = tmp_path / "subsupp.json"
    save_automaton(subsupp_automaton(AB), path)
    argv = ["normalize", "-a", str(path), "-w", "len=w^2; {3:a}", "--max-steps", "0"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("len=w^2; {3:a}\n", "")


# ---------------------------------------------------------------- growth


def test_growth_probe_output_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
    argv = ["growth", "--stages", "0", "--rado", "2", "--squaring", "1"]
    assert main(argv + ["--json-out", str(out1)]) == 0
    text = capsys.readouterr().out
    assert "triangular family" in text
    assert "bit graph" in text
    assert main(argv + ["--json-out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["probe"][0] == {
        "stage": 0, "parameters": 2, "count": 8, "ratio": "4",
    }
    assert [r["count"] for r in report["rado"]] == [1, 2, 4]


@pytest.mark.parametrize("flag, budget", [
    ("--stages", "STAGES_MAX"),
    ("--rado", "RADO_MAX_N"),
    ("--squaring", "SQUARING_MAX_SUPPORT"),
])
def test_growth_probe_over_its_budget_is_exit_three(flag, budget, capsys):
    assert main(["growth", "--stages", "0", flag, "40"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and budget in err


# ---------------------------------------------------------------- saturate


def test_saturate_reports_every_factor(order_path, capsys):
    assert main(["saturate", "-a", order_path, "-m", "2"]) == 0
    text = capsys.readouterr().out
    assert text.count(": ok") == 9 * 4  # nine product symbols, four factors
    assert "VIOLATED" not in text


# ---------------------------------------------------------------- examples


def test_examples_listing_names(capsys):
    assert main(["examples"]) == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == sorted(names)
    assert {"presburger", "wellorder", "subsupp", "gen-a", "gen-b"} <= set(names)
    assert {"triangle0", "triangle1", "triangle2"} <= set(names)


@pytest.mark.parametrize(
    "name",
    ["presburger", "wellorder", "subsupp", "triangle0", "triangle1", "gen-a", "gen-b"],
)
def test_examples_emit_valid_json(name, capsys):
    assert main(["examples", name]) == 0
    json.loads(capsys.readouterr().out)


def test_examples_unknown_name(capsys):
    assert main(["examples", "nope"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_examples_round_trip_through_member(tmp_path, capsys):
    path = tmp_path / "order.json"
    assert main(["examples", "wellorder", "--json-out", str(path)]) == 0
    capsys.readouterr()
    assert main(["member", "-a", str(path), "-w", "len=3; {0:a|a, 1:b|b}"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------- error reports


@pytest.mark.parametrize("argv, code, kind, message", [
    pytest.param(
        ["member", "-a", "/no/such/file.json", "-w", "len=1; {}"], 2,
        "FileNotFoundError", "[Errno 2] No such file or directory: '/no/such/file.json'",
        id="missing-file"),
    pytest.param(
        ["umset", "-X", "w+1", "-m", "9", "-d", "w^2"], 3,
        "ResourceLimitExceeded",
        "neighborhood enumeration of radius 9 tries more than U_ENUM_BOX_MAX = 200000 "
        "candidates",
        id="enumeration-cap"),
    pytest.param(
        ["examples", "nosuch"], 2, "UsageError", "unknown example 'nosuch'",
        id="unknown-example"),
])
def test_error_exits_write_an_error_report(argv, code, kind, message, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(argv + ["--json-out", str(out)]) == code
    label = "resource limit" if code == 3 else "error"
    assert capsys.readouterr().err == f"{label}: {message}\n"
    assert json.loads(out.read_text()) == {
        "schema": "ordinalia.report/1",
        "command": argv[0],
        "error": {"exit": code, "type": kind, "message": message},
    }


# ---------------------------------------------------------------- usage


@pytest.mark.parametrize("argv, message", [
    (["umset", "-X", "w", "-m", "-1", "-d", "w^2"],
     "radius and rounds must be >= 0, got -1 and 1"),
    (["umset", "-X", "w", "-m", "1", "--rounds", "-1", "-d", "w^2"],
     "radius and rounds must be >= 0, got 1 and -1"),
    (["growth", "--stages", "-1"], "growth probe needs stages >= 0, got -1"),
    (["growth", "--rado", "-1"], "bit-graph probe needs n >= 0, got -1"),
    (["growth", "--squaring", "-2"], "squaring probe needs support >= 0, got -2"),
], ids=["radius", "rounds", "stages", "rado", "squaring"])
def test_negative_sizes_are_usage_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(argv + ["--json-out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    error = {"exit": 2, "type": "GrowthError", "message": message}
    assert json.loads(out.read_text())["error"] == error


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member", "-w", "len=1; {}"])
    assert exc.value.code == 2
    capsys.readouterr()
