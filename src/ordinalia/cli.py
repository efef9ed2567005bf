"""Command-line front end.

Every subcommand but ``examples`` is a report command: it prints a
human-readable summary to stdout and returns its exit code with the
fields of its report.  :func:`main` alone adds ``schema`` and
``command`` and writes the report to the ``--json-out`` file.  Reports
are deterministic — sorted keys, no timestamps — so byte-identical
runs are byte-identical files.  ``examples NAME --json-out FILE``
writes the example itself.

Exit codes: 0 success, 1 the queried property is false (rejected
word, false sentence, missing witness, failed saturation), 2 bad usage
or malformed input, 3 a resource limit was hit.  On 2 or 3 the message
goes to stderr after ``error:`` or ``resource limit:`` and the report
is ``{"error": {"exit", "type", "message"}}``, ``type`` naming the
exception class.  Argument-parsing failures (no subcommand, a missing
required flag) exit 2 before the options exist and write no report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys

from . import examples as ex
from .automata import AutomatonError, automaton_to_dict, load_automaton
from .gapcode import GapError
from .growth import GrowthError, RelationFamily, k_const, normalize, u_iter_set
from .logic import (
    LogicError,
    decide,
    find_witness,
    load_presentation,
    parse_formula,
    presentation_to_dict,
)
from .ordinals import OrdinalError, format_ordinal, parse_ordinal
from .semantics import ResourceLimitExceeded, member, saturation_holds
from .words import WordError, format_word, parse_word

SCHEMA = "ordinalia.report/1"


class UsageError(ValueError):
    """A command-line request that names nothing the program knows."""


USAGE_ERRORS = (UsageError, OrdinalError, WordError, AutomatonError, GapError,
                LogicError, GrowthError, OSError, json.JSONDecodeError)


def _write_json(data, path: str) -> None:
    payload = json.dumps(data, sort_keys=True, indent=2, default=str)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")


def _cmd_member(args) -> tuple[int, dict]:
    aut = load_automaton(args.automaton)
    w = parse_word(args.word, aut.alphabet)
    ok = member(aut, w)
    print("accepted" if ok else "rejected")
    return (0 if ok else 1), {"word": format_word(w), "accepted": ok}


def _cmd_decide(args) -> tuple[int, dict]:
    pres = load_presentation(args.presentation)
    value = decide(parse_formula(args.formula, pres.signature), pres)
    print("true" if value else "false")
    return (0 if value else 1), {"formula": args.formula, "value": value}


def _cmd_witness(args) -> tuple[int, dict]:
    pres = load_presentation(args.presentation)
    f = parse_formula(args.formula, pres.signature)
    names = []
    scan = f
    while scan.kind == "exists":
        names.append(scan.var)
        scan = scan.subs[0]
    words = find_witness(f, pres)
    if words is None:
        print("no witness")
        return 1, {"formula": args.formula, "witness": None}
    assignment = {name: format_word(w) for name, w in zip(names, words)}
    for name in names:
        print(f"{name} = {assignment[name]}")
    return 0, {"formula": args.formula, "witness": assignment}


def _cmd_umset(args) -> tuple[int, dict]:
    anchors = [parse_ordinal(part) for part in args.anchors.split(",") if part]
    bound = parse_ordinal(args.bound)
    out = sorted(u_iter_set(anchors, args.radius, args.rounds, bound))
    members = [format_ordinal(o) for o in out]
    for text in members:
        print(text)
    print(f"{len(out)} ordinals")
    return 0, {"radius": args.radius, "rounds": args.rounds, "bound": args.bound,
               "members": members}


def _cmd_normalize(args) -> tuple[int, dict]:
    auts = [load_automaton(path) for path in args.automaton]
    base = auts[0].alphabet.scalar
    v = parse_word(args.word, base)
    family = RelationFamily(tuple(auts), v.length)
    params = [parse_word(text, base) for text in args.param]
    if args.max_steps < 0:
        raise UsageError(f"--max-steps must be >= 0, got {args.max_steps}")
    result = normalize(family, params, v, m=args.radius, max_steps=args.max_steps)
    print(format_word(result.word))
    for step in result.steps:
        print(f"  {step}")
    return 0, {
        "input": format_word(v), "output": format_word(result.word),
        "steps": list(result.steps),
        "radius": args.radius if args.radius is not None else k_const(family),
    }


def _cmd_growth(args) -> tuple[int, dict]:
    # the two cheap budget checks run before the slow triangular probe
    rado = ex.rado_growth_demo(args.rado)
    squaring = ex.squaring_experiment(args.squaring)
    rng = random.Random(args.seed) if args.seed is not None else None
    probe = ex.growth_bound_probe(max_stage=args.stages, rng=rng)
    print("triangular family: stage, parameters, count, ratio")
    for row in probe:
        print(f"  {row.stage}  {row.parameter_count}  {row.nu}  {row.ratio}")
    print("bit graph: n, count")
    for row in rado:
        print(f"  {row.n}  {row.nu}")
    print("affine maps over carry-less polynomials: support, slope, distinct")
    for row in squaring:
        print(f"  {row.support}  {row.slope}  {row.distinct}")
    return 0, {
        "probe": [{"stage": r.stage, "parameters": r.parameter_count,
                   "count": r.nu, "ratio": str(r.ratio)} for r in probe],
        "rado": [{"n": r.n, "count": r.nu} for r in rado],
        "squaring": [{"support": r.support, "slope": r.slope,
                      "pairs": r.pair_count, "distinct": r.distinct}
                     for r in squaring],
    }


def _cmd_saturate(args) -> tuple[int, dict]:
    aut = load_automaton(args.automaton)
    level = args.exponent if args.exponent is not None else len(aut.states)
    checks = []
    for sym in sorted(aut.alphabet.symbols, key=repr):
        for c in (2, 3, 5, "omega"):
            holds = saturation_holds(aut, sym, level, c)
            checks.append({"symbol": str(sym), "factor": str(c), "holds": holds})
            print(f"{sym!r} x{c}: {'ok' if holds else 'VIOLATED'}")
    all_hold = all(check["holds"] for check in checks)
    return (0 if all_hold else 1), {"exponent": level, "checks": checks}


# name -> (blurb, builder of the JSON-ready example)
EXAMPLES = {
    "presburger": ("naturals with addition, base-2 least-significant-first",
                   lambda: presentation_to_dict(ex.presburger_presentation())),
    "wellorder": ("order on words: largest differing position decides",
                  lambda: automaton_to_dict(ex.wellorder_automaton(ex.AB))),
    "subsupp": ("support of the first track inside support of the second",
                lambda: automaton_to_dict(ex.subsupp_automaton(ex.AB))),
    **{f"triangle{n}": (
        f"words supported exactly on the triangular position set, stage {n}",
        lambda n=n: automaton_to_dict(ex.tn_automaton(n))) for n in range(3)},
    **{f"gen-{t}": (
        f"graph of the stage generator that starts blocks with {t}",
        lambda t=t: automaton_to_dict(ex.f_automaton(t))) for t in "ab"},
}


def _cmd_examples(args) -> tuple[int, None]:
    if args.name is None:
        for name, (blurb, _) in sorted(EXAMPLES.items()):
            print(f"{name}: {blurb}")
        return 0, None
    if args.name not in EXAMPLES:
        raise UsageError(f"unknown example {args.name!r}")
    data = EXAMPLES[args.name][1]()
    if args.json_out:
        _write_json(data, args.json_out)
        print(f"wrote {args.name} to {args.json_out}")
    else:
        print(json.dumps(data, sort_keys=True, indent=2))
    return 0, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordinalia",
        description="Automata on transfinite words: membership, "
        "first-order decisions, support normalization, growth probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json-out", help="write a JSON report here")

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[report])
        p.set_defaults(func=func)
        return p

    p = command("member", _cmd_member, "run an automaton on a word")
    p.add_argument("-a", "--automaton", required=True, help="automaton JSON file")
    p.add_argument("-w", "--word", required=True, help="word literal")

    p = command("decide", _cmd_decide, "decide a sentence over a presentation")
    p.add_argument("-p", "--presentation", required=True,
                   help="presentation JSON file")
    p.add_argument("-f", "--formula", required=True, help="sentence, s-expression")

    p = command("witness", _cmd_witness, "extract witnesses for an existential")
    p.add_argument("-p", "--presentation", required=True,
                   help="presentation JSON file")
    p.add_argument("-f", "--formula", required=True,
                   help="existential sentence, s-expression")

    p = command("umset", _cmd_umset, "enumerate an ordinal neighborhood of anchors")
    p.add_argument("-X", "--anchors", required=True,
                   help="comma-separated ordinal literals")
    p.add_argument("-m", "--radius", required=True, type=int,
                   help="neighborhood radius")
    p.add_argument("-d", "--bound", required=True,
                   help="exclusive ordinal bound")
    p.add_argument("--rounds", type=int, default=1,
                   help="iterate the neighborhood operator (default 1)")

    p = command("normalize", _cmd_normalize,
                "move a word's support next to the parameters")
    p.add_argument("-a", "--automaton", required=True, action="append",
                   help="automaton JSON file (repeatable; track 0 is the element)")
    p.add_argument("-w", "--word", required=True, help="word literal to normalize")
    p.add_argument("--param", action="append", default=[],
                   help="parameter word literal (repeatable)")
    p.add_argument("-m", "--radius", type=int, default=None,
                   help="exploratory radius instead of the true constant")
    p.add_argument("--max-steps", type=int, default=64,
                   help="budget of window cuts and transplants (default 64)")

    p = command("growth", _cmd_growth, "run the growth-rate probes")
    p.add_argument("--stages", type=int, default=1,
                   help="last triangular stage to evaluate (default 1)")
    p.add_argument("--rado", type=int, default=4,
                   help="largest bit-graph parameter count (default 4)")
    p.add_argument("--squaring", type=int, default=3,
                   help="largest polynomial support (default 3)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed automaton cross-checks of the last stage")

    p = command("saturate", _cmd_saturate,
                "check limit-power saturation of an automaton")
    p.add_argument("-a", "--automaton", required=True, help="automaton JSON file")
    p.add_argument("-m", "--exponent", type=int, default=None,
                   help="tower exponent (default: number of states)")

    p = sub.add_parser("examples", help="bundled automata and presentations")
    p.add_argument("name", nargs="?", help="which example to print")
    p.add_argument("--json-out", help="write the example JSON here")
    p.set_defaults(func=_cmd_examples)

    return parser


def _report(args, fields: dict) -> None:
    if args.json_out:
        _write_json({"schema": SCHEMA, "command": args.command, **fields},
                    args.json_out)


def _fail(args, code: int, label: str, exc: Exception) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    error = {"exit": code, "type": type(exc).__name__, "message": str(exc)}
    with contextlib.suppress(OSError):  # the failure may be the report file
        _report(args, {"error": error})
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, fields = args.func(args)
        if fields is not None:
            _report(args, fields)
        return code
    except ResourceLimitExceeded as exc:
        return _fail(args, 3, "resource limit", exc)
    except USAGE_ERRORS as exc:
        return _fail(args, 2, "error", exc)


if __name__ == "__main__":
    sys.exit(main())
