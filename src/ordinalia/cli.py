"""Command-line front end.

Every subcommand prints a human-readable summary to stdout and can
additionally write a JSON report with ``--json-out``.  Reports are
deterministic — sorted keys, no timestamps — so byte-identical runs
are byte-identical files.  Exit codes: 0 success, 1 the queried
property is false (rejected word, false sentence, missing witness,
failed saturation), 2 bad usage or malformed input, 3 a resource
limit was hit.
"""

from __future__ import annotations

import argparse
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
from .words import WordError, format_word, parse_word, support

SCHEMA = "ordinalia.report/1"

USAGE_ERRORS = (
    OrdinalError,
    WordError,
    AutomatonError,
    GapError,
    LogicError,
    GrowthError,
    OSError,
    json.JSONDecodeError,
)


def _emit(report: dict, json_out: str | None) -> None:
    if json_out:
        payload = json.dumps(report, sort_keys=True, indent=2, default=str)
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


def _cmd_member(args) -> int:
    aut = load_automaton(args.automaton)
    w = parse_word(args.word, aut.alphabet)
    ok = member(aut, w)
    print("accepted" if ok else "rejected")
    _emit(
        {"schema": SCHEMA, "command": "member", "word": format_word(w),
         "accepted": ok},
        args.json_out,
    )
    return 0 if ok else 1


def _cmd_decide(args) -> int:
    pres = load_presentation(args.presentation)
    f = parse_formula(args.formula, pres.signature)
    value = decide(f, pres)
    print("true" if value else "false")
    _emit(
        {"schema": SCHEMA, "command": "decide", "formula": args.formula,
         "value": value},
        args.json_out,
    )
    return 0 if value else 1


def _cmd_witness(args) -> int:
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
        _emit(
            {"schema": SCHEMA, "command": "witness", "formula": args.formula,
             "witness": None},
            args.json_out,
        )
        return 1
    assignment = {name: format_word(w) for name, w in zip(names, words)}
    for name in names:
        print(f"{name} = {assignment[name]}")
    _emit(
        {"schema": SCHEMA, "command": "witness", "formula": args.formula,
         "witness": assignment},
        args.json_out,
    )
    return 0


def _cmd_umset(args) -> int:
    anchors = [parse_ordinal(part) for part in args.anchors.split(",") if part]
    bound = parse_ordinal(args.bound)
    out = sorted(u_iter_set(anchors, args.radius, args.rounds, bound))
    for o in out:
        print(format_ordinal(o))
    print(f"{len(out)} ordinals")
    _emit(
        {"schema": SCHEMA, "command": "umset", "radius": args.radius,
         "rounds": args.rounds, "bound": args.bound,
         "members": [format_ordinal(o) for o in out]},
        args.json_out,
    )
    return 0


def _cmd_normalize(args) -> int:
    auts = [load_automaton(path) for path in args.automaton]
    base = auts[0].alphabet.scalar
    v = parse_word(args.word, base)
    family = RelationFamily(tuple(auts), v.length)
    params = [parse_word(text, base) for text in args.param]
    result = normalize(family, params, v, m=args.radius)
    print(format_word(result.word))
    for step in result.steps:
        print(f"  {step}")
    _emit(
        {"schema": SCHEMA, "command": "normalize", "input": format_word(v),
         "output": format_word(result.word), "steps": list(result.steps),
         "radius": args.radius if args.radius is not None else k_const(family)},
        args.json_out,
    )
    return 0


def _cmd_growth(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    probe = ex.growth_bound_probe(max_stage=args.stages, rng=rng)
    rado = ex.rado_growth_demo(args.rado)
    squaring = ex.squaring_experiment(args.squaring)
    print("triangular family: stage, parameters, count, ratio")
    for row in probe:
        print(f"  {row.stage}  {row.parameter_count}  {row.nu}  {row.ratio}")
    print("bit graph: n, count")
    for row in rado:
        print(f"  {row.n}  {row.nu}")
    print("affine maps over carry-less polynomials: support, slope, distinct")
    for row in squaring:
        print(f"  {row.support}  {row.slope}  {row.distinct}")
    _emit(
        {
            "schema": SCHEMA,
            "command": "growth",
            "probe": [
                {"stage": r.stage, "parameters": r.parameter_count,
                 "count": r.nu, "ratio": str(r.ratio)}
                for r in probe
            ],
            "rado": [{"n": r.n, "count": r.nu} for r in rado],
            "squaring": [
                {"support": r.support, "slope": r.slope,
                 "pairs": r.pair_count, "distinct": r.distinct}
                for r in squaring
            ],
        },
        args.json_out,
    )
    return 0


def _cmd_saturate(args) -> int:
    aut = load_automaton(args.automaton)
    level = args.exponent if args.exponent is not None else len(aut.states)
    factors: list = [2, 3, 5, "omega"]
    checks = []
    all_hold = True
    for sym in sorted(aut.alphabet.symbols, key=repr):
        for c in factors:
            holds = saturation_holds(aut, sym, level, c)
            all_hold &= holds
            checks.append((sym, c, holds))
            mark = "ok" if holds else "VIOLATED"
            print(f"{sym!r} x{c}: {mark}")
    _emit(
        {"schema": SCHEMA, "command": "saturate", "exponent": level,
         "checks": [
             {"symbol": str(s), "factor": str(c), "holds": h}
             for s, c, h in checks
         ]},
        args.json_out,
    )
    return 0 if all_hold else 1


def _example_registry() -> dict:
    return {
        "presburger": (
            "naturals with addition, base-2 least-significant-first",
            lambda: presentation_to_dict(ex.presburger_presentation()),
        ),
        "wellorder": (
            "order on words: largest differing position decides",
            lambda: automaton_to_dict(ex.wellorder_automaton(ex.AB)),
        ),
        "subsupp": (
            "support of the first track inside support of the second",
            lambda: automaton_to_dict(ex.subsupp_automaton(ex.AB)),
        ),
        "triangle0": (
            "words supported exactly on the triangular position set, stage 0",
            lambda: automaton_to_dict(ex.tn_automaton(0)),
        ),
        "triangle1": (
            "words supported exactly on the triangular position set, stage 1",
            lambda: automaton_to_dict(ex.tn_automaton(1)),
        ),
        "triangle2": (
            "words supported exactly on the triangular position set, stage 2",
            lambda: automaton_to_dict(ex.tn_automaton(2)),
        ),
        "gen-a": (
            "graph of the stage generator that starts blocks with a",
            lambda: automaton_to_dict(ex.f_automaton("a")),
        ),
        "gen-b": (
            "graph of the stage generator that starts blocks with b",
            lambda: automaton_to_dict(ex.f_automaton("b")),
        ),
    }


def _cmd_examples(args) -> int:
    registry = _example_registry()
    if args.name is None:
        for name, (blurb, _) in sorted(registry.items()):
            print(f"{name}: {blurb}")
        return 0
    if args.name not in registry:
        print(f"error: unknown example {args.name!r}", file=sys.stderr)
        return 2
    blurb, build = registry[args.name]
    data = build()
    payload = json.dumps(data, sort_keys=True, indent=2)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.name} to {args.json_out}")
    else:
        print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordinalia",
        description="Automata on transfinite words: membership, "
        "first-order decisions, support normalization, growth probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="run an automaton on a word")
    p.add_argument("-a", "--automaton", required=True, help="automaton JSON file")
    p.add_argument("-w", "--word", required=True, help="word literal")
    p.add_argument("--json-out", help="write a JSON report here")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("decide", help="decide a sentence over a presentation")
    p.add_argument("-p", "--presentation", required=True,
                   help="presentation JSON file")
    p.add_argument("-f", "--formula", required=True, help="sentence, s-expression")
    p.add_argument("--json-out", help="write a JSON report here")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("witness", help="extract witnesses for an existential")
    p.add_argument("-p", "--presentation", required=True,
                   help="presentation JSON file")
    p.add_argument("-f", "--formula", required=True,
                   help="existential sentence, s-expression")
    p.add_argument("--json-out", help="write a JSON report here")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("umset",
                       help="enumerate an ordinal neighborhood of anchors")
    p.add_argument("-X", "--anchors", required=True,
                   help="comma-separated ordinal literals")
    p.add_argument("-m", "--radius", required=True, type=int,
                   help="neighborhood radius")
    p.add_argument("-d", "--bound", required=True,
                   help="exclusive ordinal bound")
    p.add_argument("--rounds", type=int, default=1,
                   help="iterate the neighborhood operator (default 1)")
    p.add_argument("--json-out", help="write a JSON report here")
    p.set_defaults(func=_cmd_umset)

    p = sub.add_parser("normalize",
                       help="move a word's support next to the parameters")
    p.add_argument("-a", "--automaton", required=True, action="append",
                   help="automaton JSON file (repeatable; track 0 is the element)")
    p.add_argument("-w", "--word", required=True, help="word literal to normalize")
    p.add_argument("--param", action="append", default=[],
                   help="parameter word literal (repeatable)")
    p.add_argument("-m", "--radius", type=int, default=None,
                   help="exploratory radius instead of the true constant")
    p.add_argument("--json-out", help="write a JSON report here")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("growth", help="run the growth-rate probes")
    p.add_argument("--stages", type=int, default=1,
                   help="last triangular stage to evaluate (default 1)")
    p.add_argument("--rado", type=int, default=4,
                   help="largest bit-graph parameter count (default 4)")
    p.add_argument("--squaring", type=int, default=3,
                   help="largest polynomial support (default 3)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed automaton cross-checks of the last stage")
    p.add_argument("--json-out", help="write a JSON report here")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("saturate",
                       help="check limit-power saturation of an automaton")
    p.add_argument("-a", "--automaton", required=True, help="automaton JSON file")
    p.add_argument("-m", "--exponent", type=int, default=None,
                   help="tower exponent (default: number of states)")
    p.add_argument("--json-out", help="write a JSON report here")
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("examples", help="bundled automata and presentations")
    p.add_argument("name", nargs="?", help="which example to print")
    p.add_argument("--json-out", help="write the example JSON here")
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
