"""Command-line frontend.

Subcommands: complexity, check, steps, synth, export-uppaal, casestudy.
Models are .nsm paths or bundled case-study names (`casestudy.models()`:
the .nsm stems under `casestudy.DATA_DIR`); bundled models bring their
strategies and formulas along.

Exit codes: 0 all verdicts true / metrics computed, 1 a checked property is
false, 2 a usage error, an unreadable or unwritable file, or any other
natstrat error (definition, strategy, bounds), 3 a resource cap was
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import casestudy
from .checker import SynthesisConfig, eval_formula, synthesize_strategic
from .dsl import (
    ParsedBundle, load_bundle, parse_formula, parse_guard_text, print_strategy,
)
from .errors import DefinitionError, NatStratError, ParseError, ResourceLimitError
from .formula import FAtom, Strategic, map_formula
from .model import DEFAULT_STATE_CAP, Network
from .outcome import steps_to_goal
from .report import (
    EXIT_OK, EXIT_PROPERTY, EXIT_RESOURCE, EXIT_USAGE, RunReport, TaskReport,
)
from .strategy import collective, complexity
from .uppaal import export_uppaal

def _load_model(spec: str) -> ParsedBundle:
    # a file wins over a bundled model of the same name, a directory does not;
    # any other existing path is read, so that its error is the OS's
    path = Path(spec)
    if path.is_file() or (path.exists() and spec not in casestudy.models()):
        return load_bundle(path)
    return casestudy.load(spec)


def _merge_strategies(bundle: ParsedBundle, paths: list[str]) -> None:
    for p in paths:
        sub = load_bundle(Path(p), net=bundle.network)
        bundle.strategies.update(sub.strategies)
        bundle.formulas.update(sub.formulas)


def _state_text(net: Network, state) -> str:
    locs = ", ".join(f"{a.name}@{loc}" for a, loc in zip(net.agents, state.locations))
    vals = ", ".join(f"{v.name}={x}" for (_, v), x in zip(net.var_decls(), state.values)
                     if x != v.init)
    return f"({locs}{'; ' + vals if vals else ''})"


def _trace(net: Network, graph, path) -> dict:
    """A witness path over `graph` as report details: `witness_path`, the
    states, the one a lasso returns to (the last state, seen before) marked
    as the cycle entry; `witness_moves`, per step the labels of the
    productive moves it takes, in move-id order, joined with ` | `."""
    states = [_state_text(net, graph.states[i]) for i in path]
    entry = path.index(path[-1])
    if entry < len(path) - 1:
        states[entry] += "  <- cycle entry"
    moves = []
    for i, j in zip(path, path[1:]):
        lo, hi = graph.offsets[i], graph.offsets[i + 1]
        ids = sorted({m for m, t in zip(graph.move_ids[lo:hi], graph.targets[lo:hi])
                      if t == j and not graph.idle[m]})
        moves.append(" | ".join(graph.moves[m].label() for m in ids))
    return {"witness_path": states, "witness_moves": moves}


def _synthesis_config(args) -> SynthesisConfig:
    if args.enumeration_cap < 1:  # a usage error, as for --state-cap
        raise DefinitionError(
            f"--enumeration-cap must be at least 1, got {args.enumeration_cap}")
    return SynthesisConfig(enumeration_cap=args.enumeration_cap)


def _witness_detail(net: Network, res, show_path: bool = False) -> dict:
    detail: dict = {}
    if res.reason:
        detail["reason"] = res.reason
    if res.witness_strategy:
        detail["witness_strategy"] = "\n".join(
            print_strategy(s) for s in res.witness_strategy.values())
    if res.witness_path and show_path:
        detail.update(_trace(net, res.graph, res.witness_path))
    detail["stats"] = {
        "states_explored": res.stats.states_explored,
        "strategies_enumerated": res.stats.strategies_enumerated,
        "strategies_checked": res.stats.strategies_checked,
        "wall_time": round(res.stats.wall_time, 6),
    }
    return detail


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_complexity(args, report: RunReport) -> int:
    net = _load_model(args.model).network if args.model else None
    bundle = load_bundle(Path(args.strategy_file), net=net)
    names = [args.strategy] if args.strategy else sorted(bundle.strategies)
    for name in names:
        if name not in bundle.strategies:
            raise DefinitionError(f"no strategy {name} in {args.strategy_file}")
        s = bundle.strategies[name]
        value = complexity(s, convention=args.convention)
        detail = {}
        other = "literal" if args.convention == "paper" else "paper"
        alt = complexity(s, convention=other)
        if alt != value:
            detail["note"] = f"{other} convention gives {alt}"
        report.add(TaskReport("complexity", name, "ok", value=value, detail=detail))
    return EXIT_OK


def _cmd_check(args, report: RunReport) -> int:
    bundle = _load_model(args.model)
    _merge_strategies(bundle, args.strategies or [])
    net = bundle.network
    if args.formula_name:
        if args.formula_name not in bundle.formulas:
            raise DefinitionError(f"no formula {args.formula_name} in the model bundle")
        formula = bundle.formulas[args.formula_name]
        fname = args.formula_name
    elif args.formula:
        formula = parse_formula(args.formula, net)
        fname = args.formula
    else:
        raise DefinitionError("check needs --formula or --formula-name")
    if args.bound is not None:
        formula = map_formula(formula, lambda g: replace(g, bound=args.bound)
                              if isinstance(g, Strategic) else g)
    supplied = []
    if args.use:
        for name in args.use:
            if name not in bundle.strategies:
                raise DefinitionError(f"unknown strategy {name}")
        supplied.append(collective(*(bundle.strategies[name] for name in args.use)))
    mode = "synthesize" if args.mode == "synth" else args.mode
    res = eval_formula(net, formula, mode=mode, supplied=supplied,
                       strategies_by_name=bundle.strategies,
                       synthesis=_synthesis_config(args), state_cap=args.state_cap)
    status = "ok" if res.verdict else ("error" if res.verdict is None else "fail")
    report.add(TaskReport("check", fname, status, value=res.verdict,
                          detail=_witness_detail(net, res, show_path=True)))
    if res.verdict is None:
        return EXIT_RESOURCE
    return EXIT_OK if res.verdict else EXIT_PROPERTY


def _cmd_steps(args, report: RunReport) -> int:
    bundle = _load_model(args.model)
    _merge_strategies(bundle, args.strategies or [])
    net = bundle.network
    if args.strategy not in bundle.strategies:
        raise DefinitionError(f"unknown strategy {args.strategy}")
    s = bundle.strategies[args.strategy]
    goal = parse_guard_text(args.goal, net)
    start = None
    if args.start:  # AGENT=LOC items
        bad = [item for item in args.start if not all(item.partition("="))]
        if bad:
            raise DefinitionError(f"--start expects AGENT=LOC, got {bad[0]!r}")
        start = net.state(locations=dict(item.partition("=")[::2] for item in args.start))
    res = steps_to_goal(net, start, {s.agent: s}, goal, state_cap=args.state_cap)
    detail = {}
    if not res.reached and res.witness:
        detail = _trace(net, res.graph, res.witness)
        detail["reason"] = ("a maximal trace never reaches the goal"
                            if res.kind == "unreachable"
                            else "a pre-goal cycle makes the worst case infinite")
    report.add(TaskReport("steps", f"{args.strategy} -> {args.goal}", "ok",
                          value=res.value if res.reached else res.kind,
                          detail=detail))
    return EXIT_OK


def _cmd_synth(args, report: RunReport) -> int:
    bundle = _load_model(args.model)
    net = bundle.network
    coalition = [a for a in args.coalition.split(",") if a]
    for agent in coalition:
        net.agent(agent)  # 'unknown agent X', not the parser's coalition message
    head = f"<<{','.join(coalition)}>>^{args.bound} "
    try:
        f = parse_formula(head + args.goal, net, filename="<goal>")
    except ParseError as exc:  # a span in the goal, not in the formula read
        span = exc.span if exc.span.line > 1 else \
            replace(exc.span, column=exc.span.column - len(head))
        raise ParseError(str(exc).split(": ", 1)[1], span) from None
    if not (isinstance(f, Strategic) and all(isinstance(sub, FAtom) for sub in f.subs)):
        raise DefinitionError("--goal must be X g, F g, G g or (f U g) over guards "
                              "g, f; bracket a connective under X/F/G: 'F (a && b)'")
    res = synthesize_strategic(net, None, f.coalition, f.bound, f.op,
                               [sub.guard for sub in f.subs],
                               config=_synthesis_config(args), state_cap=args.state_cap)
    status = "ok" if res.verdict else "fail"
    report.add(TaskReport("synth", f"<<{args.coalition}>>^{args.bound} {args.goal}",
                          status, value=res.verdict, detail=_witness_detail(net, res)))
    return EXIT_OK if res.verdict else EXIT_PROPERTY


def _cmd_export(args, report: RunReport) -> int:
    bundle = _load_model(args.model)
    _merge_strategies(bundle, args.strategies or [])
    net = bundle.network
    s_A = None
    if args.fix_strategy:
        if args.fix_strategy not in bundle.strategies:
            raise DefinitionError(f"unknown strategy {args.fix_strategy}")
        s = bundle.strategies[args.fix_strategy]
        s_A = {s.agent: s}
    formulas = []
    for name in args.query or []:
        if name not in bundle.formulas:
            raise DefinitionError(f"unknown formula {name}")
        formulas.append(bundle.formulas[name])
    doc = export_uppaal(net, s_A, formulas)
    stem = args.stem or Path(args.model).stem
    xml_path, q_path = doc.write(args.out, stem=stem)
    report.add(TaskReport("export-uppaal", args.model, "ok",
                          value=str(xml_path),
                          detail={"queries": str(q_path)}))
    return EXIT_OK


def _cmd_casestudy(args, report: RunReport) -> int:
    if args.list:
        cat = casestudy.catalog()
        for name, net in sorted(cat.networks.items()):
            report.add(TaskReport("network", name, "ok",
                                  value=f"{len(net.agents)} agent(s)"))
        for name, (bundle_name, s) in sorted(cat.strategies.items()):
            report.add(TaskReport("strategy", f"{name} ({bundle_name})", "ok",
                                  value=f"complexity {complexity(s)}"))
        for name, _ in sorted(cat.formulas.items()):
            report.add(TaskReport("formula", name, "ok"))
        return EXIT_OK
    results = casestudy.run_all(state_cap=args.state_cap)
    all_ok = True
    for r in results:
        status = "ok" if r.ok else "fail"
        all_ok = all_ok and r.ok
        report.add(TaskReport(r.kind, r.name, status,
                              value=r.actual, expected=r.expected))
    return EXIT_OK if all_ok else EXIT_PROPERTY


# ---------------------------------------------------------------------------

def _add_enumeration_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--enumeration-cap", type=int, metavar="N",
                        default=SynthesisConfig().enumeration_cap,
                        help="canonical positions a synthesis may enumerate "
                             "before it stops with 'unknown' (exit 3)")


@functools.cache  # built once per process: each parse fills a new namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="natstrat",
        description="Natural-strategy complexity metrics and model checking "
                    "for guarded automata networks.")
    def add_globals(parser, suppress):
        d = argparse.SUPPRESS if suppress else None
        parser.add_argument("--format", choices=("text", "json"),
                            default=d if suppress else "text")
        parser.add_argument("--state-cap", type=int,
                            default=d if suppress else DEFAULT_STATE_CAP)
        parser.add_argument("--seed", type=int,
                            default=d if suppress else None,
                            help="echoed into the report; verdicts never "
                                 "depend on it")
    add_globals(ap, suppress=False)
    # the same flags are accepted after the subcommand; suppressed defaults
    # keep them from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    add_globals(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", parents=[common],
                       help="complexity of strategies in a .nss file")
    p.add_argument("strategy_file")
    p.add_argument("--model", help="network context (.nsm path or bundled name)")
    p.add_argument("--strategy", help="strategy name (default: all in the file)")
    p.add_argument("--convention", choices=("paper", "literal"), default="paper")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("check", parents=[common],
                   help="check a formula on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", help="formula text")
    p.add_argument("--formula-name", help="formula name from the model bundle")
    p.add_argument("--strategies", action="append", metavar="FILE",
                   help="extra .nss file(s) to load")
    p.add_argument("--use", "--strategy", action="append", metavar="NAME",
                   dest="use",
                   help="strategy name(s) supplied to strategic operators")
    p.add_argument("--mode", choices=("verify", "synthesize", "synth"),
                   default="verify")
    p.add_argument("--bound", type=int, help="override the complexity bound")
    _add_enumeration_cap(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("steps", parents=[common],
                   help="worst-case steps to reach a goal")
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--strategies", action="append", metavar="FILE")
    p.add_argument("--goal", required=True, help="guard expression")
    p.add_argument("--start", action="append", metavar="AGENT=LOC",
                   help="start location override(s)")
    p.set_defaults(func=_cmd_steps)

    p = sub.add_parser("synth", parents=[common],
                   help="bounded strategy synthesis")
    p.add_argument("--model", required=True)
    p.add_argument("--coalition", required=True, help="comma-separated agents")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--goal", required=True,
                   help="X g, F g, G g or (f U g) over guards, e.g. 'F end'")
    _add_enumeration_cap(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("export-uppaal", parents=[common],
                   help="export model (+fixed strategy) to UPPAAL XML")
    p.add_argument("--model", required=True)
    p.add_argument("--fix-strategy", help="strategy to fix into the model first")
    p.add_argument("--strategies", action="append", metavar="FILE")
    p.add_argument("--query", action="append", metavar="FORMULA_NAME",
                   help="formula(s) to rewrite into the .q file")
    p.add_argument("--out", required=True)
    p.add_argument("--stem", help="output file stem (default: model name)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("casestudy", parents=[common],
                   help="bundled case study")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true")
    g.add_argument("--run-all", action="store_true")
    p.set_defaults(func=_cmd_casestudy)
    return ap


def _run(argv: Optional[list[str]]) -> tuple[int, RunReport, str]:
    """Run one command; also return the output format argparse parsed
    ('text' when the arguments do not parse)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        code = EXIT_USAGE if exc.code not in (0, None) else 0
        return code, RunReport(command=argv, exit_status=code), "text"
    report = RunReport(command=argv, seed=args.seed)
    t0 = time.perf_counter()
    try:
        if args.state_cap < 1:  # a usage error, not a cap that was hit
            raise DefinitionError(f"--state-cap must be at least 1, got {args.state_cap}")
        code = args.func(args, report)
    except (NatStratError, OSError) as exc:  # OSError: an unreadable or unwritable path
        report.add(TaskReport("error", args.command, "error",
                              detail={"error": str(exc)}))
        code = EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_USAGE
    report.stats["wall_time"] = round(time.perf_counter() - t0, 6)
    report.exit_status = code
    return code, report, args.format


def cli_main(argv: Optional[list[str]] = None) -> tuple[int, RunReport]:
    return _run(argv)[:2]


def main(argv: Optional[list[str]] = None) -> int:
    code, report, fmt = _run(argv)
    try:
        print(report.to_json() if fmt == "json" else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is left, and the flush at exit, to
        # the null device, as the `signal` module documentation recommends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
