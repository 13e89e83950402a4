"""Command line front end: plan, suite, summarize, render.

Every flag can also be set through the environment with the ``MHPLAN_``
prefix (e.g. ``MHPLAN_BUDGET=2.5``); explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness, render
from .costmap import GenerationError
from .planners import MODES, PlannerMode
from .search_core import AnytimeConfig, VirtualClock, WallClock

ENV_PREFIX = "MHPLAN_"


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name.upper())


def _env_typed(name: str, conv, fallback):
    raw = _env(name)
    if raw is None:
        return fallback
    try:
        return conv(raw)
    except ValueError:
        raise SystemExit(f"mhplan: bad {ENV_PREFIX}{name.upper()} value {raw!r}")


def _env_flag(name: str) -> bool:
    raw = _env(name)
    return raw is not None and raw.lower() not in ("", "0", "false", "no")


def _add_planning(p: argparse.ArgumentParser) -> None:
    """Flags of the commands that build their one scenario from the command
    line; ``suite`` takes its scenarios, configs included, from files."""
    p.add_argument("--modes", default=_env("MODES"),
                   help="comma separated planner modes (default: all five)")
    p.add_argument("--budget", type=float,
                   default=_env_typed("budget", float, None),
                   help="planning time budget in seconds (default 1.0)")
    p.add_argument("--inflation", type=float,
                   default=_env_typed("inflation", float, None),
                   help="initial heuristic inflation (default 2.0)")
    p.add_argument("--seed", type=int, default=_env_typed("seed", int, None),
                   help="generator seed for builtin clutter scenarios "
                        "(a scenario file fixes its own)")
    p.add_argument("--out", default=_env("OUT"), help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mhplan",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run one scenario and print the results")
    p.add_argument("scenario",
                   help="builtin name (fig3, fig4, seal, clutter{...}) or .mhscen file")
    _add_planning(p)
    p.add_argument("--wallclock", action="store_true",
                   default=_env_flag("wallclock"),
                   help="measure real elapsed time instead of the deterministic clock")

    p = sub.add_parser("suite", help="run a scenario file or directory")
    p.add_argument("path", help=".mhscen file or directory of them")
    p.add_argument("--out", default=_env("OUT"), help="write the records CSV here")
    p.add_argument("--jobs", type=int, default=_env_typed("jobs", int, 1),
                   help="parallel scenario workers (default 1)")

    p = sub.add_parser("summarize", help="aggregate a results CSV")
    p.add_argument("results", help="results CSV from 'suite' or 'plan --out'")
    p.add_argument("--out", default=_env("OUT"), help="write table here instead of stdout")

    p = sub.add_parser("render", help="plan a scenario and emit an SVG overlay")
    p.add_argument("scenario", help="builtin name or .mhscen file")
    _add_planning(p)
    return parser


def _resolve_scenario(args) -> harness.Scenario:
    spec = args.scenario
    modes = tuple(PlannerMode(m.strip()) for m in args.modes.split(",")) \
        if args.modes else MODES
    if os.path.exists(spec) or spec.endswith(".mhscen"):
        if args.seed is not None:
            raise ValueError(f"--seed applies to builtin scenarios; {spec} fixes its own")
        sc = harness.load_scenario(spec)
        if args.modes:
            sc = replace(sc, modes=modes)
    else:
        sc = harness.builtin_scenario(spec, modes=modes, seed=args.seed)
    cfg = sc.cfg
    if args.budget is not None:
        cfg = replace(cfg, time_budget=args.budget)
    if args.inflation is not None:
        cfg = replace(cfg, initial_inflation=args.inflation)
    # One run per mode, whatever repetitions a scenario file asks for.
    return replace(sc, cfg=cfg, repetitions=1)


def cmd_plan(args) -> int:
    sc = _resolve_scenario(args)
    clock = WallClock if args.wallclock else VirtualClock
    records = []
    for rec, res in harness.plan_scenario(sc, sc.source.resolve(), clock):
        dur = f"{rec.path_duration:.3f}" if rec.path_duration is not None else "-"
        cost = f"{res.cost:.3f}" if res.cost is not None else "-"
        print(f"{rec.mode:<6} {rec.status:<22} cost={cost:<9} duration={dur:<9} "
              f"time={rec.planning_time:.4f}s expansions={rec.expansions} "
              f"reroutes={rec.reroutes} inflation={rec.final_inflation:.2f}")
        records.append(rec)
    if args.out:
        harness.write_records(records, args.out)
    return 0


def cmd_suite(args) -> int:
    entries = harness.collect_scenarios(args.path)
    if not entries:
        print("no scenarios found", file=sys.stderr)
    suite = harness.run_suite(entries, args.out, jobs=args.jobs)
    for name, message in suite.errors:
        print(f"error: {name}: {message}", file=sys.stderr)
    print(f"{len(suite.records)} records from {len(entries)} scenarios"
          + (f" -> {args.out}" if args.out else ""))
    if not args.out:
        for rec in suite.records:
            print(",".join(rec.row()))
    return 0 if suite.ok else 1


def cmd_summarize(args) -> int:
    records = harness.read_records(args.results)
    table = harness.format_summary(harness.summarize(records))
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(table)
    else:
        print(table, end="")
    return 0


def cmd_render(args) -> int:
    sc = _resolve_scenario(args)
    stack = sc.source.resolve()
    overlays = [(rec.mode, res.trajectory)
                for rec, res in harness.plan_scenario(sc, stack)
                if res.trajectory is not None]
    out = args.out or f"{sc.source.kind}.svg"
    render.emit_overlay(stack, overlays, out)
    print(out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"plan": cmd_plan, "suite": cmd_suite,
               "summarize": cmd_summarize, "render": cmd_render}[args.command]
    try:
        return handler(args)
    except (harness.ScenarioError, GenerationError, OSError, ValueError) as exc:
        print(f"mhplan: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
