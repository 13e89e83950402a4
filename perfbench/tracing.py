"""Span tracing around the public functions of the planner's modules.

The tracer wraps functions from the outside (no change to the package): it
replaces each target on its module or class, and every module of the package
that imported it by name, with a wrapper that times the call.  Self time is a
call's duration minus the time its traced callees cover.

Every traced call is counted and timed per phase (set-up, operations, harness
calls).  Spans (name, start, end, parent, self time) are kept in memory for
all but the hottest inner-loop functions, whose calls are too many to keep
one by one; those are folded into their caller's child coverage and into the
per-name totals.  ``write`` stores the spans when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from functools import cached_property

from mhplan import costmap, harness, histories, lattice, planners, search_core

# Inner-loop functions: counted and timed, but no span kept per call.
HOT = {
    "lattice.successors", "lattice.evaluate_edge",
    "search_core.SearchProblem.evaluate",
    "search_core.OpenList.push", "search_core.OpenList.pop_valid",
    "search_core.OpenList.rekey", "search_core.OpenList.snapshot",
    "search_core.BestGTable.admits", "search_core.BestGTable.record",
    "search_core.BestGTable.current", "search_core.BestGTable.purge",
    "search_core.HistoryFrontier.admits", "search_core.HistoryFrontier.record",
    "search_core.HistoryFrontier.current", "search_core.HistoryFrontier.purge",
    "histories.record_expansion", "histories.last_intact",
}

FUNCTIONS = (
    (lattice, "successors"), (lattice, "evaluate_edge"),
    (search_core, "extract_solution"),
    (histories, "record_expansion"), (histories, "divergence_point"),
    (histories, "last_intact"),
    (planners, "reroute"), (planners, "graph_revision"),
    (costmap, "gen_clutter"), (costmap, "save_costmap"), (costmap, "load_costmap"),
    (harness, "write_records"), (harness, "read_records"), (harness, "summarize"),
)

METHODS = (
    (search_core, "SearchProblem", "evaluate"),
    (search_core, "OpenList", "push"), (search_core, "OpenList", "pop_valid"),
    (search_core, "OpenList", "rekey"), (search_core, "OpenList", "snapshot"),
    *((search_core, cls, m) for cls in ("BestGTable", "HistoryFrontier")
      for m in ("admits", "record", "current", "purge")),
    (search_core, "AnytimeSearch", "run"),
    (planners, "Rerouter", "reroute"),
    (costmap, "HypothesisStack", "__init__"),
)


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per kept span; parents precede their children.
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._open: list[int] = []  # indexes of kept spans still running
        self._frames: list[list[float]] = []  # child coverage of running calls
        # (phase, name id) -> [calls, self seconds, inclusive seconds]
        self.totals: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()  # (phase, event)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, event: str) -> None:
        self.counts[(self.phase, event)] += 1

    def wrap(self, name: str, fn):
        """``fn`` timed under ``name``; a span is kept unless ``name`` is hot."""
        nid = self.name_id(name)
        keep = name not in HOT
        pc = time.perf_counter
        frames, opened, totals = self._frames, self._open, self.totals
        sname, sparent = self.span_name, self.span_parent
        sstart, send, sself = self.span_start, self.span_end, self.span_self
        tracer = self

        def traced(*args, **kwargs):
            if keep:
                idx = len(sstart)
                sname.append(nid)
                sparent.append(opened[-1] if opened else -1)
                sstart.append(0.0)
                send.append(0.0)
                sself.append(0.0)
                opened.append(idx)
            frame = [0.0]
            frames.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                frames.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                tot = totals[(tracer.phase, nid)]
                tot[0] += 1
                tot[1] += own
                tot[2] += dur
                if keep:
                    opened.pop()
                    sstart[idx] = t0
                    send[idx] = t1
                    sself[idx] = own

        return traced

    def run(self, name: str, fn):
        """Call ``fn()`` inside a root span ``name``."""
        return self.wrap(name, fn)()

    # -- results ---------------------------------------------------------------

    def total(self, name: str, phase: str = "ops") -> tuple[int, float, float]:
        """(calls, self ms, inclusive ms) of ``name`` in ``phase``."""
        calls, own, incl = self.totals.get((phase, self._ids.get(name, -1)), (0, 0.0, 0.0))
        return calls, own * 1e3, incl * 1e3

    def medians_ms(self, names) -> dict[str, float]:
        """Median inclusive duration of the kept spans of each name, any phase;
        0 for a name the run never called."""
        wanted = {self._ids[name]: [] for name in names if name in self._ids}
        for nid, start, end in zip(self.span_name, self.span_start, self.span_end):
            durs = wanted.get(nid)
            if durs is not None:
                durs.append(end - start)
        return {name: statistics.median(wanted[self._ids[name]]) * 1e3
                if wanted.get(self._ids.get(name)) else 0.0 for name in names}

    def write(self, path: str) -> None:
        """One JSON header line, then the span arrays in header order."""
        arrays = (("name", self.span_name), ("parent", self.span_parent),
                  ("start", self.span_start), ("end", self.span_end),
                  ("self", self.span_self))
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [[k, a.typecode, a.itemsize] for k, a in arrays],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for _, a in arrays:
                a.tofile(fh)


def _count_admits(tracer: Tracer, fn):
    def admits(*args, **kwargs):
        ok = fn(*args, **kwargs)
        if ok:
            tracer.count("frontier.admitted")
        return ok
    return admits


def _count_memo(tracer: Tracer, fn):
    def reroute(self, *args, **kwargs):
        held = len(self.memo)
        result = fn(self, *args, **kwargs)
        if len(self.memo) == held:
            tracer.count("rerouter.memo_hits")
        return result
    return reroute


def _count_failures(tracer: Tracer, fn):
    def reroute(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result is None:
            tracer.count("reroute.failed")
        return result
    return reroute


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    package = [m for name, m in sys.modules.items()
               if name == "mhplan" or name.startswith("mhplan.")]
    for module, attr in FUNCTIONS:
        orig = getattr(module, attr)
        fn = _count_failures(tracer, orig) if orig is planners.reroute else orig
        new = tracer.wrap(f"{_short(module)}.{attr}", fn)
        for mod in package:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, new)
    for module, cls_name, attr in METHODS:
        cls = getattr(module, cls_name)
        orig = cls.__dict__[attr]
        fn = orig
        if attr == "admits":
            fn = _count_admits(tracer, orig)
        elif cls is planners.Rerouter:
            fn = _count_memo(tracer, orig)
        undo.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(f"{_short(module)}.{cls_name}.{attr}", fn))
    orig_mask = costmap.CostMap.__dict__["lethal_mask"]
    mask = cached_property(tracer.wrap("costmap.lethal_mask", orig_mask.func))
    mask.__set_name__(costmap.CostMap, "lethal_mask")
    undo.append((costmap.CostMap, "lethal_mask", orig_mask))
    costmap.CostMap.lethal_mask = mask

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


def _ratio(num: float, den: float) -> float:
    """``num / den``; 0 when the base is empty."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, results, untraced_plan_s: float,
                  tick: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass.

    ``results`` are the pass's plan results; ``untraced_plan_s`` is the wall
    time the same operations took untraced, which ``ticks_per_s`` divides by.
    Counts and ``self_ms`` are totals over the pass's operations.
    """
    t = tracer.total
    c = lambda event: tracer.counts[("ops", event)]  # noqa: E731
    out: dict[str, float] = {}
    for name in ("successors", "evaluate_edge"):
        calls, own, _ = t(f"lattice.{name}")
        out[f"lattice.{name}.calls"] = calls
        out[f"lattice.{name}.self_ms"] = own
    out["lattice.evaluate_edge.us_per_call"] = _ratio(
        out["lattice.evaluate_edge.self_ms"] * 1e3, out["lattice.evaluate_edge.calls"])

    expansions = sum(r.expansions for r in results)
    ticks = sum(round(r.planning_time / tick) for r in results)
    evaluate_calls = t("search_core.SearchProblem.evaluate")[0]
    out["search_core.expansions"] = expansions
    out["search_core.SearchProblem.evaluate.calls"] = evaluate_calls
    out["search_core.edge_cache_hit_ratio"] = (
        1.0 - _ratio(out["lattice.evaluate_edge.calls"], evaluate_calls)
        if evaluate_calls else 0.0)
    out["search_core.OpenList.push.calls"] = t("search_core.OpenList.push")[0]
    out["search_core.OpenList.pop_valid.calls"] = t("search_core.OpenList.pop_valid")[0]
    out["search_core.OpenList.self_ms"] = sum(
        t(f"search_core.OpenList.{m}")[1] for m in ("push", "pop_valid", "rekey", "snapshot"))
    frontier = [f"search_core.{cls}.{m}" for cls in ("BestGTable", "HistoryFrontier")
                for m in ("admits", "record", "current", "purge")]
    admits = sum(t(name)[0] for name in frontier if name.endswith(".admits"))
    out["search_core.frontier.admits.calls"] = admits
    out["search_core.frontier.admit_ratio"] = _ratio(c("frontier.admitted"), admits)
    out["search_core.frontier.self_ms"] = sum(t(name)[1] for name in frontier)
    out["search_core.AnytimeSearch.run.self_ms"] = t("search_core.AnytimeSearch.run")[1]
    out["search_core.ticks_per_s"] = _ratio(ticks, untraced_plan_s)

    for name in ("record_expansion", "divergence_point", "last_intact"):
        calls, own, _ = t(f"histories.{name}")
        out[f"histories.{name}.calls"] = calls
        out[f"histories.{name}.self_ms"] = own
    out["search_core.extract_solution.self_ms"] = t("search_core.extract_solution")[1]

    rerouter_calls = t("planners.Rerouter.reroute")[0]
    nested, _, nested_ms = t("planners.reroute")
    out["planners.Rerouter.reroute.calls"] = rerouter_calls
    out["planners.reroute.calls"] = nested
    out["planners.reroute_memo_hit_ratio"] = _ratio(c("rerouter.memo_hits"), rerouter_calls)
    out["planners.reroute_fail_ratio"] = _ratio(c("reroute.failed"), nested)
    out["planners.reroute.ms"] = nested_ms
    out["planners.nested_ticks_share"] = _ratio(ticks - expansions, ticks)
    calls, own, _ = t("planners.graph_revision")
    out["planners.graph_revision.calls"] = calls
    out["planners.graph_revision.self_ms"] = own

    per_call = {f"costmap.{name}": f"costmap.{name.partition('.')[0]}.ms"
                for name in ("gen_clutter", "save_costmap", "load_costmap", "lethal_mask",
                             "HypothesisStack.__init__")}
    per_call.update({f"harness.{name}": f"harness.{name}.ms"
                     for name in ("write_records", "read_records", "summarize")})
    for name, ms in tracer.medians_ms(per_call).items():
        out[per_call[name]] = ms
    return out
