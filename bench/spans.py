"""In-memory span tracer that wraps vlcopt's public functions from outside.

Each wrapped function records a span (name, start, end, parent span, solve
id, attributes) while tracing is installed. A function is rebound in every
vlcopt module that holds a reference to it, so `from .lp import solve_lp`
inside `cg_scheduler` and the call through `lp.solve_lp` inside branch and
bound are both seen. Nothing under `src/` changes.

Layer metrics are derived from the span list after the run; see METRICS.md
for what each one counts.
"""

from __future__ import annotations

import gzip
import sys
import time
from typing import Any, Callable, Optional

import numpy as np

from vlcopt import baselines, capacity, cg_scheduler, cli, conflict, lp, optics, scenario
from vlcopt.cg_scheduler import SchedulingInstance

# innermost enclosing cg_scheduler/baselines span decides an LP's bucket
_BUCKETS = {
    "cg_scheduler.init": "init",
    "cg_scheduler.min_illumination_power": "lighting",
    "cg_scheduler.initial_columns": "lighting",
    "cg_scheduler.build_column": "lighting",
    "cg_scheduler.optimize_dc_for_schedule": "lighting",
    "cg_scheduler.solve_rmp": "rmp",
    "cg_scheduler.solve_pricing": "pricing",
    "cg_scheduler.column_generation": "loop",
    "cg_scheduler.reality_check": "validation",
    "cg_scheduler.physical_rates": "validation",
    "baselines.vico_random_schedule": "vico",
    "baselines.mwis_schedule": "mwis",
}
CG_BUCKETS = ("init", "lighting", "rmp", "pricing", "loop", "validation")
BASELINE_BUCKETS = ("vico", "mwis")

_INSTANCE_METHODS = (
    "min_illumination_power", "initial_columns", "build_column",
    "optimize_dc_for_schedule", "solve_rmp", "solve_pricing",
    "column_generation", "reality_check", "physical_rates",
)

# the per-layer metric names every traced run emits, in report order
LAYER_METRICS = (
    ("scenario.links_s", "s"), ("scenario.links", "count"),
    ("optics.channel_gain.calls", "count"), ("optics.channel_gain_s", "s"),
    ("optics.illum_gain_many.calls", "count"), ("optics.illum_gain_many_s", "s"),
    ("capacity.calls", "count"), ("capacity_s", "s"),
    ("conflict.graph_s", "s"), ("conflict.edges", "count"),
    ("cg_scheduler.init_s", "s"),
    ("lp.lps", "count"), ("lp.lp_s", "s"), ("lp.pivots", "count"),
    ("lp.pivot_cells", "count"), ("lp.not_optimal", "count"),
    ("lp.milps", "count"), ("lp.milp_s", "s"), ("lp.bb_nodes", "count"),
    ("cg_scheduler.lighting_s", "s"), ("cg_scheduler.lighting.self_s", "s"),
    ("cg_scheduler.lighting.lps", "count"), ("cg_scheduler.lighting.pivots", "count"),
    ("cg_scheduler.pricing_s", "s"), ("cg_scheduler.pricing.self_s", "s"),
    ("cg_scheduler.pricing.calls", "count"), ("cg_scheduler.pricing.milps", "count"),
    ("cg_scheduler.pricing.useful_ratio", "ratio"),
    ("cg_scheduler.pricing.bb_nodes", "count"), ("cg_scheduler.pricing.pivots", "count"),
    ("cg_scheduler.rmp_s", "s"), ("cg_scheduler.rmp.self_s", "s"),
    ("cg_scheduler.rmp.calls", "count"), ("cg_scheduler.rmp.pivots", "count"),
    ("cg_scheduler.iterations", "count"), ("cg_scheduler.columns", "count"),
    ("cg_scheduler.columns_used_ratio", "ratio"), ("cg_scheduler.lazy_rows", "count"),
    ("cg_scheduler.validation_s", "s"), ("cg_scheduler.validation.self_s", "s"),
    ("cg_scheduler.init.self_s", "s"), ("cg_scheduler.loop.self_s", "s"),
    ("baselines.vico_s", "s"), ("baselines.vico.self_s", "s"),
    ("baselines.mwis_s", "s"), ("baselines.mwis.self_s", "s"),
    ("baselines.rounds", "count"), ("baselines.mwis.bb_nodes", "count"),
    ("cli.sweep_sir_s", "s"), ("cli.sweep_sir.calls", "count"),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "solve", "attrs")

    def __init__(self, name: str, t0: float, parent: int, solve: int):
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.solve = solve
        self.attrs: Optional[dict] = None


def _lazy_rows(inst: SchedulingInstance) -> int:
    """Size of the instance's lazy illuminance working sets (0 before init)."""
    return len(getattr(inst, "_lo_rows", ())) + len(getattr(inst, "_hi_rows", ()))


def _lp_attrs(args: tuple, out: lp.LpSolution) -> dict:
    """Pivots and dense tableau size, rebuilt from the program's shape the
    way the simplex lays it out: one row per constraint and per finite upper
    bound; one column per variable, slack, artificial and the right side."""
    p: lp.LinearProgram = args[0]
    n_ub = int(np.count_nonzero(np.isfinite(p.ub)))
    flip = (p.b - p.a @ p.lb) < 0.0 if p.n_rows else np.zeros(0, dtype=bool)
    eff = [{"<=": ">=", ">=": "<="}.get(r, r) if f else r for r, f in zip(p.rel, flip)]
    n_slack = sum(r != "==" for r in eff) + n_ub
    n_art = sum(r != "<=" for r in eff)
    rows = p.n_rows + n_ub
    cols = p.n_vars + n_slack + n_art + 1
    return {"pivots": out.iterations, "cells": out.iterations * rows * cols,
            "optimal": out.status == lp.LpStatus.OPTIMAL}


def _milp_attrs(args: tuple, out: lp.MilpSolution) -> dict:
    return {"nodes": out.nodes}


def _links_attrs(args: tuple, out: list) -> dict:
    return {"links": len(out)}


def _graph_attrs(args: tuple, out: conflict.ConflictGraph) -> dict:
    return {"edges": int(np.count_nonzero(np.triu(out.adjacency, k=1)))}


def _cg_attrs(args: tuple, out: cg_scheduler.CgSolution) -> dict:
    return {"log": out.iteration_log, "sir_threshold": out.sir_threshold,
            "iterations": out.iterations, "columns": len(out.columns),
            "used": len(out.active())}


def _baseline_attrs(args: tuple, out: baselines.BaselineSolution) -> dict:
    return {"rounds": out.protocol.iterations}


class Tracer:
    """Span recorder. `install` rebinds the traced functions, `uninstall`
    restores them; spans stay in memory until `write_spans`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solve_id = 0
        self.overhead_s = 0.0  # time spent in the wrappers' own bookkeeping
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
              rows: bool = False) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sp = Span(name, clock(), stack[-1] if stack else -1, self.solve_id)
            stack.append(len(spans))
            spans.append(sp)
            r0 = _lazy_rows(args[0]) if rows else 0
            t_call = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                sp.t1 = clock()
                stack.pop()
            sp.attrs = attrs(args, out) if attrs is not None else {}
            if rows:
                sp.attrs["rows0"] = r0
                sp.attrs["rows1"] = _lazy_rows(args[0])
            self.overhead_s += (t_call - sp.t0) + (clock() - sp.t1)
            return out

        return traced

    def _rebind_everywhere(self, fn: Callable, wrapper: Callable) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("vlcopt"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        free = (
            ("scenario.scenario_from_dict", scenario.scenario_from_dict, None),
            ("scenario.build_candidate_links", scenario.build_candidate_links, _links_attrs),
            ("optics.channel_gain", optics.channel_gain, None),
            ("optics.illum_gain_many", optics.illum_gain_many, None),
            ("capacity.protocol_capacity", capacity.protocol_capacity, None),
            ("capacity.physical_capacity", capacity.physical_capacity, None),
            ("conflict.build_conflict_graph", conflict.build_conflict_graph, _graph_attrs),
            ("lp.solve_lp", lp.solve_lp, _lp_attrs),
            ("lp.solve_milp", lp.solve_milp, _milp_attrs),
            ("baselines.vico_random_schedule", baselines.vico_random_schedule, _baseline_attrs),
            ("baselines.mwis_schedule", baselines.mwis_schedule, _baseline_attrs),
            ("cli.sweep_sir", cli.sweep_sir, None),
        )
        for name, fn, attrs in free:
            self._rebind_everywhere(fn, self._wrap(name, fn, attrs))
        for method in ("__init__",) + _INSTANCE_METHODS:
            fn = SchedulingInstance.__dict__[method]
            name = "cg_scheduler." + ("init" if method == "__init__" else method)
            attrs = _cg_attrs if method == "column_generation" else None
            self._restore.append((SchedulingInstance, method, fn))
            setattr(SchedulingInstance, method, self._wrap(name, fn, attrs, rows=True))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent,solve\n")
            base = self.spans[0].t0 if self.spans else 0.0
            for i, sp in enumerate(self.spans):
                fh.write(f"{i},{sp.name},{sp.t0 - base:.9f},{sp.t1 - base:.9f},"
                         f"{sp.parent},{sp.solve}\n")


# ---------------------------------------------------------------------------
# derived metrics


def _buckets(spans: list[Span]) -> list[Optional[str]]:
    """Effective bucket of every span: its own, else its nearest ancestor's."""
    out: list[Optional[str]] = []
    for sp in spans:  # parents always precede children
        own = _BUCKETS.get(sp.name)
        out.append(own if own is not None else
                   (out[sp.parent] if sp.parent >= 0 else None))
    return out


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.t1 - sp.t0
    return [sp.t1 - sp.t0 - c for sp, c in zip(spans, child)]


def _union_time(spans: list[Span], names: set[str]) -> float:
    """Time under spans of the given names, counted once where they nest."""
    inside = [False] * len(spans)
    total = 0.0
    for i, sp in enumerate(spans):
        parent_in = sp.parent >= 0 and inside[sp.parent]
        inside[i] = parent_in or sp.name in names
        if sp.name in names and not parent_in:
            total += sp.t1 - sp.t0
    return total


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Every name in LAYER_METRICS, computed from the recorded spans."""
    bucket = _buckets(spans)
    self_t = _self_times(spans)
    m: dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
    pool = used = 0

    for sp, b in zip(spans, bucket):
        name, a, dur = sp.name, sp.attrs or {}, sp.t1 - sp.t0
        if name == "scenario.build_candidate_links":
            m["scenario.links_s"] += dur
            m["scenario.links"] += a.get("links", 0)
        elif name == "optics.channel_gain":
            m["optics.channel_gain.calls"] += 1
            m["optics.channel_gain_s"] += dur
        elif name == "optics.illum_gain_many":
            m["optics.illum_gain_many.calls"] += 1
            m["optics.illum_gain_many_s"] += dur
        elif name.startswith("capacity."):
            m["capacity.calls"] += 1
            m["capacity_s"] += dur
        elif name == "conflict.build_conflict_graph":
            m["conflict.graph_s"] += dur
            m["conflict.edges"] += a.get("edges", 0)
        elif name == "cg_scheduler.init":
            m["cg_scheduler.init_s"] += dur
        elif name == "lp.solve_lp":
            m["lp.lps"] += 1
            m["lp.lp_s"] += dur
            m["lp.pivots"] += a.get("pivots", 0)
            m["lp.pivot_cells"] += a.get("cells", 0)
            m["lp.not_optimal"] += 0 if a.get("optimal") else 1
            if b in ("lighting", "pricing", "rmp"):
                m[f"cg_scheduler.{b}.pivots"] += a.get("pivots", 0)
            if b == "lighting":
                m["cg_scheduler.lighting.lps"] += 1
        elif name == "lp.solve_milp":
            m["lp.milps"] += 1
            m["lp.milp_s"] += dur
            m["lp.bb_nodes"] += a.get("nodes", 0)
            if b == "pricing":
                m["cg_scheduler.pricing.milps"] += 1
                m["cg_scheduler.pricing.bb_nodes"] += a.get("nodes", 0)
            elif b == "mwis":
                m["baselines.mwis.bb_nodes"] += a.get("nodes", 0)
        elif name == "cg_scheduler.solve_pricing":
            m["cg_scheduler.pricing.calls"] += 1
        elif name == "cg_scheduler.solve_rmp":
            m["cg_scheduler.rmp.calls"] += 1
        elif name == "cg_scheduler.column_generation":
            m["cg_scheduler.iterations"] += a.get("iterations", 0)
            pool += a.get("columns", 0)
            used += a.get("used", 0)
        elif name.startswith("baselines."):
            m["baselines.rounds"] += a.get("rounds", 0)
        elif name == "cli.sweep_sir":
            m["cli.sweep_sir.calls"] += 1
            m["cli.sweep_sir_s"] += dur

    by_bucket: dict[str, set[str]] = {}
    for name, bk in _BUCKETS.items():
        by_bucket.setdefault(bk, set()).add(name)
    for bk in ("lighting", "pricing", "rmp", "validation"):
        m[f"cg_scheduler.{bk}_s"] = _union_time(spans, by_bucket[bk])
    for bk in BASELINE_BUCKETS:
        m[f"baselines.{bk}_s"] = _union_time(spans, by_bucket[bk])
    for bk, st in zip(bucket, self_t):
        if bk in CG_BUCKETS:
            m[f"cg_scheduler.{bk}.self_s"] += st
        elif bk in BASELINE_BUCKETS:
            m[f"baselines.{bk}.self_s"] += st

    milps = m["cg_scheduler.pricing.milps"]
    m["cg_scheduler.pricing.useful_ratio"] = (
        m["cg_scheduler.pricing.calls"] / milps if milps else 0.0)
    m["cg_scheduler.columns"] = pool
    m["cg_scheduler.columns_used_ratio"] = used / pool if pool else 0.0
    m["cg_scheduler.lazy_rows"] = _lazy_rows_added(spans)
    m["trace.overhead_s"] = overhead_s
    return m


def _lazy_rows_added(spans: list[Span]) -> int:
    """Rows the lazy working sets gained, summed over outermost instance spans."""
    total = 0
    is_cg = [False] * len(spans)
    for i, sp in enumerate(spans):
        own = sp.name.startswith("cg_scheduler.") and sp.name != "cg_scheduler.init"
        parent_cg = sp.parent >= 0 and is_cg[sp.parent]
        is_cg[i] = own or parent_cg
        if own and not parent_cg and sp.attrs:
            total += sp.attrs["rows1"] - sp.attrs["rows0"]
    return total


def iteration_records(spans: list[Span]) -> list[dict]:
    """Per-iteration record of every column-generation solve, in call order.

    Iteration k pairs the k-th `solve_rmp` and k-th `solve_pricing` span
    directly under a `column_generation` span with its `iteration_log[k]`.
    """
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        children.setdefault(sp.parent, []).append(i)

    def descendants(i: int):
        todo = list(children.get(i, ()))
        while todo:
            j = todo.pop()
            yield spans[j]
            todo.extend(children.get(j, ()))

    rows = []
    cg_spans = [i for i, sp in enumerate(spans)
                if sp.name == "cg_scheduler.column_generation" and sp.attrs]
    for solve_no, ci in enumerate(cg_spans):
        cg = spans[ci]
        kids = children.get(ci, [])
        rmps = [spans[j] for j in kids if spans[j].name == "cg_scheduler.solve_rmp"]
        prices = [j for j in kids if spans[j].name == "cg_scheduler.solve_pricing"]
        for rec, rmp, pi in zip(cg.attrs["log"], rmps, prices):
            p = spans[pi]
            inner = list(descendants(pi))
            milps = [s for s in inner if s.name == "lp.solve_milp"]
            lps = [s for s in inner if s.name == "lp.solve_lp"]
            rows.append({
                "solve": solve_no,
                "sir_threshold": cg.attrs["sir_threshold"],
                "iteration": rec.iteration,
                "z_upper": rec.z_upper,
                "z_lower": rec.z_lower,
                "reduced_cost": rec.reduced_cost,
                "rmp_ms": (rmp.t1 - rmp.t0) * 1e3,
                "pricing_ms": (p.t1 - p.t0) * 1e3,
                "milp_solves": len(milps),
                "bb_nodes": sum(s.attrs["nodes"] for s in milps),
                "pricing_pivots": sum(s.attrs["pivots"] for s in lps),
                "lazy_rows_added": p.attrs["rows1"] - p.attrs["rows0"],
            })
    return rows
