"""Experiment runner.

Subcommands
    solve      one scenario with the column-generation scheduler
    sweep-sir  feasibility of protocol solution and validation pass across
               interference thresholds
    compare    cg / vico / mwis power over a sweep axis and seed set
    heatmap    desk-plane illuminance of a solved schedule

Every command writes CSV files plus a manifest.json recording the scenario
digest, arguments, and solver tolerances, so any row can be reproduced from
the manifest alone. Reported powers are net figures: total electrical power
minus the lighting-only floor of the same scenario.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, cg_scheduler, lp
from .baselines import mwis_schedule, vico_random_schedule
from .cg_scheduler import (
    CgSolution,
    CgStatus,
    IlluminationInfeasible,
    IterationRecord,
    SchedulingInstance,
)
from .scenario import (
    Scenario,
    ScenarioError,
    default_config,
    load_scenario,
    scenario_from_dict,
)

# read from the solver modules so the manifest reports what the code uses
_TOLERANCES = {
    "lp_feasibility": lp.FEAS_TOL,
    "lp_duality_rel": lp.DUALITY_REL_TOL,
    "reduced_cost_cutoff": cg_scheduler.REDUCED_COST_TOL,
    "illuminance_slack_lux": cg_scheduler.ILLUM_SLACK,
}
_ALGORITHMS = ("cg", "vico", "mwis")


# -- experiment operations (importable, CLI-independent) ----------------------


def sweep_sir(s: Scenario, thresholds: Sequence[float], epsilon: float = 0.01,
              ) -> tuple[Optional[float], Optional[float], list[dict]]:
    """Solve per threshold; find the workable interference-threshold range.

    Returns (sir_lower, sir_upper, table): the smallest threshold whose
    validation pass stays feasible, the largest whose protocol solution is
    feasible, and one table row per threshold, in ascending order;
    (None, None, []) for no threshold.

    The lighting floor and the single-link columns do not depend on the
    threshold, so the sweep solves them once, on the instance at the top
    threshold, before any column generation; each row's `wall_ms` excludes
    that shared time. A higher threshold only adds conflict edges, so every
    pattern independent at one threshold is independent at every lower one:
    the thresholds are solved from the top down, each lower one on an
    instance derived from the top one (`at_sir_threshold`) and starting from
    the solution above it (`column_generation`'s `start`), with its columns
    and its last master's final basis.
    """
    thresholds = list(thresholds)
    if any(t > u for t, u in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    if not thresholds:
        return None, None, []
    if thresholds[0] < 1.0:
        raise ValueError("thresholds must be >= 1")
    top = SchedulingInstance(s, float(thresholds[-1]))
    p0 = top.min_illumination_power()[0]
    top.initial_columns()
    table = []
    sir_upper = None
    sir_lower = None
    proto = None
    for t in reversed(thresholds):
        inst = top if proto is None else top.at_sir_threshold(float(t))
        proto = inst.column_generation(epsilon=epsilon, start=proto)
        real = inst.reality_check(proto)
        if proto.feasible and sir_upper is None:
            sir_upper = float(t)
        if real.feasible:
            sir_lower = float(t)
        table.append({
            "sir_threshold": float(t),
            "protocol_feasible": proto.feasible,
            "reality_feasible": real.feasible,
            "protocol_power_w": proto.z_upper - p0 if proto.feasible else math.nan,
            "reality_power_w": real.z_upper - p0 if real.feasible else math.nan,
            "status": proto.status.value,
            "net_gap": proto.net_gap,
            "iterations": proto.iterations,
            "wall_ms": proto.wall_ms + real.wall_ms,
        })
    table.reverse()
    return sir_lower, sir_upper, table


def run_algorithm(inst: SchedulingInstance, algorithm: str, epsilon: float,
                  seed: int, include_illum: bool = True,
                  ) -> tuple[CgSolution, CgSolution]:
    """(protocol-stage, reality-stage) solutions for one algorithm."""
    if algorithm == "cg":
        proto = inst.column_generation(epsilon=epsilon)
        return proto, inst.reality_check(proto)
    if algorithm == "vico":
        sol = vico_random_schedule(inst.s, seed=seed, instance=inst,
                                   include_illum=include_illum)
        return sol.protocol, sol
    if algorithm == "mwis":
        sol = mwis_schedule(inst.s, instance=inst)
        return sol.protocol, sol
    raise ValueError(f"unknown algorithm {algorithm!r}")


def result_row(inst: SchedulingInstance, algorithm: str, proto: CgSolution,
               real: CgSolution, seed: int, **extra) -> dict:
    p0 = proto.p_illumi_min
    row = {
        "scenario_digest": inst.s.digest(),
        "algorithm": algorithm,
        "config_kind": inst.s.config_kind,
        "sir_threshold": inst.sir_threshold,
        "seed": seed,
        "protocol_feasible": proto.feasible,
        "reality_feasible": real.feasible,
        "protocol_power_w": proto.z_upper - p0 if proto.feasible else math.nan,
        "reality_power_w": real.z_upper - p0 if real.feasible else math.nan,
        "p_illumi_min_w": p0,
        "status": proto.status.value,
        "net_gap": proto.net_gap,
        "iterations": proto.iterations,
        "wall_ms": proto.wall_ms + real.wall_ms,
    }
    row.update(extra)
    return row


def export_heatmap(inst: SchedulingInstance, sol: CgSolution,
                   path: Path) -> tuple[list[dict], float]:
    """Per-grid-point lux: time-weighted mean plus min/max across states.

    States are the scheduled columns with positive time share plus, when the
    frame is not fully used, the idle state `sol.dc_min` (lighting-only, or
    dark when the schedule was built without lighting). Returns the rows and
    the fraction of grid points that leave the illuminance band in at least
    one state.
    """
    s = inst.s
    states = [(w, col.dc_power, col.schedule.active) for col, w in sol.active()]
    idle = 1.0 - sum(w for w, _, _ in states)
    if idle > 1e-9:
        states.append((idle, sol.dc_min, ()))
    fields = np.stack([inst.illuminance(dc, active) + s.illum.ambient_lux
                       for _, dc, active in states])
    weights = np.array([w for w, _, _ in states])
    e_weighted = weights @ fields / max(weights.sum(), 1e-12)
    e_min = fields.min(axis=0)
    e_max = fields.max(axis=0)
    lo, hi = s.illum.lower_lux, s.illum.upper_lux
    violated = (e_min < lo - 1e-3) | (e_max > hi + 1e-3)
    fraction = float(np.mean(violated))
    rows = [{"x": float(x), "y": float(y),
             "e_weighted": float(e_weighted[k]),
             "e_min": float(e_min[k]), "e_max": float(e_max[k]),
             "violates_band": bool(violated[k])}
            for k, (x, y, _z) in enumerate(inst.pts)]
    _write_csv(path, rows)
    return rows, fraction


# -- plumbing -----------------------------------------------------------------


_ITERATION_COLUMNS = [f.name for f in fields(IterationRecord)]


def _write_csv(path: Path, rows: list[dict], cols: Optional[list[str]] = None) -> None:
    """`rows` under the header `cols`, by default the first row's keys; an
    empty file when there are neither."""
    if cols is None:
        cols = list(rows[0]) if rows else []
    if not cols:
        path.write_text("")
        return
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in cols) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_manifest(outdir: Path, command: str, args: dict, digests: list[str],
                    extra: Optional[dict] = None) -> None:
    doc = {
        "tool": "vlcopt",
        "version": __version__,
        "command": command,
        "args": args,
        "scenario_digests": sorted(set(digests)),
        "tolerances": _TOLERANCES,
        "power_convention": "reported powers are total electrical minus the lighting-only floor",
    }
    if extra:
        doc.update(extra)
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scenario_from_args(args, seed: Optional[int] = None,
                        n_uts: Optional[int] = None,
                        demand_bps: Optional[float] = None) -> Scenario:
    if args.config:
        s = load_scenario(args.config)
        if seed is not None or n_uts is not None or demand_bps is not None:
            doc = dict(s.source)
            uts = dict(doc.get("uts", {})) if isinstance(doc.get("uts"), dict) else None
            if uts is None:
                raise SystemExit("--config with explicit terminal list cannot be "
                                 "combined with seed/uts/demand overrides")
            if seed is not None:
                uts["seed"] = seed
            if n_uts is not None:
                uts["count"] = n_uts
            if demand_bps is not None:
                uts["demand_bps"] = demand_bps
            doc["uts"] = uts
            s = scenario_from_dict(doc)
        return s
    return scenario_from_dict(default_config(
        config_kind=args.light_config,
        n_uts=n_uts if n_uts is not None else args.uts,
        seed=seed if seed is not None else args.seed,
        demand_bps=demand_bps if demand_bps is not None else args.demand_mbps * 1e6,
    ))


def _parse_values(text: str, kind: type) -> list:
    """Comma list of `kind` values; `a..b` expands to the integers a to b."""
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            if ".." in token:
                a, b = token.split("..")
                out.extend(range(int(a), int(b) + 1))
            elif token:
                out.append(kind(token))
        except ValueError:
            raise SystemExit(f"cannot parse {token!r}: expected a {kind.__name__} "
                             f"or an integer range like 5..9") from None
    return [kind(v) for v in out]


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ---------------------------------------------------------------


def _cmd_solve(args) -> int:
    s = _scenario_from_args(args)
    out = _outdir(args)
    inst = SchedulingInstance(s, sir_threshold=args.sir)
    proto, real = run_algorithm(inst, args.algo, args.epsilon, args.seed,
                                include_illum=not args.no_illum_constraint)
    row = result_row(inst, args.algo, proto, real, args.seed,
                     epsilon=args.epsilon, z_lower_w=proto.z_lower)
    _write_csv(out / "results.csv", [row])
    _write_csv(out / "iterations.csv", [asdict(rec) for rec in proto.iteration_log],
               _ITERATION_COLUMNS)
    _write_manifest(out, "solve", _args_dict(args), [s.digest()])
    print(f"protocol: feasible={proto.feasible} "
          f"power={row['protocol_power_w']:.6f} W "
          f"status={proto.status.value} net_gap={proto.net_gap:.6g} "
          f"iterations={proto.iterations}")
    print(f"reality:  feasible={real.feasible} power={row['reality_power_w']:.6f} W")
    print(f"wrote {out / 'results.csv'}")
    return 0


def _cmd_sweep_sir(args) -> int:
    start = getattr(args, "from")
    for flag, value in (("--from", start), ("--to", args.to), ("--step", args.step)):
        if not math.isfinite(value):
            raise SystemExit(f"{flag} must be finite")
    if not start >= 1.0:
        raise SystemExit("--from must be >= 1")
    if not args.step > 0.0:
        raise SystemExit("--step must be positive")
    if not args.to >= start:
        raise SystemExit("--to must not be below --from")
    s = _scenario_from_args(args)
    out = _outdir(args)
    # whole steps that fit, forgiving round-off in (to - from) / step
    n = math.floor((args.to - start) / args.step + 1e-9)
    thresholds = [start + i * args.step for i in range(n + 1)]
    lower, upper, table = sweep_sir(s, thresholds, epsilon=args.epsilon)
    _write_csv(out / "results.csv", table)
    _write_manifest(out, "sweep-sir", _args_dict(args), [s.digest()],
                    extra={"sir_lower": lower, "sir_upper": upper})
    print(f"sir_lower={lower} sir_upper={upper}")
    print(f"wrote {out / 'results.csv'}")
    return 0


def _cmd_compare(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise SystemExit("no algorithms given")
    unknown = [a for a in algos if a not in _ALGORITHMS]
    if unknown:
        raise SystemExit(f"unknown algorithm {unknown[0]!r}: choose from "
                         f"{', '.join(_ALGORITHMS)}")
    repeated = [a for i, a in enumerate(algos) if a in algos[:i]]
    if repeated:
        raise SystemExit(f"algorithm {repeated[0]!r} is given more than once")
    values = _parse_values(args.values, int if args.axis == "uts" else float)
    if not values:
        raise SystemExit("no axis values given")
    seeds = _parse_values(args.seeds, int)
    if not seeds:
        raise SystemExit("no seeds given")
    # every scenario is built, and so checked, before the output directory is made
    uts = args.axis == "uts"
    scenarios = [(value, seed, _scenario_from_args(
        args, seed=seed, n_uts=int(value) if uts else None,
        demand_bps=None if uts else value * 1e6)) for value in values for seed in seeds]
    out = _outdir(args)
    rows = []
    iter_rows = []
    digests = []
    for value, seed, s in scenarios:
        inst = SchedulingInstance(s, sir_threshold=args.sir)
        digests.append(s.digest())
        for algo in algos:
            proto, real = run_algorithm(inst, algo, args.epsilon, seed)
            rows.append(result_row(
                inst, algo, proto, real, seed,
                axis=args.axis, axis_value=value))
            iter_rows.extend(
                {"algorithm": algo, "axis_value": value, "seed": seed, **asdict(rec)}
                for rec in proto.iteration_log)
    _write_csv(out / "results.csv", rows)
    _write_csv(out / "iterations.csv", iter_rows,
               ["algorithm", "axis_value", "seed"] + _ITERATION_COLUMNS)
    _write_csv(out / "summary.csv", _summarize(rows, algos, values))
    _write_manifest(out, "compare", _args_dict(args), digests)
    print(f"wrote {out / 'results.csv'} ({len(rows)} rows)")
    return 0


def _summarize(rows: list[dict], algos: list[str], values: list) -> list[dict]:
    summary = []
    for value in values:
        for algo in algos:
            cell = [r for r in rows
                    if r["algorithm"] == algo and r["axis_value"] == value]
            if not cell:
                continue
            real = [r["reality_power_w"] for r in cell if r["reality_feasible"]]
            proto = [r["protocol_power_w"] for r in cell if r["protocol_feasible"]]
            gaps = [r["net_gap"] for r in cell if not math.isnan(r["net_gap"])]
            summary.append({
                "axis_value": value,
                "algorithm": algo,
                "n_seeds": len(cell),
                "n_reality_feasible": len(real),
                "n_optimal": sum(r["status"] == CgStatus.OPTIMAL.value for r in cell),
                "worst_net_gap": max(gaps) if gaps else math.nan,
                "mean_protocol_power_w": float(np.mean(proto)) if proto else math.nan,
                "mean_reality_power_w": float(np.mean(real)) if real else math.nan,
            })
    return summary


def _cmd_heatmap(args) -> int:
    s = _scenario_from_args(args)
    out = _outdir(args)
    inst = SchedulingInstance(s, sir_threshold=args.sir)
    proto, real = run_algorithm(inst, args.algo, args.epsilon, args.seed,
                                include_illum=not args.no_illum_constraint)
    rows, fraction = export_heatmap(inst, real, out / "heatmap.csv")
    _write_csv(out / "results.csv",
               [result_row(inst, args.algo, proto, real, args.seed,
                           illum_violation_fraction=fraction)])
    _write_manifest(out, "heatmap", _args_dict(args), [s.digest()],
                    extra={"illum_violation_fraction": fraction})
    print(f"violation fraction: {fraction:.4f} over {len(rows)} grid points")
    print(f"wrote {out / 'heatmap.csv'}")
    return 0


def _args_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _add_scenario_args(p: argparse.ArgumentParser, sir: bool = True) -> None:
    """The scenario options; `--sir` only where one threshold is solved."""
    p.add_argument("--config", help="scenario JSON file (overrides generator args)")
    p.add_argument("--light-config", choices=("a", "b", "c"), default="a",
                   help="light-source layout (default a)")
    p.add_argument("--uts", type=int, default=30, help="number of terminals")
    p.add_argument("--demand-mbps", type=float, default=20.0,
                   help="per-terminal demand in Mbit/s")
    p.add_argument("--seed", type=int, default=7, help="terminal placement seed")
    if sir:
        p.add_argument("--sir", type=float, default=3.0,
                       help="signal-to-interference conflict threshold")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="termination gap of the scheduler")
    p.add_argument("--out", default="vlcopt_out", help="output directory")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="vlcopt",
        description="Power-minimal scheduling for lighting-constrained optical "
                    "wireless networks",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one scenario")
    _add_scenario_args(p)
    p.add_argument("--algo", choices=_ALGORITHMS, default="cg")
    p.add_argument("--no-illum-constraint", action="store_true",
                   help="drop lighting requirements (--algo vico only)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep-sir", help="sweep the conflict threshold")
    _add_scenario_args(p, sir=False)  # the thresholds come from --from/--to/--step
    p.add_argument("--from", type=float, default=1.0, dest="from")
    p.add_argument("--to", type=float, default=6.0)
    p.add_argument("--step", type=float, default=1.0)
    p.set_defaults(func=_cmd_sweep_sir)

    p = sub.add_parser("compare", help="compare algorithms over an axis")
    _add_scenario_args(p)
    p.add_argument("--axis", choices=("uts", "demand"), required=True)
    p.add_argument("--values", required=True,
                   help="comma list; ranges like 5..9 allowed for integers")
    p.add_argument("--algos", default="cg,vico,mwis")
    p.add_argument("--seeds", default="1..10")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("heatmap", help="export desk-plane illuminance")
    _add_scenario_args(p)
    p.add_argument("--algo", choices=_ALGORITHMS, default="cg")
    p.add_argument("--no-illum-constraint", action="store_true")
    p.set_defaults(func=_cmd_heatmap)

    args = ap.parse_args(argv)
    if getattr(args, "no_illum_constraint", False) and args.algo != "vico":
        ap.error(f"--no-illum-constraint applies to --algo vico only, not {args.algo}")
    if not getattr(args, "sir", 1.0) >= 1.0:
        raise SystemExit(f"--sir {args.sir}: must be >= 1")
    if not 0.0 <= args.epsilon < 1.0:
        raise SystemExit(f"--epsilon {args.epsilon}: must lie in [0, 1)")
    if args.config and args.seed < 0:
        # without --config, --seed is uts.seed, which the scenario refuses
        print(f"error: --seed {args.seed}: must be >= 0", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (IlluminationInfeasible, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
