"""Correctness checks on solver results, against independent oracles.

Only quantities that are unique at an optimum are checked: objective values
of LPs (re-solved with HiGHS through scipy), the certified gap, and column
feasibility. Which of several tied optimal schedules the in-house simplex
lands on is not checked, so validation-pass verdicts are reported, never
gated on.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from vlcopt.cg_scheduler import RATE_SCALE, SHORTFALL_COST, CgStatus

LIGHTING_REL_TOL = 1e-9   # lighting floor vs HiGHS, relative to the floor
RMP_REL_TOL = 1e-6        # master objective vs HiGHS, relative to net power
NET_GAP_TOL = 1e-6        # certified (z_upper - z_lower) / net power at epsilon 0
REFERENCE_ABS_TOL_W = 1e-6
OMEGA_SUM_TOL = 1e-9


def highs_lighting_floor(inst) -> float:
    """Cheapest lighting-only state over the full grid, in electrical W."""
    gain = inst.dc_light.T  # lux per optical W, one row per grid point
    need = inst.e_lo > 0.0
    res = linprog(
        c=1.0 / inst.dc_eta,
        A_ub=np.vstack([-gain[need], gain]),
        b_ub=np.concatenate([-inst.e_lo[need], inst.e_hi]),
        bounds=list(zip(np.zeros_like(inst.dc_cap), inst.dc_cap)),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS lighting floor: {res.message}")
    return float(res.fun)


def highs_master_net(columns, demands_bps: np.ndarray, p0: float) -> float:
    """Optimal net objective of the master LP over the given columns.

    Variables are one time share per column and one shortfall per terminal;
    demand rows are in Mbit/s and the shares fill at most the unit frame.
    """
    q, m = len(columns), len(demands_bps)
    rates = np.array([col.rate_per_ut for col in columns]).reshape(q, m) / RATE_SCALE
    cost = np.concatenate([[col.electrical_total - p0 for col in columns],
                           np.full(m, SHORTFALL_COST)])
    a_ub = np.zeros((m + 1, q + m))
    a_ub[:m, :q] = -rates.T
    a_ub[:m, q:] = -np.eye(m)
    a_ub[m, :q] = 1.0
    b_ub = np.concatenate([-np.asarray(demands_bps) / RATE_SCALE, [1.0]])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS master: {res.message}")
    return float(res.fun)


def check_master(inst, sol, label: str) -> list[str]:
    """The solution's objective is the master LP optimum over its columns."""
    net = sol.z_upper - sol.p_illumi_min
    ref = highs_master_net(sol.columns, inst.demands, sol.p_illumi_min)
    if abs(net - ref) > RMP_REL_TOL * max(1.0, abs(ref)):
        return [f"{label}: master net power {net!r} W, HiGHS {ref!r} W"]
    return []


def check_lighting_floor(sol, p0_highs: float) -> list[str]:
    if abs(sol.p_illumi_min - p0_highs) > LIGHTING_REL_TOL * abs(p0_highs):
        return [f"lighting floor {sol.p_illumi_min!r} W, HiGHS {p0_highs!r} W"]
    return []


def check_columns(inst, sol, label: str) -> list[str]:
    """Every scheduled column is independent and keeps lighting in band,
    and the time shares fit in the frame."""
    out = [f"{label}: invalid column {col.schedule.active}"
           for col, _ in sol.active() if not inst.column_is_valid(col)]
    total = float(np.sum(sol.omega))
    if total > 1.0 + OMEGA_SUM_TOL:
        out.append(f"{label}: time shares sum to {total!r} > 1")
    return out


def check_exact(inst, proto, real, p0_highs: float,
                reference_net_w: float | None) -> list[str]:
    """All checks for one exact (epsilon 0) column-generation solve and its
    validation pass."""
    out: list[str] = []
    if proto.status != CgStatus.OPTIMAL:
        out.append(f"status {proto.status.value}, expected optimal")
    if not proto.z_lower <= proto.z_upper:
        out.append(f"z_lower {proto.z_lower!r} > z_upper {proto.z_upper!r}")
    net = proto.z_upper - proto.p_illumi_min
    gap = (proto.z_upper - proto.z_lower) / net if net > 0 else 0.0
    if gap > NET_GAP_TOL:
        out.append(f"certified net gap {gap:.3e} > {NET_GAP_TOL}")
    if reference_net_w is not None and abs(net - reference_net_w) > REFERENCE_ABS_TOL_W:
        out.append(f"net power {net!r} W, reference {reference_net_w!r} W")
    out += check_lighting_floor(proto, p0_highs)
    out += check_master(inst, proto, "protocol")
    out += check_master(inst, real, "validation")
    out += check_columns(inst, proto, "protocol")
    return out


def check_heuristic(inst, sol, p0_highs: float) -> list[str]:
    """Checks for a heuristic schedule: feasible columns, a frame that fits,
    the lighting floor, and an exact validation-pass master."""
    out = check_lighting_floor(sol, p0_highs)
    out += check_columns(inst, sol.protocol, "protocol")
    out += check_master(inst, sol, "validation")
    return out
