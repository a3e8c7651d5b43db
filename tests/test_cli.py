"""End-to-end runs of the experiment commands on desk-sized scenarios."""

import csv
import json
import math
from collections import Counter

import pytest

import helpers
from vlcopt import cg_scheduler, cli, lp
from vlcopt.cg_scheduler import SchedulingInstance
from vlcopt.cli import _parse_values, main, sweep_sir
from vlcopt.scenario import default_config, scenario_from_dict


def _write_config(tmp_path, name="scenario.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(helpers.tiny_config(**kw)))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -- solve -----------------------------------------------------------------------

def test_solve_writes_results_and_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_uts=2, seed=1)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--epsilon", "0.0",
                 "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert len(rows) == 1
    assert rows[0]["algorithm"] == "cg"
    assert rows[0]["protocol_feasible"] == "1"
    assert float(rows[0]["protocol_power_w"]) > 0.0
    assert (out / "iterations.csv").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("tool", "version", "command", "args", "scenario_digests",
                "tolerances", "power_convention"):
        assert key in manifest
    assert manifest["command"] == "solve"
    assert manifest["scenario_digests"] == [
        scenario_from_dict(helpers.tiny_config(n_uts=2, seed=1)).digest()]
    assert "power" in capsys.readouterr().out


def test_manifest_tolerances_are_the_solver_constants(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=1)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--epsilon", "0.0",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerances"] == {
        "lp_feasibility": lp.FEAS_TOL,
        "lp_duality_rel": lp.DUALITY_REL_TOL,
        "reduced_cost_cutoff": cg_scheduler.REDUCED_COST_TOL,
        "illuminance_slack_lux": cg_scheduler.ILLUM_SLACK,
    }


def test_solve_is_reproducible(tmp_path):
    cfg = _write_config(tmp_path, n_uts=3, seed=4)
    args = ["solve", "--config", cfg, "--epsilon", "0.0"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0

    def stripped(run):
        rows = _read_csv(tmp_path / run / "results.csv")
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in rows]

    assert stripped("a") == stripped("b")


def test_solve_with_heuristics(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=2)
    for algo, extra in (("vico", []), ("mwis", []), ("vico", ["--no-illum-constraint"])):
        out = tmp_path / "-".join([algo] + extra)
        assert main(["solve", "--config", cfg, "--algo", algo,
                     "--seed", "3", "--out", str(out)] + extra) == 0
        row = _read_csv(out / "results.csv")[0]
        assert row["algorithm"] == algo
        assert row["reality_feasible"] == "1"
        # no lower bound, so no certified gap: not even when the net power,
        # without the lighting, is not positive
        assert math.isnan(float(row["z_lower_w"]))
        assert math.isnan(float(row["net_gap"]))


def _dark_doc():
    """One luminaire under a 300 lux floor it cannot reach (~203 lux at best)."""
    doc = helpers.tiny_config(n_uts=1)
    doc["aps"] = {"grid": {"nx": 1, "ny": 1, "spacing": 1.0}}
    return doc


def test_unattainable_lighting_exits_with_code_2(tmp_path, capsys):
    doc = _dark_doc()
    doc["uts"] = [{"position": [1.0, 1.0], "demand_bps": 1e6}]
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_without_lit_single_links_reports_infeasible(tmp_path, capsys):
    path = tmp_path / "unlit.json"
    path.write_text(json.dumps(helpers.unlit_links_config()))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--epsilon", "0.0",
                 "--out", str(out)]) == 0
    row = _read_csv(out / "results.csv")[0]
    assert row["protocol_feasible"] == "0"
    assert row["reality_feasible"] == "0"
    assert "protocol: feasible=False" in capsys.readouterr().out


# -- compare -----------------------------------------------------------------------

def test_compare_grid_of_rows_and_summary(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=1)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--axis", "uts",
                 "--values", "2,3", "--seeds", "1..2", "--epsilon", "0.0",
                 "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert len(rows) == 2 * 2 * 3  # values x seeds x algorithms
    summary = _read_csv(out / "summary.csv")
    assert len(summary) == 2 * 3
    assert all(r["n_seeds"] == "2" for r in summary)

    # the exact solver can never report more protocol power than a heuristic
    for value in ("2", "3"):
        for seed in ("1", "2"):
            cell = {r["algorithm"]: float(r["protocol_power_w"]) for r in rows
                    if r["axis_value"] == value and r["seed"] == seed}
            assert cell["cg"] <= cell["vico"] + 1e-9
            assert cell["cg"] <= cell["mwis"] + 1e-9


def test_compare_iterations_are_the_axis_columns_then_the_record(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=1)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--axis", "uts", "--values", "2",
                 "--seeds", "1", "--algos", "cg", "--out", str(out)]) == 0
    cg_scheduler.write_iteration_csv([], tmp_path / "log.csv")
    record = (tmp_path / "log.csv").read_text().splitlines()[0]
    header = (out / "iterations.csv").read_text().splitlines()[0]
    assert header == "algorithm,axis_value,seed," + record


def test_compare_on_unattainable_lighting_exits_with_code_2(tmp_path, capsys):
    # sampled terminals: compare re-seeds them, which an explicit list forbids
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(_dark_doc()))
    assert main(["compare", "--config", str(path), "--axis", "uts",
                 "--values", "1", "--seeds", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_rejects_empty_algorithm_list(tmp_path):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["compare", "--config", cfg, "--axis", "uts", "--values", "2",
              "--algos", " ", "--out", str(tmp_path / "x")])


def test_compare_rejects_empty_seed_range(tmp_path):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", cfg, "--axis", "uts", "--values", "2",
              "--seeds", "3..1", "--out", str(tmp_path / "x")])
    assert isinstance(exc.value.code, str)


def test_parse_values_handles_lists_and_ranges():
    assert _parse_values("1..3", int) == [1, 2, 3]
    assert _parse_values("2,4,8", int) == [2, 4, 8]
    assert _parse_values("1,3..5", int) == [1, 3, 4, 5]
    assert _parse_values("0.5, 1.5", float) == [0.5, 1.5]
    assert _parse_values("", int) == []


@pytest.mark.parametrize("text, kind", [
    ("1.5..3", float),
    ("1..2.5", int),
    ("1..2..3", int),
    ("..4", int),
    ("2,x", float),
    ("2.5", int),
])
def test_parse_values_rejects_malformed_tokens(text, kind):
    with pytest.raises(SystemExit) as exc:
        _parse_values(text, kind)
    bad = [tok.strip() for tok in text.split(",")][-1]
    assert isinstance(exc.value.code, str) and repr(bad) in exc.value.code


# -- sweep-sir ---------------------------------------------------------------------

def test_sweep_reports_workable_range(tmp_path):
    cfg = _write_config(tmp_path, n_uts=1, seed=1)
    out = tmp_path / "sweep"
    assert main(["sweep-sir", "--config", cfg, "--from", "1", "--to", "3",
                 "--step", "1", "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert [float(r["sir_threshold"]) for r in rows] == [1.0, 2.0, 3.0]
    # one terminal alone suffers no interference: every stage works everywhere
    assert all(r["protocol_feasible"] == "1" for r in rows)
    assert all(r["reality_feasible"] == "1" for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sir_lower"] == 1.0
    assert manifest["sir_upper"] == 3.0


@pytest.mark.parametrize("bounds", [
    ["--step", "0"],
    ["--step", "-1"],
    ["--from", "3", "--to", "1"],
])
def test_sweep_rejects_empty_or_endless_range(tmp_path, bounds):
    cfg = _write_config(tmp_path, n_uts=1, seed=1)
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-sir", "--config", cfg, *bounds, "--out", str(out)])
    assert isinstance(exc.value.code, str)
    assert not out.exists()


@pytest.mark.parametrize("to, step, expected", [
    ("1.6", "1", [1.0]),
    ("2.5", "1", [1.0, 2.0]),
    ("2", "0.1", [1.0 + i * 0.1 for i in range(11)]),
])
def test_sweep_never_passes_its_upper_end(tmp_path, monkeypatch, to, step, expected):
    solved = []

    def recording(s, thresholds, epsilon):
        solved.extend(thresholds)
        return None, None, []

    monkeypatch.setattr(cli, "sweep_sir", recording)
    cfg = _write_config(tmp_path, n_uts=1, seed=1)
    assert main(["sweep-sir", "--config", cfg, "--from", "1", "--to", to,
                 "--step", step, "--out", str(tmp_path / "sweep")]) == 0
    assert solved == pytest.approx(expected)


def test_malformed_scenario_exits_with_code_2(tmp_path, capsys):
    doc = helpers.tiny_config(n_uts=1)
    doc["illum"] = [300.0, 500.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error: illum:" in capsys.readouterr().err


@pytest.mark.parametrize("field, change", helpers.WRONG_SCALARS)
def test_wrong_scalar_in_scenario_exits_with_code_2(tmp_path, capsys, field, change):
    doc = helpers.tiny_config(n_uts=1)
    doc.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


def test_sweep_feasibility_never_recovers_as_threshold_grows():
    s = scenario_from_dict(helpers.tiny_config(n_uts=3, seed=2))
    _, _, table = sweep_sir(s, [1.0, 2.0, 4.0], epsilon=0.0)
    flags = [row["protocol_feasible"] for row in table]
    assert flags == sorted(flags, reverse=True)


def _loaded_office(n_uts=6):
    """Terminals at 120 Mbit/s on a 0.5 m desk grid: with six, the optimum
    mixes multi-link patterns."""
    cfg = default_config(n_uts=n_uts, seed=2, demand_bps=1.2e8)
    cfg["illum"] = dict(cfg["illum"], spacing=0.5)
    return scenario_from_dict(cfg)


def _solution_key(sol):
    return ([(col.schedule.active, col.dc_power) for col in sol.columns],
            sol.omega.tolist(), sol.z_upper, sol.z_lower, sol.iterations)


def test_sweep_solves_each_threshold_as_a_fresh_instance(monkeypatch):
    s = _loaded_office()
    thresholds = [1.0, 2.0, 4.0]
    solved = []
    column_generation = SchedulingInstance.column_generation

    def recording(self, *args, **kwargs):
        sol = column_generation(self, *args, **kwargs)
        solved.append(sol)
        return sol

    monkeypatch.setattr(SchedulingInstance, "column_generation", recording)
    _, _, table = sweep_sir(s, thresholds, epsilon=0.0)
    monkeypatch.undo()
    assert [sol.sir_threshold for sol in solved] == thresholds
    assert max(sol.iterations for sol in solved) > 1
    for t, sol, row in zip(thresholds, solved, table):
        fresh = SchedulingInstance(s, sir_threshold=t).column_generation(0.0)
        assert _solution_key(sol) == _solution_key(fresh)
        assert row["net_gap"] == sol.net_gap


def test_sweep_solves_single_link_lighting_once(monkeypatch):
    s = _loaded_office()
    singles = []
    depth = [0]
    solve_dc = SchedulingInstance._solve_dc
    initial_columns = SchedulingInstance.initial_columns

    def counting_solve_dc(self, active):
        if depth[0] and len(active) == 1:
            singles.append(active)
        return solve_dc(self, active)

    def counting_initial_columns(self):
        depth[0] += 1
        try:
            return initial_columns(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(SchedulingInstance, "_solve_dc", counting_solve_dc)
    monkeypatch.setattr(SchedulingInstance, "initial_columns", counting_initial_columns)
    sweep_sir(s, [1.0, 2.0, 4.0], epsilon=0.0)
    n_links = len(SchedulingInstance(s).links)
    assert Counter(singles) == {(i,): 1 for i in range(n_links)}


def test_derived_instances_share_no_pricing_state():
    s = scenario_from_dict(helpers.bright_beam_config())
    base = SchedulingInstance(s)
    base.solve_rmp(base.initial_columns())  # a master basis of the base's own

    def rows(inst):
        return list(inst._lo_rows), list(inst._hi_rows)

    def bases(inst):
        """The master and pricing bases, copied out."""
        return [None if held is None else
                (held.basic.tolist(), held.complemented.tolist())
                for held in (inst._rmp_basis, inst._pricing_basis)]

    two, four, six = (base.at_sir_threshold(t) for t in (2.0, 4.0, 6.0))
    assert bases(two) == [None, None]  # derived instances start cold
    six.column_generation(0.0)
    before_base, before_four = rows(base), rows(four)
    held_base, held_six = bases(base), bases(six)
    assert held_base[0] is not None and None not in held_six
    assert rows(two) == before_four
    two.column_generation(0.0)
    assert rows(two) != before_four  # the solve grew this working set ...
    assert rows(base) == before_base  # ... and no other
    assert rows(four) == before_four
    assert None not in bases(two) and bases(two) != held_six  # its own bases ...
    assert bases(base) == held_base  # ... and nobody else's changed
    assert bases(six) == held_six
    # an instance derived from one that has priced starts clean as well
    again = two.at_sir_threshold(4.0).column_generation(0.0)
    fresh = SchedulingInstance(s, sir_threshold=4.0).column_generation(0.0)
    assert _solution_key(again) == _solution_key(fresh)


def test_sweep_validates_threshold_list():
    s = scenario_from_dict(helpers.tiny_config(n_uts=1))
    with pytest.raises(ValueError):
        sweep_sir(s, [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep_sir(s, [0.5, 1.0])


# -- heatmap -----------------------------------------------------------------------

def test_heatmap_covers_grid_and_stays_in_band(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=1, demand_bps=0.0)
    out = tmp_path / "hm"
    assert main(["heatmap", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "heatmap.csv")
    grid = scenario_from_dict(
        helpers.tiny_config(n_uts=2, seed=1, demand_bps=0.0)).grid_points()
    assert len(rows) == grid.shape[0]
    for row in rows:
        assert 300.0 - 1e-3 <= float(row["e_weighted"]) <= 500.0 + 1e-3
        assert row["violates_band"] == "0"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["illum_violation_fraction"] == 0.0


def test_heatmap_without_lighting_flags_dark_idle(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=1, demand_bps=0.0)
    out = tmp_path / "dark"
    assert main(["heatmap", "--config", cfg, "--algo", "vico",
                 "--no-illum-constraint", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["illum_violation_fraction"] == 1.0
    rows = _read_csv(out / "results.csv")
    assert float(rows[0]["illum_violation_fraction"]) == 1.0


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
