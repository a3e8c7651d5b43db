"""End-to-end runs of the experiment commands on desk-sized scenarios."""

import csv
import json
import math
from collections import Counter

import pytest

import helpers
from vlcopt import cg_scheduler, cli, lp
from vlcopt.cg_scheduler import SchedulingInstance
from vlcopt.conflict import is_independent
from vlcopt.cli import _parse_values, main, result_row, run_algorithm, sweep_sir
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


def test_solve_without_a_config_builds_the_office_from_the_generator_args(tmp_path):
    out = tmp_path / "gen"
    assert main(["solve", "--uts", "4", "--seed", "3", "--demand-mbps", "10",
                 "--light-config", "b", "--out", str(out)]) == 0
    digest = scenario_from_dict(default_config(
        config_kind="b", n_uts=4, seed=3, demand_bps=1e7)).digest()
    row = _read_csv(out / "results.csv")[0]
    assert row["scenario_digest"] == digest and row["config_kind"] == "b"
    assert json.loads((out / "manifest.json").read_text())["scenario_digests"] == [digest]
    assert row["protocol_feasible"] == "1"


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


def test_solve_prints_the_status_and_net_gap_beside_the_power(tmp_path, capsys):
    # criterion 2's input: at epsilon 0.01 the gross ratio stops the loop with
    # a lower bound below the lighting floor, which certifies no net power
    path = tmp_path / "office.json"
    path.write_text(json.dumps(default_config(seed=2)))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--sir", "3", "--epsilon", "0.01",
                 "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("protocol: ")
    printed = dict(token.split("=", 1) for token in line.split() if "=" in token)
    row = _read_csv(out / "results.csv")[0]
    assert printed["status"] == "epsilon_bounded"
    assert float(printed["power"]) == pytest.approx(float(row["protocol_power_w"]),
                                                    abs=1e-6)
    assert float(printed["net_gap"]) == pytest.approx(float(row["net_gap"]), rel=1e-5)
    # the gap recomputed from the row's own columns exceeds the run's epsilon
    net = float(row["protocol_power_w"])
    z_upper = net + float(row["p_illumi_min_w"])
    net_gap = (z_upper - float(row["z_lower_w"])) / net
    assert float(printed["net_gap"]) == pytest.approx(net_gap, rel=1e-5)
    assert net_gap > float(row["epsilon"])


def test_sweep_and_compare_rows_carry_the_status_beside_the_net_gap():
    # criterion 2's input again: a row's net power is certified only to its
    # net_gap, so the status that says so sits right before it
    s = scenario_from_dict(default_config(seed=2))
    _, _, table = sweep_sir(s, [3.0], epsilon=0.01)
    inst = SchedulingInstance(s, sir_threshold=3.0)
    proto, real = run_algorithm(inst, "cg", 0.01, seed=2)
    net_gap = (proto.z_upper - proto.z_lower) / (proto.z_upper - proto.p_illumi_min)
    assert net_gap > 0.01
    for row in (table[0], result_row(inst, "cg", proto, real, seed=2)):
        assert row["status"] == "epsilon_bounded"
        keys = list(row)
        assert keys.index("net_gap") == keys.index("status") + 1
        assert row["net_gap"] == net_gap


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


@pytest.mark.parametrize("algo", ["vico", "mwis"])
def test_heuristics_without_lit_single_links_report_infeasible(tmp_path, capsys, algo):
    path = tmp_path / "unlit.json"
    path.write_text(json.dumps(helpers.unlit_links_config()))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--algo", algo,
                 "--out", str(out)]) == 0
    row = _read_csv(out / "results.csv")[0]
    assert row["protocol_feasible"] == "0"
    assert row["reality_feasible"] == "0"
    assert "protocol: feasible=False" in capsys.readouterr().out


@pytest.mark.parametrize("argv, named", [
    pytest.param(["solve", "--sir", "0.5"], "--sir", id="sir-below-1"),
    pytest.param(["compare", "--axis", "uts", "--values", "2", "--sir", "nan"], "--sir",
                 id="sir-nan"),
    pytest.param(["solve", "--epsilon", "1"], "--epsilon", id="epsilon-1"),
    pytest.param(["heatmap", "--epsilon", "-0.1"], "--epsilon", id="epsilon-negative"),
    pytest.param(["sweep-sir", "--from", "0.5"], "--from", id="from-below-1"),
    pytest.param(["compare", "--axis", "uts", "--values", "2", "--algos", "cg,greedy"],
                 "'greedy'", id="unknown-algo"),
    pytest.param(["compare", "--axis", "uts", "--values", "2", "--algos", "vico,cg,vico"],
                 "'vico'", id="repeated-algo"),
])
def test_out_of_range_arguments_are_refused_before_solving(tmp_path, monkeypatch,
                                                          argv, named):
    def solve(*args, **kwargs):
        raise AssertionError("an out-of-range argument reached a solve")

    monkeypatch.setattr(cli, "SchedulingInstance", solve)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", _write_config(tmp_path), "--out", str(out)])
    assert isinstance(exc.value.code, str)
    assert named in exc.value.code and "\n" not in exc.value.code
    assert not out.exists()


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

    # per cell: rows whose status is optimal, and the worst certified net gap
    for r in summary:
        cell = [row for row in rows if (row["algorithm"], row["axis_value"])
                == (r["algorithm"], r["axis_value"])]
        assert int(r["n_optimal"]) == sum(row["status"] == "optimal" for row in cell)
        gaps = [float(row["net_gap"]) for row in cell]
        if r["algorithm"] == "cg":
            assert float(r["worst_net_gap"]) == max(gaps) >= 0.0
        else:
            assert all(math.isnan(g) for g in gaps)
            assert math.isnan(float(r["worst_net_gap"]))
    assert sum(int(r["n_optimal"]) for r in summary if r["algorithm"] == "cg") == 4

    # the exact solver can never report more protocol power than a heuristic
    for value in ("2", "3"):
        for seed in ("1", "2"):
            cell = {r["algorithm"]: float(r["protocol_power_w"]) for r in rows
                    if r["axis_value"] == value and r["seed"] == seed}
            assert cell["cg"] <= cell["vico"] + 1e-9
            assert cell["cg"] <= cell["mwis"] + 1e-9


def test_compare_on_the_demand_axis_sets_each_terminal_demand(tmp_path):
    # no --config either: each value is a per-terminal demand in Mbit/s
    out = tmp_path / "cmp"
    assert main(["compare", "--uts", "4", "--axis", "demand", "--values", "10,40",
                 "--seeds", "1", "--algos", "cg", "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert [(r["axis"], r["axis_value"]) for r in rows] == [("demand", "10.0"),
                                                             ("demand", "40.0")]
    assert [r["scenario_digest"] for r in rows] == [
        scenario_from_dict(default_config(n_uts=4, seed=1, demand_bps=v * 1e6)).digest()
        for v in (10.0, 40.0)]
    power = [float(r["protocol_power_w"]) for r in rows]
    assert 0.0 < power[0] < power[1]


def test_compare_iterations_are_the_axis_columns_then_the_record(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=1)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--axis", "uts", "--values", "2",
                 "--seeds", "1", "--algos", "cg", "--out", str(out)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    record = (tmp_path / "one" / "iterations.csv").read_text().splitlines()[0]
    header = (out / "iterations.csv").read_text().splitlines()[0]
    assert header == "algorithm,axis_value,seed," + record


def test_compare_iterations_of_heuristics_are_plain_numbers(tmp_path):
    cfg = _write_config(tmp_path, n_uts=2, seed=1)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--axis", "uts", "--values", "2",
                 "--seeds", "1", "--algos", "vico,mwis", "--out", str(out)]) == 0
    rows = _read_csv(out / "iterations.csv")
    assert {row["algorithm"] for row in rows} == {"vico", "mwis"}
    for row in rows:
        for name in ("z_upper", "z_lower", "reduced_cost", "wall_ms"):
            float(row[name])  # a numpy repr such as "np.float64(1.5)" fails here
        assert row["columns_added"] == "1"  # one column per heuristic round


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


@pytest.mark.parametrize("command", [["solve", "--seed", "-1"],
                                     ["compare", "--axis", "uts", "--values", "2",
                                      "--seeds", "-1"]])
def test_negative_terminal_seed_exits_with_code_2(tmp_path, capsys, command):
    assert main(command + ["--out", str(tmp_path / "o")]) == 2
    assert "error: uts.seed: must be >= 0" in capsys.readouterr().err


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


def _net(sol):
    return sol.z_upper - sol.p_illumi_min


def test_sweep_solves_each_threshold_as_a_fresh_instance(monkeypatch):
    # the sweep solves from the top threshold down, each threshold starting
    # from the columns of the one above, so its pool is not a fresh
    # instance's; its status and net power are, and every column is valid at
    # its own threshold
    s = _loaded_office()
    thresholds = [1.0, 2.0, 4.0]
    solved = []
    column_generation = SchedulingInstance.column_generation

    def recording(self, *args, **kwargs):
        sol = column_generation(self, *args, **kwargs)
        solved.append((self, sol))
        return sol

    monkeypatch.setattr(SchedulingInstance, "column_generation", recording)
    _, _, table = sweep_sir(s, thresholds, epsilon=0.0)
    monkeypatch.undo()
    assert [sol.sir_threshold for _, sol in solved] == [4.0, 2.0, 1.0]
    assert [row["sir_threshold"] for row in table] == thresholds
    assert max(sol.iterations for _, sol in solved) > 1
    for (inst, sol), row in zip(reversed(solved), table):
        fresh = SchedulingInstance(s, sir_threshold=sol.sir_threshold).column_generation(0.0)
        assert sol.status is fresh.status
        assert _net(sol) == pytest.approx(_net(fresh), rel=0.0, abs=1e-9)
        assert all(inst.column_is_valid(col) for col in sol.columns)
        assert row["status"] == sol.status.value
        assert row["net_gap"] == sol.net_gap


def _recording_first_masters(monkeypatch):
    """The basis each column-generation call's first master is offered, in
    call order, with the calls' (start, solution) pairs."""
    firsts, calls = [], []
    column_generation, solve_rmp = (SchedulingInstance.column_generation,
                                    SchedulingInstance.solve_rmp)

    def recording_cg(self, epsilon, start=None):
        firsts.append([])
        calls.append((start, column_generation(self, epsilon, start=start)))
        return calls[-1][1]

    def recording_rmp(self, columns, held=None, idle_w=None):
        if firsts and not firsts[-1]:
            firsts[-1].append(held)
        return solve_rmp(self, columns, held, idle_w)

    monkeypatch.setattr(SchedulingInstance, "column_generation", recording_cg)
    monkeypatch.setattr(SchedulingInstance, "solve_rmp", recording_rmp)
    return firsts, calls


def test_sweep_starts_each_lower_threshold_from_the_master_above(monkeypatch):
    # below the top, a threshold's pool is the one above's program, so its
    # first master is offered that program's final basis
    s = _loaded_office()
    firsts, calls = _recording_first_masters(monkeypatch)
    sweep_sir(s, [1.0, 2.0, 4.0], epsilon=0.0)
    monkeypatch.undo()
    assert [start is None for start, _ in calls] == [True, False, False]
    assert firsts[0] == [None]
    for k in (1, 2):
        above = calls[k - 1][1]
        assert calls[k][0] is above
        assert len(firsts[k]) == 1 and firsts[k][0] is above.basis is not None
        assert ([col.schedule.active for col in calls[k][1].columns[:len(above.columns)]]
                == [col.schedule.active for col in above.columns])


def test_start_drops_columns_the_new_graph_makes_dependent(monkeypatch):
    # patterns of a solve at threshold 2 that conflict at threshold 6 are not
    # carried; the pool is then not the start's program, and the first master
    # starts cold
    s = _loaded_office()
    base = SchedulingInstance(s)
    start = base.at_sir_threshold(2.0).column_generation(0.0)
    inst = base.at_sir_threshold(6.0)
    dependent = {col.schedule.active for col in start.columns
                 if not is_independent(col.schedule, inst.graph, inst.cap_groups)}
    assert dependent and start.basis is not None
    firsts, _ = _recording_first_masters(monkeypatch)
    sol = inst.column_generation(0.0, start=start)
    monkeypatch.undo()
    assert firsts == [[None]]
    pooled = {col.schedule.active for col in sol.columns}
    assert pooled.isdisjoint(dependent)
    assert {col.schedule.active for col in start.columns} - dependent <= pooled
    assert all(inst.column_is_valid(col) for col in sol.columns)
    fresh = SchedulingInstance(s, sir_threshold=6.0).column_generation(0.0)
    assert sol.status is fresh.status
    assert _net(sol) == pytest.approx(_net(fresh), rel=0.0, abs=1e-9)


def test_sweep_solves_single_link_lighting_once(monkeypatch):
    s = _loaded_office()
    singles = []
    depth = [0]
    solve_dc = SchedulingInstance._solve_dc
    initial_columns = SchedulingInstance.initial_columns

    def counting_solve_dc(self, active):
        # every single link passes here once, whether the lighting floor's
        # basis lights it or its lighting LP does
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


def test_sweep_decodes_the_lighting_floor_once(monkeypatch):
    # the base instance decodes its lighting floor once, and every instance
    # derived at a threshold lights its patterns off that same record
    decode, derive = SchedulingInstance._decode_floor, SchedulingInstance.at_sir_threshold
    floors, derived = [], []

    def counting_decode(self, *args):
        floors.append(decode(self, *args))
        return floors[-1]

    def recording_derive(self, sir_threshold):
        derived.append(derive(self, sir_threshold))
        return derived[-1]

    monkeypatch.setattr(SchedulingInstance, "_decode_floor", counting_decode)
    monkeypatch.setattr(SchedulingInstance, "at_sir_threshold", recording_derive)
    sweep_sir(scenario_from_dict(default_config(seed=7)),
              [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], epsilon=0.0)
    monkeypatch.undo()
    assert len(floors) == 1 and len(derived) == 6
    assert all(inst._floor is floors[0] for inst in derived)


def test_derived_instances_share_no_pricing_state():
    s = scenario_from_dict(helpers.bright_beam_config())
    base = SchedulingInstance(s)
    base.solve_rmp(base.initial_columns())  # lazy rows of the base's own

    def rows(inst):
        return list(inst._lo_rows), list(inst._hi_rows)

    def root(inst):
        """The held pricing root's basis, copied out."""
        held = inst._pricing_root
        return None if held is None else (held.basic.tolist(), held.complemented.tolist())

    two, four, six = (base.at_sir_threshold(t) for t in (2.0, 4.0, 6.0))
    assert root(two) is None  # derived instances start cold
    six.column_generation(0.0)
    before_base, before_four = rows(base), rows(four)
    held_base, held_six = root(base), root(six)
    assert held_six is not None
    assert rows(two) == before_four
    two.column_generation(0.0)
    assert rows(two) != before_four  # the solve grew this working set ...
    assert rows(base) == before_base  # ... and no other
    assert rows(four) == before_four
    assert root(two) is not None and root(two) != held_six  # its own root ...
    assert root(base) == held_base  # ... and nobody else's changed
    assert root(six) == held_six
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


@pytest.mark.parametrize("command", ["solve", "heatmap"])
@pytest.mark.parametrize("algo", ["cg", "mwis"])
def test_no_illum_constraint_is_for_vico_only(tmp_path, capsys, command, algo):
    # column generation and the max-weight baseline always light the room, so
    # the flag would be ignored: the command refuses it before solving
    cfg = _write_config(tmp_path, n_uts=2, seed=1, demand_bps=0.0)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--algo", algo, "--no-illum-constraint",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--no-illum-constraint applies to --algo vico only" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_sir_has_no_sir_option(tmp_path, capsys):
    # the sweep's thresholds come from --from/--to/--step alone
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-sir", "--config", _write_config(tmp_path), "--sir", "5",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sir 5" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
