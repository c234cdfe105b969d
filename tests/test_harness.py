import json
import math

import numpy as np
import pytest

from fastslow.charts import line_chart_svg, scatter_chart_svg
from fastslow.cli import main
from fastslow.harness import (
    BUILTIN_MAPS,
    ComparisonReport,
    ConfigError,
    DEFAULTS,
    POLICY_ORDER,
    aggregate_rows,
    builtin_map_path,
    calibrate,
    check_report,
    config_from_dict,
    default_config,
    load_config,
    merge_reports,
    resolve_map,
    run_suite,
)


def _tiny_linreg(out_dir, seed=5, trials=2, n_steps=150):
    raw = json.loads(json.dumps(DEFAULTS["linreg"]))
    raw["seed"], raw["trials"], raw["n_steps"] = seed, trials, n_steps
    return config_from_dict(raw, out_dir=out_dir)


def _tiny_map(tmp_path):
    doc = {
        "name": "mini",
        "waypoints": [[0.0, 0.0], [6.0, 0.0]],
        "obstacles": [],
        "goal_tolerance": 0.6,
        "reach_horizon": 3,
        "step_cap": 200,
        "fast_reach": {"confidence": 0.6, "type1_error": 0.3},
        "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    return path


def _tiny_rover(out_dir, map_path, trials=1):
    raw = {
        "scenario": "rover",
        "seed": 7,
        "trials": trials,
        "rover": {"maps": [str(map_path)], "calibration_repeats": 1},
    }
    return config_from_dict(raw, out_dir=out_dir)


def test_default_configs_are_valid():
    for scenario in ("linreg", "dnn", "rover"):
        cfg = default_config(scenario)
        assert cfg.scenario == scenario
        assert len(cfg.seeds) == cfg.trials


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "scenario": "linreg",\n  oops\n}')
    with pytest.raises(ConfigError, match=r":3:"):
        load_config(p)


def test_config_rejects_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        config_from_dict({"scenario": "chess"})


def test_config_requires_weights_for_prediction_suites():
    with pytest.raises(ConfigError, match="weights"):
        config_from_dict({"scenario": "linreg", "seed": 1, "trials": 1, "n_steps": 10})


def test_config_explicit_seed_mismatch():
    raw = json.loads(json.dumps(DEFAULTS["linreg"]))
    raw["seeds"] = [1, 2, 3]
    raw["trials"] = 2
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict(raw)


def test_resolve_map_unknown():
    with pytest.raises(ConfigError, match="map not found"):
        resolve_map("no_such_map")
    for name in BUILTIN_MAPS:
        assert builtin_map_path(name).exists()


def test_linreg_suite_outputs_and_aggregates(tmp_path):
    cfg = _tiny_linreg(tmp_path / "out")
    report = run_suite(cfg)
    out = tmp_path / "out"
    for name in ("steps.csv", "summary.json", "reward_curve.svg", "cost_vs_loss.svg"):
        assert (out / name).exists()
    assert len(report.per_trial) == cfg.trials * len(POLICY_ORDER)

    # aggregates match a recomputation from the per-step CSV
    import csv as csv_mod

    sums: dict[tuple, float] = {}
    with (out / "steps.csv").open() as f:
        for row in csv_mod.DictReader(f):
            key = (row["trial"], row["policy"])
            sums[key] = sums.get(key, 0.0) + float(row["reward"])
    for policy in POLICY_ORDER:
        recomputed = np.mean([v for (t, p), v in sums.items() if p == policy])
        agg = report.aggregates[policy]["cumulative_reward"]["mean"]
        assert abs(recomputed - agg) <= 1e-9 * max(1.0, abs(agg))


def test_suite_reruns_are_byte_identical(tmp_path):
    cfg1 = _tiny_linreg(tmp_path / "a")
    cfg2 = _tiny_linreg(tmp_path / "b")
    run_suite(cfg1)
    run_suite(cfg2)
    for name in ("steps.csv", "summary.json", "reward_curve.svg", "cost_vs_loss.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_summary_round_trip(tmp_path):
    cfg = _tiny_linreg(tmp_path / "out")
    report = run_suite(cfg)
    loaded = ComparisonReport.load(tmp_path / "out" / "summary.json")
    assert loaded.aggregates == report.aggregates
    assert loaded.per_trial == report.per_trial


def test_schema_version_mismatch(tmp_path):
    cfg = _tiny_linreg(tmp_path / "out")
    run_suite(cfg)
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    doc["schema_version"] = 99
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "summary.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="schema-version mismatch"):
        merge_reports([bad])


def test_report_requires_at_least_one_summary():
    with pytest.raises(ConfigError, match="at least one"):
        merge_reports([])


def test_report_merges_and_regenerates_charts(tmp_path):
    run_suite(_tiny_linreg(tmp_path / "a", seed=5))
    run_suite(_tiny_linreg(tmp_path / "b", seed=6))
    merged = merge_reports([tmp_path / "a", tmp_path / "b"], out_dir=tmp_path / "m")
    assert merged.trials == 4
    assert len(merged.per_trial) == 4 * len(POLICY_ORDER)
    first = (tmp_path / "m" / "reward_curve.svg").read_bytes()
    (tmp_path / "m" / "reward_curve.svg").unlink()
    merge_reports([tmp_path / "a", tmp_path / "b"], out_dir=tmp_path / "m")
    assert (tmp_path / "m" / "reward_curve.svg").read_bytes() == first


def test_rover_suite_writes_trajectories_and_reach_sets(tmp_path):
    map_path = _tiny_map(tmp_path)
    cfg = _tiny_rover(tmp_path / "out", map_path)
    report = run_suite(cfg)
    out = tmp_path / "out"
    for name in ("steps.csv", "summary.json", "trajectories.csv", "reach_sets.csv", "calibration.json"):
        assert (out / name).exists()
    assert report.calibration and report.calibration[0]["mu"] >= 0.0
    rows = [r for r in report.per_trial if r["policy"] == "our_selector"]
    assert all(r["reached_goal"] for r in rows)
    text = (out / "trajectories.csv").read_text().splitlines()
    assert text[0] == "map,trial,policy,t,x,y,yaw,v,action,loss,reward"
    assert len(text) > 10


def test_calibrate_persists_and_reloads_bit_exact(tmp_path):
    map_path = _tiny_map(tmp_path)
    cfg = _tiny_rover(tmp_path / "out", map_path)
    art_path = tmp_path / "calib.json"
    artifacts = calibrate(cfg, out_path=art_path)
    loaded = json.loads(art_path.read_text())
    assert loaded[0]["mu"] == artifacts[0]["mu"]
    again = calibrate(cfg)
    assert again[0]["mu"] == artifacts[0]["mu"]


def test_calibrate_rejects_non_rover(tmp_path):
    with pytest.raises(ConfigError):
        calibrate(_tiny_linreg(tmp_path / "x"))
    cfg = _tiny_rover(tmp_path / "y", _tiny_map(tmp_path))
    cfg.block["maps"] = []
    with pytest.raises(ConfigError, match="empty"):
        calibrate(cfg)


@pytest.mark.parametrize("seed", [36, 47, 59])
def test_linreg_selector_beats_every_benchmark_on_near_exact_pairs(tmp_path, seed):
    # On these seeds a pair's scales sit near 1, so the unscaled worst-case
    # bound offloaded most steps and the selector lost to always-fast.
    check_report(run_suite(_tiny_linreg(tmp_path / "out", seed=seed, trials=2, n_steps=500)))


def test_check_report_flags_bad_ordering(tmp_path):
    cfg = _tiny_linreg(tmp_path / "out")
    report = run_suite(cfg)
    broken = ComparisonReport.from_dict(report.to_dict())
    broken.aggregates["our_selector"]["cumulative_reward"]["mean"] = -1e9
    from fastslow.harness import CheckFailure

    with pytest.raises(CheckFailure):
        check_report(broken)


def test_cli_linreg_runs_and_checks(tmp_path, capsys):
    rc = main(
        ["linreg", "--trials", "2", "--steps", "120", "--seed", "9", "--out", str(tmp_path / "o"), "--check"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "check passed" in out
    assert (tmp_path / "o" / "summary.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    rc = main(["linreg", "--config", str(p)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_scenario_command_mismatch(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(DEFAULTS["linreg"]))
    rc = main(["dnn", "--config", str(p)])
    assert rc == 2


def test_cli_check_failure_exit_code(tmp_path, capsys):
    # delta = 1 puts every corruption in the tail band: the bound is pinned at
    # the cap (always offload) while the mean realized loss is cap / 3, so a
    # threshold of 0.6 * cap makes always-offloading strictly worse than fast
    doc = json.loads(json.dumps(DEFAULTS["dnn"]))
    doc["weights"] = {"alpha": 1.0, "beta": 35.0}
    doc["dnn"]["delta"] = 1.0
    doc["trials"], doc["n_steps"] = 2, 400
    p = tmp_path / "dnn_bad.json"
    p.write_text(json.dumps(doc))
    rc = main(["dnn", "--config", str(p), "--out", str(tmp_path / "o"), "--check"])
    assert rc == 3
    assert "check failed" in capsys.readouterr().err


def test_cli_report_roundtrip(tmp_path):
    rc = main(["linreg", "--trials", "1", "--steps", "80", "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(["report", str(tmp_path / "a"), "--out", str(tmp_path / "m")])
    assert rc == 0
    assert (tmp_path / "m" / "summary.json").exists()


def test_cli_calibrate(tmp_path, capsys):
    map_path = _tiny_map(tmp_path)
    cfg_doc = {
        "scenario": "rover",
        "seed": 3,
        "trials": 1,
        "rover": {"maps": [str(map_path)], "calibration_repeats": 1},
    }
    p = tmp_path / "rover.json"
    p.write_text(json.dumps(cfg_doc))
    rc = main(["calibrate", "--config", str(p), "--out", str(tmp_path / "cal.json")])
    assert rc == 0
    assert "mu=" in capsys.readouterr().out
    assert (tmp_path / "cal.json").exists()


def test_charts_handle_non_finite_points():
    svg = scatter_chart_svg(
        {"fast": [(1.0, math.inf), (2.0, 3.0)], "slow": []}, "t", "x", "y"
    )
    assert svg.count("<circle") == 1
    svg2 = line_chart_svg({"oracle": [(0.0, 1.0), (1.0, -math.inf), (2.0, 2.0)]}, "t", "x", "y")
    assert "polyline" in svg2
    # identical inputs give identical bytes
    assert svg == scatter_chart_svg({"fast": [(1.0, math.inf), (2.0, 3.0)], "slow": []}, "t", "x", "y")


def test_policies_within_a_trial_are_paired(tmp_path):
    import csv as csv_mod

    cfg = _tiny_linreg(tmp_path / "out", trials=2, n_steps=250)
    run_suite(cfg)
    rows: dict[tuple, dict] = {}
    with (tmp_path / "out" / "steps.csv").open() as f:
        for row in csv_mod.DictReader(f):
            rows[(row["trial"], row["policy"], int(row["t"]))] = row
    for trial in ("0", "1"):
        for t in range(250):
            sel = rows[(trial, "our_selector", t)]
            fast = rows[(trial, "fast", t)]
            oracle = rows[(trial, "oracle", t)]
            # same inputs and same model pair: kept-fast steps realize the
            # same loss the always-fast policy does, and the oracle's compared
            # gain is exactly that loss
            if sel["action"] == "0":
                assert sel["loss"] == fast["loss"]
            assert oracle["bound"] == fast["loss"]


def test_zero_step_suite_gives_all_zero_report(tmp_path):
    cfg = _tiny_linreg(tmp_path / "out", trials=1, n_steps=0)
    report = run_suite(cfg)
    for row in report.per_trial:
        assert row["cumulative_reward"] == 0.0
        assert row["total_cost"] == 0.0
        assert row["mean_loss"] == 0.0
        assert row["slow_query_fraction"] == 0.0
        assert row["n_steps"] == 0


def test_interrupt_flushes_partial_results(tmp_path, monkeypatch):
    import fastslow.harness as harness_mod

    calls = {"n": 0}
    real = harness_mod.run_episode

    def exploding(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > len(POLICY_ORDER):  # let trial 0 finish, interrupt on trial 1
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "run_episode", exploding)
    cfg = _tiny_linreg(tmp_path / "out", trials=3, n_steps=50)
    with pytest.raises(KeyboardInterrupt):
        run_suite(cfg)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["partial"] is True
    assert len(summary["per_trial"]) == len(POLICY_ORDER)
    assert (tmp_path / "out" / "steps.csv").read_text().count("\n") > 1


def test_aggregate_rows_over_policies():
    rows = [
        {"policy": "fast", "cumulative_reward": -1.0, "total_cost": 2.0, "mean_loss": 0.1, "slow_query_fraction": 0.0},
        {"policy": "fast", "cumulative_reward": -3.0, "total_cost": 2.0, "mean_loss": 0.3, "slow_query_fraction": 0.0},
    ]
    agg = aggregate_rows(rows)
    assert agg["fast"]["cumulative_reward"]["mean"] == pytest.approx(-2.0)
    assert agg["fast"]["cumulative_reward"]["std"] == pytest.approx(1.0)
