"""steps.csv: the column-wise writer and the streaming reader behind the
reward-curve chart, each against the csv-module code path it replaced, and
the in-memory reward curves against the ones read back from the files."""
import csv
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np

from fastslow.harness import (
    DEFAULTS, POLICY_ORDER, STEPS_HEADER, RewardCurves, _policies, _write_reach_rows, _write_steps,
    _write_trajectory_rows, config_from_dict, merge_reports, run_suite,
)
from fastslow.policy import Action, EpisodeLog, StepRecord
from fastslow.rover import evaluate_navigation, nominal_rollout, run_navigation, scenario_from_dict


def _csv_writer_bytes(map_name, trial, policy, log) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for r in log:
        writer.writerow(
            [map_name, trial, policy, r.t, int(r.action)]
            + [repr(float(v)) for v in (r.loss_realized, r.cost_incurred, r.reward, r.bound_used)]
        )
    return buf.getvalue()


def test_column_writer_matches_csv_writer_on_special_floats():
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, 0.1, -2.5e-7]
    rng = np.random.default_rng(0)
    columns = [rng.permutation(special) for _ in range(4)]
    log = EpisodeLog(np.arange(len(special)), rng.integers(0, 2, len(special)), *columns)
    for map_name in ("-", "obstacle_adjacent", 'odd, "quoted" map', "100% {braced}"):
        buf = io.StringIO()
        _write_steps(buf, map_name, 3, "our_selector", log)
        assert buf.getvalue() == _csv_writer_bytes(map_name, 3, "our_selector", log)


def _reward_curves(steps_paths):
    curves = RewardCurves()
    for path in steps_paths:
        curves.read(path)
    return curves.points()


def _dictreader_curves(steps_paths):
    """The row-by-row reader that the streaming one (RewardCurves.read) replaced."""
    sums = {p: {} for p in POLICY_ORDER}
    counts = {p: {} for p in POLICY_ORDER}
    running = {}
    for path in steps_paths:
        with Path(path).open(newline="") as f:
            for row in csv.DictReader(f):
                key = (row["map"], row["trial"], row["policy"])
                t = int(row["t"])
                if t == 0:
                    running[key] = 0.0
                running[key] += float(row["reward"])
                policy = row["policy"]
                sums[policy][t] = sums[policy].get(t, 0.0) + running[key]
                counts[policy][t] = counts[policy].get(t, 0) + 1
    curves = {}
    for policy in POLICY_ORDER:
        ts = sorted(sums[policy])
        if not ts:
            continue
        stride = max(1, len(ts) // 400)
        pts = [(float(t), sums[policy][t] / counts[policy][t]) for t in ts]
        curves[policy] = pts[::stride] + ([pts[-1]] if (len(pts) - 1) % stride else [])
    return curves


def _map_doc(name: str, obstacles: list) -> dict:
    return {
        "name": name,
        "waypoints": [[0.0, 0.0], [6.0, 0.0]],
        "obstacles": obstacles,
        "goal_tolerance": 0.6,
        "reach_horizon": 3,
        "step_cap": 200,
        "fast_reach": {"confidence": 0.6, "type1_error": 0.3},
        "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
    }


def _rover_run(tmp_path: Path, name: str, obstacles: list) -> Path:
    map_path = tmp_path / f"{name}.json"
    map_path.write_text(json.dumps(_map_doc(name, obstacles)))
    raw = {"scenario": "rover", "seed": 7, "trials": 2, "rover": {"maps": [str(map_path)], "calibration_repeats": 1}}
    run_suite(config_from_dict(raw, out_dir=tmp_path / name))
    return tmp_path / name / "steps.csv"


def _reprs(curves):
    return {p: [(repr(t), repr(v)) for t, v in pts] for p, pts in curves.items()}


def test_streaming_curves_equal_the_dictreader_reference(tmp_path):
    # An obstacle across the path flags every policy: the last reward is -inf.
    blocked = _rover_run(tmp_path, "blocked", [{"lo": [3.0, -0.25], "hi": [3.5, 0.25]}])
    assert "-inf" in blocked.read_text()
    free = _rover_run(tmp_path, "free", [])
    for paths in ([blocked], [blocked, free]):
        assert _reprs(_reward_curves(paths)) == _reprs(_dictreader_curves(paths))


def test_streaming_curves_hold_one_episode_at_a_time(tmp_path):
    path = tmp_path / "steps.csv"
    rng = np.random.default_rng(1)
    n_steps, n_trials = 2_500, 4
    with path.open("w", newline="") as f:
        f.write(",".join(STEPS_HEADER) + "\r\n")
        for trial in range(n_trials):
            for policy in POLICY_ORDER:
                cols = [rng.random(n_steps) for _ in range(4)]
                _write_steps(f, "-", trial, policy, EpisodeLog(np.arange(n_steps), rng.integers(0, 2, n_steps), *cols))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        curves = _reward_curves([path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(curves) == set(POLICY_ORDER)
    assert _reprs(curves) == _reprs(_dictreader_curves([path]))  # thinned to every 6th step
    # The file is 20 episodes; the rows of all of them would take several times its size.
    assert peak < size / 4, (peak, size)


def test_rover_records_write_through_the_same_writer():
    records = [StepRecord(0, Action.USE_FAST, 0.0, 1.0, -0.003, 0.0), StepRecord(1, Action.INVOKE_SLOW, math.inf, 3.5, -math.inf, math.inf)]
    log = EpisodeLog.from_records(records)
    assert list(log) == records
    buf = io.StringIO()
    _write_steps(buf, "mini", 0, "oracle", log)
    assert buf.getvalue() == "mini,0,oracle,0,0,0.0,1.0,-0.003,0.0\r\nmini,0,oracle,1,1,inf,3.5,-inf,inf\r\n"


def _assert_report_regenerates_the_charts(out: Path, merged: Path) -> None:
    merge_reports([out], out_dir=merged)
    for name in ("reward_curve.svg", "cost_vs_loss.svg"):
        assert (merged / name).read_bytes() == (out / name).read_bytes(), name


def test_suite_charts_equal_the_ones_report_regenerates(tmp_path):
    """run_suite draws the charts from the rewards it holds; `report` draws
    them from the files. Flagged rover episodes end in a -inf reward."""
    raw = dict(DEFAULTS["linreg"], trials=2, n_steps=700)
    run_suite(config_from_dict(raw, out_dir=tmp_path / "linreg"))
    _assert_report_regenerates_the_charts(tmp_path / "linreg", tmp_path / "linreg-merged")
    blocked = _rover_run(tmp_path, "blocked", [{"lo": [3.0, -0.25], "hi": [3.5, 0.25]}])
    assert "-inf" in blocked.read_text()
    _assert_report_regenerates_the_charts(blocked.parent, tmp_path / "blocked-merged")
    free = _rover_run(tmp_path, "free", [])
    _assert_report_regenerates_the_charts(free.parent, tmp_path / "free-merged")


def _csv_writer_trajectory(writer, map_name, trial, policy, nav) -> None:
    """The row-by-row trajectories.csv writer that the column-wise one replaced."""
    log = nav.records
    actions, losses, rewards = log.action.tolist(), log.loss.tolist(), log.reward.tolist()
    for i, s in enumerate(nav.states):
        extra = [actions[i], repr(float(losses[i])), repr(float(rewards[i]))] if i < len(log) else ["", "", ""]
        writer.writerow([map_name, trial, policy, i] + [repr(float(v)) for v in (s.x, s.y, s.yaw, s.v)] + extra)


def _csv_writer_reach(writer, map_name, trial, policy, evaluation, nav) -> None:
    """The row-by-row reach_sets.csv writer that the column-wise one replaced."""
    for t, action in enumerate(nav.records.action.tolist()):
        results = [("fast", evaluation.fast[t])]
        if action == Action.INVOKE_SLOW:
            results.append(("slow", evaluation.slow[t]))
        for model, result in results:
            for k, (lo, hi) in enumerate(zip(result.lo, result.hi), start=1):
                row = [map_name, trial, policy, t, model, k] + [repr(float(v)) for v in (*lo, *hi)]
                writer.writerow(row)


def test_rover_writers_match_csv_writer():
    # The obstacle blocks the path: every episode brakes to a flagged stop,
    # which adds states without a decision, and the slow ones write slow boxes.
    scn = scenario_from_dict(_map_doc("blocked", [{"lo": [3.0, -0.25], "hi": [3.5, 0.25]}]))
    evaluation = evaluate_navigation(scn, nominal_rollout(scn), 7, 0.05)
    braked = slow_boxes = 0
    for policy in _policies(7):
        nav = run_navigation(evaluation, policy)
        braked += nav.flagged_unsafe and len(nav.states) > len(nav.records) + 1
        slow_boxes += int(np.sum(nav.records.action == Action.INVOKE_SLOW))
        for map_name in ("blocked", 'odd, "quoted" map'):
            ours, ref = io.StringIO(), io.StringIO()
            _write_trajectory_rows(ours, map_name, 2, policy.name, nav)
            _write_reach_rows(ours, map_name, 2, policy.name, evaluation, nav)
            _csv_writer_trajectory(csv.writer(ref), map_name, 2, policy.name, nav)
            _csv_writer_reach(csv.writer(ref), map_name, 2, policy.name, evaluation, nav)
            assert ours.getvalue() == ref.getvalue(), (policy.name, map_name)
    assert braked and slow_boxes
