"""Tests of the benchmark itself, at tiny sizes and without looking at timings.

Run with: python -m pytest bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 1337


def tiny_specs(tmp_path: Path) -> dict:
    """Each workload at a tiny size. The rover maps are the shipped ones with
    a short path; the obstacle on the second one sits clear of the path."""
    base = json.loads((run.SRC / "fastslow" / "maps" / "obstacle_adjacent.json").read_text())
    maps = []
    for name, obstacles in (("tiny_free", []), ("tiny_adjacent", [{"lo": [1.5, 1.0], "hi": [2.5, 1.4]}])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(base, name=name, waypoints=[[0.0, 0.0], [2.0, 0.0], [3.0, 0.5]], obstacles=obstacles)))
        maps.append(str(path))
    return {
        "linreg": {"scenario": "linreg", "trials": 2, "n_steps": 500},
        "dnn": {"scenario": "dnn", "trials": 2, "n_steps": 300},
        "rover": {"scenario": "rover", "trials": 1, "rover": {"maps": maps, "calibration_repeats": 1}},
    }


def run_tiny(tmp_path, name, trace):
    return run.run_workload(
        name, SEED, seconds=0, trace=trace, work_dir=tmp_path / "work", spec=tiny_specs(tmp_path)[name], setup_samples=1
    )


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(tmp_path, capsys, name, trace):
    run.print_result(run_tiny(tmp_path, name, trace))
    line = last_json_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = BENCHMARK_JSON["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in line["metrics"].items()}
    if trace:
        counts = {k: v["value"] for k, v in line["metrics"].items() if v["unit"] == "count"}
        rover_counts = [v for k, v in counts.items() if k.split(".")[0] in ("reach", "rover", "spline")]
        if name == "rover":
            assert all(v > 0 for v in rover_counts)
            assert counts["policy.episodes"] == 0
        else:
            assert rover_counts and not any(rover_counts)
            assert counts["policy.episodes"] == 10


def _tamper_steps(out_dir: Path) -> None:
    path = out_dir / "steps.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[7] = repr(float(fields[7]) - 0.5)  # reward column
    lines[1] = ",".join(fields)
    path.write_text("".join(lines))


def _tamper_summary(out_dir: Path) -> None:
    path = out_dir / "summary.json"
    doc = json.loads(path.read_text())
    doc["per_trial"][0]["cumulative_reward"] -= 0.5
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))


def _reformat_summary(out_dir: Path) -> None:
    # Same content, other bytes: only the hash check can catch this.
    path = out_dir / "summary.json"
    path.write_text(path.read_text() + "\n")


@pytest.mark.parametrize("tamper", [_tamper_steps, _tamper_summary, _reformat_summary])
def test_tampered_outputs_count_as_failed_episodes(tmp_path, monkeypatch, capsys, tamper):
    run_tiny(tmp_path, "linreg", trace=False)  # records the untampered hashes
    verify = run.verify

    def tampering_verify(harness, out_dir, expected_episodes):
        tamper(out_dir)
        return verify(harness, out_dir, expected_episodes)

    monkeypatch.setattr(run, "verify", tampering_verify)
    result = run_tiny(tmp_path, "linreg", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 10
    run.print_result(result)
    assert last_json_line(capsys)["failed"] == 10


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *BENCHMARK_JSON["command"][1:], "--workload", "linreg", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
