"""fastslow benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {linreg,dnn,rover} --seed N --seconds S --trace {0,1}

Every execution of a suite happens in a fresh single-threaded worker process
(bench/worker.py) that imports fastslow from this checkout's src/, builds
the config with harness.config_from_dict and calls harness.run_suite, the
same path as ``fastslow <suite> --config``. Workers run one at a time.

Both modes start with one untimed set-up-only worker (import plus config),
which warms the bytecode and page caches. --trace 0 then repeats the suite
for about S seconds (at least once) and reports the medians of the
end-to-end metrics; set-up-only workers top setup_s up to SETUP_SAMPLES
samples. --trace 1 runs the suite once untraced and twice under the span
tracer (bench/tracing.py) and reports the per-layer metrics.

Every execution is checked: harness.check_report passes, each per-trial
cumulative_reward in summary.json equals math.fsum of its steps.csv reward
column, and summary.json and steps.csv hash the same in every execution of
the same workload, seed and source tree, also across runs in one checkout.
A failed check or an exception counts that execution's episodes as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (episodes) and metrics. Exit code 0 when every check
passed, 1 when one failed, 2 when the benchmark could not run at all (for
example, no fastslow sources next to it).
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
from tracing import LAYER_METRICS  # noqa: E402

# Changes to the shipped configs (harness.DEFAULTS); everything else, seed
# aside, is shipped as is. Trials are cut so one execution fits a run.
WORKLOADS = {
    # all 10,000 steps per trial
    "linreg": {"scenario": "linreg", "trials": 2},
    # shipped weights and 5,000 steps per trial
    "dnn": {"scenario": "dnn", "trials": 2},
    # both built-in maps, shipped calibration repeats
    "rover": {"scenario": "rover", "trials": 1},
}

END_TO_END = (
    ("suite_s", "s"),
    ("decisions_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("selector_neg_reward", "reward"),
)
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS if unit == "count")

SETUP_SAMPLES = 7
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


class WorkerFailed(Exception):
    """A worker process exited with an error."""


def import_harness():
    """fastslow.harness from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fastslow
        from fastslow import harness
    except ImportError as exc:
        raise BenchError(f"cannot import fastslow from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(fastslow.__file__).resolve().parents:
        raise BenchError(f"fastslow was imported from {fastslow.__file__}, not from {SRC}")
    return harness


def workload_config(harness, name: str, seed: int, spec: dict | None = None) -> dict:
    """The full raw suite config of a workload, as given to config_from_dict."""
    spec = WORKLOADS[name] if spec is None else spec
    raw = copy.deepcopy(harness.DEFAULTS[spec["scenario"]])
    raw.update(copy.deepcopy(spec))
    raw["seed"] = seed
    return raw


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_digest(raw: dict) -> str:
    return sha256_bytes(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode())


def source_digest() -> str:
    """Digest of the library sources, so stored output hashes are only
    compared within one version of the program."""
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "fastslow").rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_metadata(raw: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_env": list(BLAS_ENV),
        "config_sha256": config_digest(raw),
        "source_sha256": source_digest(),
    }


def verify(harness, out_dir: Path, expected_episodes: int) -> tuple[dict, list[str]]:
    """Check one execution's outputs; returns (facts, problems)."""
    summary_path, steps_path = out_dir / "summary.json", out_dir / "steps.csv"
    try:
        report = harness.ComparisonReport.load(summary_path)
        rewards: dict[tuple[str, str, str], list[float]] = defaultdict(list)
        with steps_path.open(newline="") as f:
            reader = csv.reader(f)
            col = {name: i for i, name in enumerate(next(reader))}
            for row in reader:
                key = (row[col["map"]], row[col["trial"]], row[col["policy"]])
                rewards[key].append(float(row[col["reward"]]))
        problems = []
        try:
            harness.check_report(report)
        except harness.CheckFailure as exc:
            problems.append(f"check_report: {exc}")
        if len(report.per_trial) != expected_episodes:
            problems.append(f"summary has {len(report.per_trial)} episodes, expected {expected_episodes}")
        for r in report.per_trial:
            key = (str(r["map"]), str(r["trial"]), str(r["policy"]))
            total = math.fsum(rewards.get(key, ()))
            if total != r["cumulative_reward"]:
                problems.append(f"episode {key}: summary reward {r['cumulative_reward']!r} != steps.csv fsum {total!r}")
        selector = report.mean_reward("our_selector")
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration, harness.ConfigError) as exc:
        return {}, [f"unreadable outputs: {exc!r}"]
    facts = {
        "rows": sum(len(v) for v in rewards.values()),
        "digests": {p.name: sha256_bytes(p.read_bytes()) for p in (summary_path, steps_path)},
        "output_mb": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) / 1e6,
        "selector_neg_reward": -selector,
    }
    return facts, problems[:10]


class Bench:
    """One benchmark run: a workload config, its workers and their checks."""

    def __init__(self, harness, name: str, seed: int, raw: dict, work_dir: Path) -> None:
        self.harness = harness
        self.raw = raw
        self.work_dir = work_dir
        n_maps = len(raw["rover"]["maps"]) if raw["scenario"] == "rover" else 1
        self.episodes = int(raw["trials"]) * n_maps * len(harness.POLICY_ORDER)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
        self.store_path = work_dir / "digests.json"
        self.store_key = f"{name} seed={seed} config={config_digest(raw)} source={source_digest()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, setup_only: bool, trace: bool, out_dir: Path) -> dict:
        request_path = self.work_dir / "request.json"
        result_path = self.work_dir / "result.json"
        result_path.unlink(missing_ok=True)
        request = {
            "raw": self.raw,
            "out_dir": str(out_dir),
            "setup_only": setup_only,
            "trace": trace,
            "result": str(result_path),
        }
        request_path.write_text(json.dumps(request))
        cmd = [sys.executable, str(BENCH / "worker.py"), str(request_path)]
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run(
                cmd + [str(t0)], env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise WorkerFailed(f"worker exited with {proc.returncode}: {tail[0]}")
        return json.loads(result_path.read_text())

    def setup_time(self) -> float:
        """Set-up time of one set-up-only worker."""
        try:
            return self.spawn(True, False, self.work_dir / "out")["setup_s"]
        except WorkerFailed as exc:
            raise BenchError(f"set-up failed: {exc}") from exc

    def execute(self, trace: bool) -> dict | None:
        """One checked execution of the suite. Returns its measurements, also
        when a check failed, or None when the worker or its outputs failed."""
        out_dir = self.work_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += self.episodes
        try:
            sample = self.spawn(False, trace, out_dir)
            facts, problems = verify(self.harness, out_dir, self.episodes)
        except WorkerFailed as exc:
            sample, facts, problems = {}, {}, [str(exc)]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if not problems:
            problems = self.check_digests(facts["digests"])
        if problems:
            self.fail(problems)
        if not facts:
            return None
        sample.update(facts)
        return sample

    def check_digests(self, digests: dict) -> list[str]:
        store = json.loads(self.store_path.read_text()) if self.store_path.exists() else {}
        expected = store.setdefault(self.store_key, digests)
        if expected == digests:
            self.store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
            return []
        return [f"{name} differs from an earlier execution of the same workload and seed"
                for name in digests if digests[name] != expected.get(name)]

    def fail(self, problems: list[str]) -> None:
        self.failed += self.episodes
        self.problems.extend(problems)


def end_to_end_metrics(samples: list[dict], setup: list[float]) -> dict:
    values = {
        "suite_s": [s["suite_s"] for s in samples],
        "decisions_per_s": [s["rows"] / s["suite_s"] for s in samples],
        "setup_s": setup,
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "output_mb": [s["output_mb"] for s in samples],
        "selector_neg_reward": [s["selector_neg_reward"] for s in samples],
    }
    return {name: (statistics.median(values[name]), unit, values[name]) for name, unit in END_TO_END}


def layer_metrics(bench: Bench, untraced: dict, traced: list[dict]) -> dict:
    runs = [
        dict(t["layers"], **{"harness.step_rows": t["rows"], "trace.overhead_s": t["suite_s"] - untraced["suite_s"]})
        for t in traced
    ]
    for name in EXACT_COUNTS:
        counts = [run[name] for run in runs]
        if len(set(counts)) > 1:
            bench.fail([f"{name} differs between traced runs of one seed: {counts}"])
    out = {}
    for name, unit in LAYER_METRICS:
        values = [run[name] for run in runs]
        out[name] = (values[0] if unit == "count" else statistics.median(values), unit, values)
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    spec: dict | None = None,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Run one workload and return the result (see the module docstring).
    `spec` replaces the workload's entry in WORKLOADS."""
    harness = import_harness()
    raw = workload_config(harness, name, seed, spec)
    work_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(harness, name, seed, raw, work_dir)
    bench.setup_time()  # untimed warm-up (bytecode and page caches); fails fast without the library

    if trace:
        execs = [bench.execute(trace=False)] + [bench.execute(trace=True) for _ in range(2)]
        if any(e is None for e in execs):
            raise BenchError("; ".join(bench.problems))
        metrics = layer_metrics(bench, execs[0], execs[1:])
    else:
        deadline = time.monotonic() + seconds
        samples, durations = [], []
        while True:
            t = time.monotonic()
            sample = bench.execute(trace=False)
            durations.append(time.monotonic() - t)
            if sample is not None:
                samples.append(sample)
            if bench.problems or time.monotonic() + statistics.median(durations) > deadline:
                break
        if not samples:
            raise BenchError("; ".join(bench.problems))
        setup = [s["setup_s"] for s in samples]
        setup += [bench.setup_time() for _ in range(setup_samples - len(setup))]
        metrics = end_to_end_metrics(samples, setup)

    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "meta": run_metadata(raw),
        "raw_config": raw,
        "samples": {k: v[2] for k, v in metrics.items()},
        "problems": bench.problems,
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    results_dir = work_dir / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def print_result(result: dict) -> None:
    print(f"# meta {json.dumps(result['meta'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        values = result["samples"][name]
        print(f"{name:28s} {_fmt(m['value'])} {m['unit']}  (median of {len(values)}: min {_fmt(min(values))}, max {_fmt(max(values))})")
    if not result["trace"]:
        reward = -result["metrics"]["selector_neg_reward"]["value"]
        print(f"{'selector_reward':28s} {reward:.6g} reward  (mean cumulative reward of our_selector)")
    print(f"{'episodes_failed':28s} {result['failed']} of {result['attempted']} episodes")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, ROOT / ".bench_out")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
