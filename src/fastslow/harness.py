"""Experiment harness: configuration, the three suites (linreg, dnn, rover),
five-policy comparison with paired streams, aggregation over trials, and
CSV/JSON/SVG emission.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import charts
from .dnnproxy import ProbabilisticBound, expected_loss_bound_dnn, make_proxy_pair
from .linreg import InputDistribution, bound_scale_lr, generate_coreset_pair, loss_bound_lr, loss_l2
from .policy import (
    BoundThresholdPolicy,
    CostSchedule,
    FastOnlyPolicy,
    OraclePolicy,
    RandomPolicy,
    RewardWeights,
    SlowOnlyPolicy,
    run_episode,
)
from .rover import AUG_DIM, RoverScenario, calibrate_scenario, load_scenario, run_navigation
from .schema import ConfigError, merge
from .seeding import CALIB_SEED_TAG, INPUT_TAG, LR_CALIB_TAG, PAIR_TAG, RANDOM_TAG, derive_seed, rng_for

SCHEMA_VERSION = 1
SCENARIOS = ("linreg", "dnn", "rover")
POLICY_ORDER = ("fast", "slow", "random", "our_selector", "oracle")
METRICS = ("cumulative_reward", "total_cost", "mean_loss", "slow_query_fraction")

# Calibration inputs per linreg trial, drawn apart from the trial's inputs.
LR_CALIBRATION_INPUTS = 1000

BUILTIN_MAPS = ("obstacle_free", "obstacle_adjacent")


DEFAULTS: dict[str, dict] = {
    "linreg": {
        "scenario": "linreg",
        "seed": 1337,
        "trials": 20,
        "n_steps": 10_000,
        "weights": {"alpha": 1.0, "beta": 0.003},
        "costs": {"c_fast": 1.0, "c_slow": 2.5},
        "linreg": {
            "epsilon": 0.1,
            "n_inputs": 2,
            "n_outputs": 4,
            "input_scale": 1.0,
            "bias_weight": 0.1,
        },
    },
    "dnn": {
        "scenario": "dnn",
        "seed": 1337,
        "trials": 10,
        "n_steps": 5_000,
        "weights": {"alpha": 1.0, "beta": 3e-4},
        "costs": {"c_fast": 0.0, "c_slow": 0.017},
        "dnn": {
            # With these accuracy-heavy weights the floor term delta * cap
            # sits far above the threshold, so the selector offloads on every
            # input; mixed-decision regimes are reachable by raising beta.
            "epsilon": 0.1,
            "delta": 0.01,
            "m_loss_cap": 1.0,
            "n_inputs": 6,
            "n_outputs": 2,
            "input_scale": 1.0,
            "out_center": 1.0,
            "out_spread": 0.5,
            "n_features": 16,
        },
    },
    "rover": {
        "scenario": "rover",
        "seed": 1337,
        "trials": 10,
        "n_steps": 0,
        "rover": {
            "maps": list(BUILTIN_MAPS),
            "calibration_repeats": 2,
        },
    },
}


def normalize(raw: dict, overrides: dict | None = None) -> dict:
    """`raw` with `overrides` applied, deep-merged over its scenario's DEFAULTS
    and checked. `weights` and `costs` must be given in full. A `seed` or
    `trials` override drops explicit `seeds`; absent seeds are derived, so the
    result holds every value a run depends on."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected an object, got {raw!r}")
    overrides = overrides or {}
    raw = dict(raw, **overrides)
    if "seed" in overrides or "trials" in overrides:
        raw.pop("seeds", None)
    if "scenario" not in raw:
        raise ConfigError("scenario: missing required field")
    scenario = raw["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    # [0] types seeds as a list of ints; absent seeds are derived below.
    schema = dict(DEFAULTS[scenario], seeds=[0], out_dir=f"out/{scenario}")
    cfg = merge(schema, raw, required=("weights", "costs"))
    if "seeds" not in raw:
        cfg["seeds"] = [derive_seed(cfg["seed"], i) for i in range(cfg["trials"])]
    if cfg["trials"] < 1:
        raise ConfigError("trials: must be >= 1")
    if len(cfg["seeds"]) != cfg["trials"]:
        raise ConfigError(f"seeds: got {len(cfg['seeds'])} explicit seeds for {cfg['trials']} trials")
    if scenario == "rover":
        if cfg["n_steps"] != 0:
            raise ConfigError("n_steps: the rover suite takes no step count; episodes run to the goal or the map's step_cap")
        if not cfg["rover"]["maps"]:
            raise ConfigError("rover.maps: calibration set is empty: no maps configured")
        if cfg["rover"]["calibration_repeats"] < 1:
            raise ConfigError("rover.calibration_repeats: must be >= 1")
    return cfg


@dataclass
class ExperimentConfig:
    """One suite run, built once from the canonical dict `normalize` returns."""

    config: dict
    weights: RewardWeights | None
    costs: CostSchedule | None
    base_dir: Path | None = None  # resolves relative map paths of a config file

    scenario = property(lambda self: self.config["scenario"])
    seed = property(lambda self: self.config["seed"])
    trials = property(lambda self: self.config["trials"])
    n_steps = property(lambda self: self.config["n_steps"])
    seeds = property(lambda self: self.config["seeds"])
    out_dir = property(lambda self: Path(self.config["out_dir"]))
    block = property(lambda self: self.config[self.scenario])

    def digest(self) -> str:
        """Digest of the canonical config, every field but the output path."""
        basis = {k: v for k, v in self.config.items() if k != "out_dir"}
        return hashlib.sha256(json.dumps(basis, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def config_from_dict(
    raw: dict, out_dir: Path | None = None, base_dir: Path | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """`out_dir` is shorthand for an `out_dir` override."""
    overrides = dict(overrides or {})
    if out_dir is not None:
        overrides["out_dir"] = str(out_dir)
    cfg = normalize(raw, overrides)
    weights = costs = None
    if cfg["scenario"] != "rover":
        try:
            weights, costs = RewardWeights(**cfg["weights"]), CostSchedule(**cfg["costs"])
        except ValueError as exc:
            raise ConfigError(f"weights/costs: {exc}") from exc
    return ExperimentConfig(cfg, weights, costs, base_dir)


def load_config(path: str | Path, out_dir: Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    return config_from_dict(raw, out_dir=out_dir, base_dir=path.parent, overrides=overrides)


def default_config(scenario: str, out_dir: Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    raw = DEFAULTS[scenario] if scenario in DEFAULTS else {"scenario": scenario}
    return config_from_dict(raw, out_dir=out_dir, overrides=overrides)


def builtin_map_path(name: str) -> Path:
    ref = resources.files("fastslow").joinpath(f"maps/{name}.json")
    with resources.as_file(ref) as p:
        return Path(p)


def resolve_map(name_or_path: str, base_dir: Path | None = None) -> RoverScenario:
    if name_or_path in BUILTIN_MAPS:
        return load_scenario(builtin_map_path(name_or_path))
    path = Path(name_or_path)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    if not path.exists():
        raise ConfigError(f"rover map not found: {name_or_path}")
    try:
        return load_scenario(path)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"rover map {name_or_path}: {exc}") from exc


@dataclass
class ComparisonReport:
    """Per-policy aggregates plus the per-trial rows they came from."""

    scenario: str
    seed: int
    trials: int
    n_steps: int
    per_trial: list[dict]
    aggregates: dict
    config_echo: dict
    calibration: list[dict] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "seed": self.seed,
            "trials": self.trials,
            "n_steps": self.n_steps,
            "config": self.config_echo,
            "calibration": self.calibration,
            "aggregates": self.aggregates,
            "per_trial": self.per_trial,
        }

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1))

    @classmethod
    def from_dict(cls, d: dict) -> "ComparisonReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema-version mismatch: file has {d.get('schema_version')}, expected {SCHEMA_VERSION}"
            )
        return cls(
            scenario=d["scenario"],
            seed=d["seed"],
            trials=d["trials"],
            n_steps=d["n_steps"],
            per_trial=d["per_trial"],
            aggregates=d["aggregates"],
            config_echo=d.get("config", {}),
            calibration=d.get("calibration", []),
        )

    @classmethod
    def load(cls, path: Path) -> "ComparisonReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def mean_reward(self, policy: str) -> float:
        return self.aggregates[policy]["cumulative_reward"]["mean"]


def aggregate_rows(per_trial: list[dict]) -> dict:
    out: dict = {}
    for policy in POLICY_ORDER:
        rows = [r for r in per_trial if r["policy"] == policy]
        if not rows:
            continue
        out[policy] = {}
        for metric in METRICS:
            vals = np.array([float(r[metric]) for r in rows])
            mean = float(np.mean(vals))
            # std of a set containing infinities is undefined; report nan
            std = float(np.std(vals)) if np.all(np.isfinite(vals)) else math.nan
            out[policy][metric] = {"mean": mean, "std": std}
    return out


def _rel(v: float) -> str:
    return repr(float(v))


def _steps_header() -> list[str]:
    return ["map", "trial", "policy", "t", "action", "loss", "cost", "reward", "bound"]


def _write_step_rows(writer, map_name: str, trial: int, policy: str, records) -> None:
    for r in records:
        writer.writerow(
            [map_name, trial, policy, r.t, int(r.action), _rel(r.loss_realized), _rel(r.cost_incurred), _rel(r.reward), _rel(r.bound_used)]
        )


def _summary_row(map_name: str, trial: int, policy: str, summary) -> dict:
    return {
        "map": map_name,
        "trial": trial,
        "policy": policy,
        "cumulative_reward": summary.cumulative_reward,
        "total_cost": summary.total_cost,
        "mean_loss": summary.mean_loss,
        "slow_query_fraction": summary.slow_query_fraction,
        "n_steps": summary.n_steps,
    }


class _IndexedFast:
    """Adapter giving the proxy pair's corrupted branch the input index the
    episode runner does not pass explicitly. The runner evaluates the fast
    model exactly once per step, in order."""

    def __init__(self, pair):
        self.pair = pair
        self.next_index = 0

    def __call__(self, x):
        y = self.pair.fast_output(x, self.next_index)
        self.next_index += 1
        return y


def _run_prediction_suite(cfg: ExperimentConfig, steps_writer, steps_file, per_trial: list[dict]) -> None:
    block = cfg.block
    for trial, trial_seed in enumerate(cfg.seeds):
        if cfg.scenario == "linreg":
            eps = block["epsilon"]
            pair = generate_coreset_pair(
                rng_for(trial_seed, PAIR_TAG), block["n_inputs"], block["n_outputs"], eps, bias_weight=block["bias_weight"]
            )
            n, scale = block["n_inputs"], block["input_scale"]
            inputs = InputDistribution(n, scale, seed=derive_seed(trial_seed, INPUT_TAG)).draw(cfg.n_steps)
            calib = InputDistribution(n, scale, seed=derive_seed(trial_seed, LR_CALIB_TAG)).draw(LR_CALIBRATION_INPUTS)
            k = bound_scale_lr(pair, calib)
            make_fast = lambda: pair.fast_output
            slow_model = pair.slow
            bound_fn = lambda y: k * loss_bound_lr(y, eps)
        else:
            bound = ProbabilisticBound(block["epsilon"], block["delta"], block["m_loss_cap"])
            pair = make_proxy_pair(
                rng_for(trial_seed, PAIR_TAG), block["n_inputs"], block["n_outputs"], bound,
                n_features=block["n_features"], out_center=block["out_center"], out_spread=block["out_spread"],
            )
            inputs = rng_for(trial_seed, INPUT_TAG).normal(0.0, block["input_scale"], size=(cfg.n_steps, block["n_inputs"]))
            make_fast = lambda: _IndexedFast(pair)
            slow_model = pair.slow_output
            bound_fn = lambda y: expected_loss_bound_dnn(y, bound)

        for policy_name in POLICY_ORDER:
            policy = {
                "fast": FastOnlyPolicy,
                "slow": SlowOnlyPolicy,
                "oracle": OraclePolicy,
            }.get(policy_name)
            if policy is not None:
                policy = policy()
            elif policy_name == "random":
                policy = RandomPolicy(derive_seed(trial_seed, RANDOM_TAG))
            else:
                policy = BoundThresholdPolicy(bound_fn)
            records, summary = run_episode(
                inputs, make_fast(), slow_model, policy, loss_l2, cfg.weights, cfg.costs
            )
            _write_step_rows(steps_writer, "-", trial, policy_name, records)
            per_trial.append(_summary_row("-", trial, policy_name, summary))
        steps_file.flush()


def _write_trajectory_rows(writer, map_name, trial, policy, nav) -> None:
    n_records = len(nav.records)
    for i, s in enumerate(nav.states):
        if i < n_records:
            r = nav.records[i]
            extra = [int(r.action), _rel(r.loss_realized), _rel(r.reward)]
        else:
            extra = ["", "", ""]
        writer.writerow([map_name, trial, policy, i, _rel(s.x), _rel(s.y), _rel(s.yaw), _rel(s.v)] + extra)


def _write_reach_rows(writer, map_name, trial, policy, nav) -> None:
    for step in nav.steps:
        consulted = [("fast", step.fast_result)]
        if step.slow_result is not None:
            consulted.append(("slow", step.slow_result))
        for model, result in consulted:
            for k, box in enumerate(result.boxes, start=1):
                writer.writerow(
                    [map_name, trial, policy, step.t, model, k]
                    + [_rel(v) for v in box.lo]
                    + [_rel(v) for v in box.hi]
                )


def _calibrated_maps(cfg: ExperimentConfig):
    """(scenario, calibration artifact) for each configured map, in order."""
    repeats = cfg.block["calibration_repeats"]
    for map_index, map_spec in enumerate(cfg.block["maps"]):
        scn = resolve_map(map_spec, cfg.base_dir)
        calib_seed = derive_seed(cfg.seed, CALIB_SEED_TAG, map_index)
        calib = calibrate_scenario(scn, calib_seed, repeats=repeats)
        provenance = {"seed": calib_seed, "repeats": repeats, "n_pairs": calib.n_pairs, "config_digest": cfg.digest()}
        yield scn, {"map": scn.name, "mu": calib.mu, "epsilon": calib.epsilon, "provenance": provenance}


def _run_rover_suite(
    cfg: ExperimentConfig, steps_writer, steps_file, out: Path, per_trial: list[dict], calibrations: list[dict]
) -> None:
    traj_path = out / "trajectories.csv"
    reach_path = out / "reach_sets.csv"
    with traj_path.open("w", newline="") as tf, reach_path.open("w", newline="") as rf:
        traj_writer = csv.writer(tf)
        traj_writer.writerow(["map", "trial", "policy", "t", "x", "y", "yaw", "v", "action", "loss", "reward"])
        reach_writer = csv.writer(rf)
        reach_writer.writerow(
            ["map", "trial", "policy", "t", "model", "k"]
            + [f"lo{i}" for i in range(AUG_DIM)]
            + [f"hi{i}" for i in range(AUG_DIM)]
        )
        for scn, artifact in _calibrated_maps(cfg):
            calibrations.append(artifact)
            for trial, trial_seed in enumerate(cfg.seeds):
                for policy_name in POLICY_ORDER:
                    nav = run_navigation(scn, policy_name, trial_seed, bloat_mu=artifact["mu"])
                    _write_step_rows(steps_writer, scn.name, trial, policy_name, nav.records)
                    _write_trajectory_rows(traj_writer, scn.name, trial, policy_name, nav)
                    if trial == 0:
                        _write_reach_rows(reach_writer, scn.name, trial, policy_name, nav)
                    row = _summary_row(scn.name, trial, policy_name, nav.summary)
                    row["reached_goal"] = nav.reached_goal
                    row["flagged_unsafe"] = nav.flagged_unsafe
                    per_trial.append(row)
                steps_file.flush()
    (out / "calibration.json").write_text(json.dumps(calibrations, sort_keys=True, indent=1))


def run_suite(cfg: ExperimentConfig) -> ComparisonReport:
    """Run every (policy x trial), write steps.csv / summary.json / charts,
    and return the comparison report.

    Within a trial all five policies consume identical inputs and identical
    model pairs; randomized components get their own derived sub-streams so
    the comparison is paired.
    """
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    per_trial: list[dict] = []
    calibrations: list[dict] = []
    interrupted = False
    steps_path = out / "steps.csv"
    with steps_path.open("w", newline="") as sf:
        writer = csv.writer(sf)
        writer.writerow(_steps_header())
        try:
            if cfg.scenario in ("linreg", "dnn"):
                _run_prediction_suite(cfg, writer, sf, per_trial)
            else:
                _run_rover_suite(cfg, writer, sf, out, per_trial, calibrations)
        except KeyboardInterrupt:
            # flush what completed; the partial summary is still well-formed
            interrupted = True
    echoed = ("scenario", "seed", "trials", "n_steps", "weights", "costs")
    config_echo = {k: v for k, v in cfg.config.items() if k in echoed}
    config_echo.update(block=cfg.block, digest=cfg.digest())
    if interrupted:
        config_echo["partial"] = True
    report = ComparisonReport(
        scenario=cfg.scenario,
        seed=cfg.seed,
        trials=cfg.trials,
        n_steps=cfg.n_steps,
        per_trial=per_trial,
        aggregates=aggregate_rows(per_trial),
        config_echo=config_echo,
        calibration=calibrations,
    )
    report.save(out / "summary.json")
    emit_charts(out, report, [steps_path])
    if interrupted:
        raise KeyboardInterrupt
    return report


def _reward_curves(steps_paths: list[Path]) -> dict[str, list[tuple[float, float]]]:
    """Mean cumulative reward per policy, averaged over trials (and maps)."""
    sums: dict[str, dict[int, float]] = {p: {} for p in POLICY_ORDER}
    counts: dict[str, dict[int, int]] = {p: {} for p in POLICY_ORDER}
    running: dict[tuple[str, str, str], float] = {}
    for path in steps_paths:
        with Path(path).open(newline="") as f:
            reader = csv.DictReader(f)
            for row in reader:
                key = (row["map"], row["trial"], row["policy"])
                t = int(row["t"])
                if t == 0:
                    running[key] = 0.0
                running[key] += float(row["reward"])
                policy = row["policy"]
                sums[policy][t] = sums[policy].get(t, 0.0) + running[key]
                counts[policy][t] = counts[policy].get(t, 0) + 1
    curves: dict[str, list[tuple[float, float]]] = {}
    for policy in POLICY_ORDER:
        ts = sorted(sums[policy])
        if not ts:
            continue
        stride = max(1, len(ts) // 400)
        pts = [(float(t), sums[policy][t] / counts[policy][t]) for t in ts]
        curves[policy] = pts[::stride] + ([pts[-1]] if (len(pts) - 1) % stride else [])
    return curves


def emit_charts(out: Path, report: ComparisonReport, steps_paths: list[Path]) -> None:
    """Charts derive solely from emitted CSV/JSON, so regeneration from the
    same files is byte-identical."""
    curves = _reward_curves(steps_paths)
    (out / "reward_curve.svg").write_text(
        charts.line_chart_svg(curves, f"{report.scenario}: cumulative reward", "step", "mean cumulative reward")
    )
    scatter = {
        p: [
            (float(r["total_cost"]), float(r["mean_loss"]))
            for r in report.per_trial
            if r["policy"] == p
        ]
        for p in POLICY_ORDER
    }
    (out / "cost_vs_loss.svg").write_text(
        charts.scatter_chart_svg(scatter, f"{report.scenario}: cost vs loss", "total cost", "mean loss")
    )


def calibrate(cfg: ExperimentConfig, out_path: Path | None = None) -> list[dict]:
    """Standalone calibration for rover configs; persists (mu, epsilon,
    provenance) per map."""
    if cfg.scenario != "rover":
        raise ConfigError("calibrate applies to rover configs only")
    normalize(cfg.config)  # the block may have changed since cfg was built
    artifacts = [artifact for _, artifact in _calibrated_maps(cfg)]
    if out_path is not None:
        Path(out_path).write_text(json.dumps(artifacts, sort_keys=True, indent=1))
    return artifacts


def merge_reports(paths: list[Path], out_dir: Path | None = None) -> ComparisonReport:
    """Merge summaries from several suite directories, recompute aggregates,
    and re-emit charts from the underlying CSVs."""
    if not paths:
        raise ConfigError("report needs at least one summary to merge")
    reports = []
    steps_paths = []
    for p in paths:
        p = Path(p)
        summary = p / "summary.json" if p.is_dir() else p
        if not summary.exists():
            raise ConfigError(f"summary not found: {summary}")
        reports.append(ComparisonReport.load(summary))
        candidate = summary.parent / "steps.csv"
        if candidate.exists():
            steps_paths.append(candidate)
    scenario = reports[0].scenario
    if any(r.scenario != scenario for r in reports):
        raise ConfigError("cannot merge reports from different scenarios")
    per_trial = []
    for i, r in enumerate(reports):
        for row in r.per_trial:
            merged = dict(row)
            merged["source"] = i
            per_trial.append(merged)
    merged_report = ComparisonReport(
        scenario=scenario,
        seed=reports[0].seed,
        trials=sum(r.trials for r in reports),
        n_steps=reports[0].n_steps,
        per_trial=per_trial,
        aggregates=aggregate_rows(per_trial),
        config_echo={"merged_from": [str(p) for p in paths]},
        calibration=[c for r in reports for c in r.calibration],
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        merged_report.save(out_dir / "summary.json")
        emit_charts(out_dir, merged_report, steps_paths)
    return merged_report


class CheckFailure(AssertionError):
    """A post-run acceptance assertion failed (CLI exit code 3)."""


def check_report(report: ComparisonReport) -> None:
    """Quick consistency assertions on a finished suite.

    The oracle must dominate and the selector must sit between the oracle and
    the best realizable benchmark; rover runs additionally require the
    selector to stay unflagged and reach the goal.
    """
    agg = report.aggregates
    ours = agg["our_selector"]["cumulative_reward"]["mean"]
    oracle = agg["oracle"]["cumulative_reward"]["mean"]
    bench = {p: agg[p]["cumulative_reward"]["mean"] for p in ("fast", "slow", "random")}
    if not oracle >= ours:
        raise CheckFailure(f"oracle mean reward {oracle} < selector {ours}")
    for name, value in bench.items():
        if not ours >= value:
            raise CheckFailure(f"selector mean reward {ours} < {name} {value}")
    if report.scenario == "rover":
        for row in report.per_trial:
            if row["policy"] == "our_selector":
                if row.get("flagged_unsafe"):
                    raise CheckFailure(f"selector flagged unsafe on {row['map']} trial {row['trial']}")
                if not row.get("reached_goal"):
                    raise CheckFailure(f"selector missed the goal on {row['map']} trial {row['trial']}")
