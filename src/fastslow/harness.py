"""Experiment harness: configuration, the three suites (linreg, dnn, rover),
five-policy comparison with paired streams, aggregation over trials, and
CSV/JSON/SVG emission.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import statistics
import warnings
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import charts
from .dnnproxy import ProbabilisticBound, expected_loss_bound_dnn, make_proxy_pair
from .linreg import InputDistribution, generate_coreset_pair, loss_bound_lr, loss_l2
from .policy import (
    Action,
    BoundThresholdPolicy,
    CostSchedule,
    EpisodeLog,
    FastOnlyPolicy,
    OraclePolicy,
    RandomPolicy,
    RewardWeights,
    SlowOnlyPolicy,
    bound_scale,
    evaluate_stream,
    run_episode,
)
from .rover import (
    AUG_DIM, RoverScenario, calibrate_scenario, evaluate_navigation, load_scenario, nominal_rollout, run_navigation,
)
from .schema import ConfigError, checked, merge
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
    if scenario != "rover":  # the value ranges live in the model constructors
        checked(
            scenario, lambda **block: _prediction_trial(scenario, block, cfg["seeds"][0], 0),
            cfg[scenario], {"scale": f"{scenario}.input_scale"},
        )
    elif cfg["n_steps"] != 0:
        raise ConfigError("n_steps: the rover suite takes no step count; episodes run to the goal or the map's step_cap")
    elif not cfg["rover"]["maps"]:
        raise ConfigError("rover.maps: calibration set is empty: no maps configured")
    elif cfg["rover"]["calibration_repeats"] < 1:
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
        weights, costs = checked("weights", RewardWeights, cfg["weights"]), checked("costs", CostSchedule, cfg["costs"])
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
        d = dataclasses.asdict(self)
        d["config"] = d.pop("config_echo")
        return d

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1))

    @classmethod
    def from_dict(cls, d: dict) -> "ComparisonReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema-version mismatch: file has {d.get('schema_version')}, expected {SCHEMA_VERSION}"
            )
        fields = ("scenario", "seed", "trials", "n_steps", "per_trial", "aggregates")
        return cls(**{k: d[k] for k in fields}, config_echo=d.get("config", {}), calibration=d.get("calibration", []))

    @classmethod
    def load(cls, path: Path) -> "ComparisonReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def mean_reward(self, policy: str) -> float:
        return self.aggregates[policy]["cumulative_reward"]["mean"]


def aggregate_rows(per_trial: list[dict]) -> dict:
    """Per policy and metric, the mean over trials, exact and rounded once, and
    the population std about it; the std of a set with infinities is JSON null."""
    out: dict = {}
    for policy in POLICY_ORDER:
        rows = [r for r in per_trial if r["policy"] == policy]
        if not rows:
            continue
        out[policy] = {}
        for metric in METRICS:
            vals = [float(r[metric]) for r in rows]
            mean = statistics.mean(vals)  # identical values give themselves and std 0
            sq_dev = math.fsum((v - mean) * (v - mean) for v in vals)
            out[policy][metric] = {"mean": mean, "std": math.sqrt(sq_dev / len(vals)) if math.isfinite(mean) else None}
    return out


STEPS_HEADER = ("map", "trial", "policy", "t", "action", "loss", "cost", "reward", "bound")


def _csv_key(*fields) -> str:
    """The leading fields of a row as csv.writer writes them, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[:-2]


def _write_rows(f, key: str, columns) -> None:
    """Append one CSV row per entry of the columns, each led by `key`. Values
    are written as str() of their Python values (floats as their repr), the
    bytes csv.writer writes for ints, floats and plain strings."""
    row = key.replace("%", "%%") + ",%s" * len(columns) + "\r\n"
    f.write("".join([row % values for values in zip(*columns)]))


def _write_steps(f, map_name: str, trial: int, policy: str, log: EpisodeLog) -> None:
    """Append one episode to steps.csv, column by column."""
    _write_rows(f, _csv_key(map_name, trial, policy), [col.tolist() for col in log.columns()])


def _summary_row(map_name: str, trial: int, policy: str, summary) -> dict:
    return dict(map=map_name, trial=trial, policy=policy, **dataclasses.asdict(summary))


def _prediction_trial(scenario: str, block: dict, trial_seed: int, n_steps: int):
    """One trial's model pair and inputs, evaluated once with the selector's
    bound; linreg scales its bound by bound_scale of held-out inputs."""
    if scenario == "linreg":
        eps, n, scale = block["epsilon"], block["n_inputs"], block["input_scale"]
        pair = generate_coreset_pair(
            rng_for(trial_seed, PAIR_TAG), n, block["n_outputs"], eps, bias_weight=block["bias_weight"]
        )
        inputs = InputDistribution(n, scale, seed=derive_seed(trial_seed, INPUT_TAG)).draw(n_steps)
        calib = InputDistribution(n, scale, seed=derive_seed(trial_seed, LR_CALIB_TAG)).draw(LR_CALIBRATION_INPUTS)
        k = bound_scale(evaluate_stream(calib, pair.fast_output, pair.slow, loss_l2, partial(loss_bound_lr, epsilon=eps)))
        return evaluate_stream(inputs, pair.fast_output, pair.slow, loss_l2, lambda y: k * loss_bound_lr(y, eps))
    bound = ProbabilisticBound(block["epsilon"], block["delta"], block["m_loss_cap"])
    pair = make_proxy_pair(
        rng_for(trial_seed, PAIR_TAG), block["n_inputs"], block["n_outputs"], bound,
        n_features=block["n_features"], out_center=block["out_center"], out_spread=block["out_spread"],
    )
    inputs = rng_for(trial_seed, INPUT_TAG).normal(0.0, block["input_scale"], size=(n_steps, block["n_inputs"]))
    fast = partial(pair.fast_output, index=0)
    return evaluate_stream(inputs, fast, pair.slow_output, loss_l2, partial(expected_loss_bound_dnn, bound=bound))


def _policies(trial_seed: int) -> tuple:
    """The five policies of one trial, in POLICY_ORDER."""
    return (
        FastOnlyPolicy(), SlowOnlyPolicy(), RandomPolicy(derive_seed(trial_seed, RANDOM_TAG)),
        BoundThresholdPolicy(), OraclePolicy(),
    )


def _run_prediction_suite(cfg: ExperimentConfig, steps_file, curves: RewardCurves, per_trial: list[dict]) -> None:
    for trial, trial_seed in enumerate(cfg.seeds):
        stream = _prediction_trial(cfg.scenario, cfg.block, trial_seed, cfg.n_steps)
        for policy in _policies(trial_seed):
            log, summary = run_episode(stream, policy, cfg.weights, cfg.costs)
            _write_steps(steps_file, "-", trial, policy.name, log)
            curves.add(policy.name, log.reward)
            per_trial.append(_summary_row("-", trial, policy.name, summary))
        steps_file.flush()


def _write_trajectory_rows(f, map_name, trial, policy, nav) -> None:
    """Every state of the episode; the decision columns stay empty after the last decision."""
    log = nav.records
    pad = [""] * (len(nav.states) - len(log))
    decisions = [col.tolist() + pad for col in (log.action, log.loss, log.reward)]
    _write_rows(f, _csv_key(map_name, trial, policy), [range(len(nav.states)), *nav.trajectory().T.tolist(), *decisions])


def _write_reach_rows(f, map_name, trial, policy, evaluation, nav) -> None:
    """The fast boxes of every decision and the slow boxes where the action was slow."""
    key = _csv_key(map_name, trial, policy)
    for t, action in enumerate(nav.records.action.tolist()):
        results = [("fast", evaluation.fast[t])]
        if action == Action.INVOKE_SLOW:
            results.append(("slow", evaluation.slow[t]))
        for model, result in results:
            columns = [range(1, result.horizon + 1), *result.lo.T.tolist(), *result.hi.T.tolist()]
            _write_rows(f, f"{key},{t},{model}", columns)


def _calibrated_maps(cfg: ExperimentConfig):
    """(scenario, rollout, calibration artifact) for each configured map, in order."""
    repeats = cfg.block["calibration_repeats"]
    for map_index, map_spec in enumerate(cfg.block["maps"]):
        scn = resolve_map(map_spec, cfg.base_dir)
        rollout = nominal_rollout(scn)
        calib_seed = derive_seed(cfg.seed, CALIB_SEED_TAG, map_index)
        calib = calibrate_scenario(scn, rollout, calib_seed, repeats=repeats)
        provenance = {"seed": calib_seed, "repeats": repeats, "n_pairs": calib.n_pairs, "config_digest": cfg.digest()}
        yield scn, rollout, {"map": scn.name, "mu": calib.mu, "epsilon": calib.epsilon, "provenance": provenance}


def _run_rover_suite(
    cfg: ExperimentConfig, steps_file, curves: RewardCurves, out: Path, per_trial: list[dict], calibrations: list[dict]
) -> None:
    traj_path = out / "trajectories.csv"
    reach_path = out / "reach_sets.csv"
    with traj_path.open("w", newline="") as tf, reach_path.open("w", newline="") as rf:
        tf.write("map,trial,policy,t,x,y,yaw,v,action,loss,reward\r\n")
        rf.write(",".join(
            ["map", "trial", "policy", "t", "model", "k"] + [f"{side}{i}" for side in ("lo", "hi") for i in range(AUG_DIM)]
        ) + "\r\n")
        for scn, rollout, artifact in _calibrated_maps(cfg):
            calibrations.append(artifact)
            for trial, trial_seed in enumerate(cfg.seeds):
                evaluation = evaluate_navigation(scn, rollout, trial_seed, artifact["mu"])
                for policy in _policies(trial_seed):
                    nav = run_navigation(evaluation, policy)
                    _write_steps(steps_file, scn.name, trial, policy.name, nav.records)
                    curves.add(policy.name, nav.records.reward)
                    _write_trajectory_rows(tf, scn.name, trial, policy.name, nav)
                    if trial == 0:
                        _write_reach_rows(rf, scn.name, trial, policy.name, evaluation, nav)
                    row = _summary_row(scn.name, trial, policy.name, nav.summary)
                    per_trial.append(dict(row, reached_goal=nav.reached_goal, flagged_unsafe=nav.flagged_unsafe))
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
    curves = RewardCurves()
    interrupted = False
    with (out / "steps.csv").open("w", newline="") as sf:
        sf.write(",".join(STEPS_HEADER) + "\r\n")
        try:
            if cfg.scenario in ("linreg", "dnn"):
                _run_prediction_suite(cfg, sf, curves, per_trial)
            else:
                _run_rover_suite(cfg, sf, curves, out, per_trial, calibrations)
        except KeyboardInterrupt:
            # flush what completed; the partial summary is still well-formed
            interrupted = True
    echoed = ("scenario", "seed", "trials", "n_steps", "weights", "costs")
    config_echo = {k: v for k, v in cfg.config.items() if k in echoed}
    config_echo.update(block=cfg.block, digest=cfg.digest())
    if interrupted:
        config_echo["partial"] = True
    report = ComparisonReport(
        cfg.scenario, cfg.seed, cfg.trials, cfg.n_steps, per_trial, aggregate_rows(per_trial), config_echo, calibrations
    )
    report.save(out / "summary.json")
    emit_charts(out, report, curves)
    if interrupted:
        raise KeyboardInterrupt
    return report


def _episode_rewards(path: Path):
    """(policy, reward column) of each episode in a steps.csv, in file order.
    Only one episode is held at a time."""
    with Path(path).open(newline="") as f:
        rows = csv.reader(f)
        col = {name: i for i, name in enumerate(next(rows, STEPS_HEADER))}
        key = [col["map"], col["trial"], col["policy"]]
        reward = col["reward"]
        for (_, _, policy), episode in itertools.groupby(rows, lambda row: [row[i] for i in key]):
            yield policy, np.array([float(row[reward]) for row in episode])


class RewardCurves:
    """The reward-curve chart's data: per policy, the cumulative reward summed
    over episodes at each step, and the episode lengths that give how many
    episodes reach each step. It takes one episode's reward column at a
    time, from memory in run_suite or read back from steps.csv in
    merge_reports; steps.csv holds every reward at full precision, so both
    give the same bits."""

    def __init__(self) -> None:
        self.sums = {p: np.zeros(0) for p in POLICY_ORDER}
        self.lengths: dict[str, list[int]] = {p: [] for p in POLICY_ORDER}

    def add(self, policy: str, rewards: np.ndarray) -> None:
        n = len(rewards)
        if n > len(self.sums[policy]):
            self.sums[policy] = np.pad(self.sums[policy], (0, n - len(self.sums[policy])))
        self.sums[policy][:n] += np.cumsum(rewards)
        self.lengths[policy].append(n)

    def read(self, steps_path: Path) -> None:
        for policy, rewards in _episode_rewards(steps_path):
            self.add(policy, rewards)

    def points(self) -> dict[str, list[tuple[float, float]]]:
        """Mean cumulative reward per policy and step, averaged over the
        episodes (trials and maps) that reach the step, at most about 400
        points per policy."""
        curves: dict[str, list[tuple[float, float]]] = {}
        for policy in POLICY_ORDER:
            episodes = np.zeros(len(self.sums[policy]))
            for length in self.lengths[policy]:
                episodes[:length] += 1
            n = len(episodes)
            if n == 0:
                continue
            stride = max(1, n // 400)
            steps = list(range(0, n, stride)) + ([n - 1] if (n - 1) % stride else [])
            means = (self.sums[policy][steps] / episodes[steps]).tolist()
            curves[policy] = [(float(t), m) for t, m in zip(steps, means)]
        return curves


def emit_charts(out: Path, report: ComparisonReport, curves: RewardCurves) -> None:
    """Charts computed from the values written to the CSV and JSON outputs, so
    regenerating them from those files is byte-identical."""
    (out / "reward_curve.svg").write_text(
        charts.line_chart_svg(curves.points(), f"{report.scenario}: cumulative reward", "step", "mean cumulative reward")
    )
    rows = report.per_trial
    scatter = {p: [(float(r["total_cost"]), float(r["mean_loss"])) for r in rows if r["policy"] == p] for p in POLICY_ORDER}
    (out / "cost_vs_loss.svg").write_text(
        charts.scatter_chart_svg(scatter, f"{report.scenario}: cost vs loss", "total cost", "mean loss")
    )


def calibrate(cfg: ExperimentConfig, out_path: Path | None = None) -> list[dict]:
    """Standalone calibration for rover configs; persists (mu, epsilon,
    provenance) per map."""
    if cfg.scenario != "rover":
        raise ConfigError("calibrate applies to rover configs only")
    artifacts = [artifact for _, _, artifact in _calibrated_maps(cfg)]
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
    digests = [r.config_echo.get("digest") for r in reports]
    if len(set(digests)) > 1:
        distinct = ", ".join(map(str, dict.fromkeys(digests)))
        warnings.warn(f"merging summaries of different configs (digests {distinct}); the aggregates pool them", stacklevel=2)
    per_trial = [dict(row, source=i) for i, r in enumerate(reports) for row in r.per_trial]
    merged_report = ComparisonReport(
        scenario=scenario,
        seed=reports[0].seed,
        trials=sum(r.trials for r in reports),
        n_steps=reports[0].n_steps,
        per_trial=per_trial,
        aggregates=aggregate_rows(per_trial),
        config_echo={"merged_from": [str(p) for p in paths], "digests": digests},
        calibration=[c for r in reports for c in r.calibration],
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        merged_report.save(out_dir / "summary.json")
        curves = RewardCurves()
        for path in steps_paths:
            curves.read(path)
        emit_charts(out_dir, merged_report, curves)
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
