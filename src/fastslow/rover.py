"""Simulated rover navigation: nonlinear kinematic bicycle ground truth,
per-step linearization with multiplicative yaw-row uncertainty, spline
reference tracking with finite-horizon LQ control, and per-step safety
assessment: one rollout per map, one fast and one slow reachability
evaluation per trial, and the shared policies deciding over it.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .policy import (
    CostSchedule,
    EpisodeLog,
    EpisodeSummary,
    EvaluatedStream,
    RewardWeights,
    StepRecord,
    score_episode,
    summarize,
)
from .reach import (
    IntervalMatrix,
    ReachResult,
    StatReachConfig,
    UnsafeSet,
    bloat,
    calibrate_bloat,
    CalibrationResult,
    loss_nav,
    reach_sampled,
)
from .schema import ConfigError, checked, merge
from .seeding import ROVER_CALIB_TAG, role_rng, rng_for
from .spline import ReferencePath, cubic_spline_plan

AUG_DIM = 6  # (x, y, yaw, v) plus the two planned controls


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


@dataclass(frozen=True)
class RoverState:
    x: float
    y: float
    yaw: float
    v: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.yaw, self.v])


@dataclass(frozen=True)
class RoverControl:
    accel: float
    steer: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.accel, self.steer])


@dataclass(frozen=True)
class RoverParams:
    wheelbase: float = 2.0
    dt: float = 0.1
    v_max: float = 2.0
    steer_max: float = 0.6
    accel_max: float = 1.0
    yaw_uncertainty: float = 0.05

    def __post_init__(self) -> None:
        for name in ("wheelbase", "dt", "v_max", "steer_max", "accel_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.yaw_uncertainty < 1:
            raise ValueError("yaw_uncertainty must lie in [0, 1)")


def bicycle_step(s: RoverState, u: RoverControl, p: RoverParams) -> RoverState:
    """One Euler step of the kinematic bicycle, with clamped controls,
    speed clamped to [0, v_max], and yaw normalization."""
    steer = _clamp(u.steer, -p.steer_max, p.steer_max)
    accel = _clamp(u.accel, -p.accel_max, p.accel_max)
    return RoverState(
        x=s.x + s.v * math.cos(s.yaw) * p.dt,
        y=s.y + s.v * math.sin(s.yaw) * p.dt,
        yaw=wrap_angle(s.yaw + s.v / p.wheelbase * math.tan(steer) * p.dt),
        v=_clamp(s.v + accel * p.dt, 0.0, p.v_max),
    )


def linearize(s: RoverState, u: RoverControl, p: RoverParams) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Jacobians (A, B) of the bicycle step at (s, u), away from the
    clamping boundaries."""
    dt, L = p.dt, p.wheelbase
    cos_y, sin_y = math.cos(s.yaw), math.sin(s.yaw)
    cos_st = math.cos(u.steer)
    A = np.array(
        [
            [1.0, 0.0, -s.v * sin_y * dt, cos_y * dt],
            [0.0, 1.0, s.v * cos_y * dt, sin_y * dt],
            [0.0, 0.0, 1.0, math.tan(u.steer) / L * dt],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    B = np.array(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, s.v * dt / (L * cos_st * cos_st)],
            [dt, 0.0],
        ]
    )
    return A, B


def build_uncertain_dynamics(A: np.ndarray, B: np.ndarray, eta: float, perturb_rows: tuple[int, ...]) -> IntervalMatrix:
    """Augmented one-step matrix over (state, control) with multiplicative
    uncertainty on the given rows (the scenarios' default is the yaw row).

    Block form [[A, B], [0, I]]: the control enters as extra coordinates held
    fixed over the assessment horizon, so the matrix serves any horizon. Every
    entry a of a perturbed row becomes the interval between a*(1-eta) and
    a*(1+eta), which keeps the order right for negative entries and leaves
    zeros zero-width.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    nx, nu = B.shape
    m = np.zeros((nx + nu, nx + nu))
    m[:nx, :nx] = A
    m[:nx, nx:] = B
    m[nx:, nx:] = np.eye(nu)
    lo, hi = m.copy(), m.copy()
    for r in perturb_rows:
        lo[r] = np.minimum(m[r] * (1.0 - eta), m[r] * (1.0 + eta))
        hi[r] = np.maximum(m[r] * (1.0 - eta), m[r] * (1.0 + eta))
    return IntervalMatrix(lo, hi)


DEFAULT_Q = np.diag([1.0, 1.0, 0.5, 0.5])
DEFAULT_R = np.diag([0.01, 0.01])
DEFAULT_MPC_HORIZON = 5


@dataclass(frozen=True)
class TrackingProblem:
    """Time-varying linearization of the tracking task around the reference."""

    A_seq: list[np.ndarray]
    B_seq: list[np.ndarray]
    drift_seq: list[np.ndarray]
    e0: np.ndarray
    nominal_controls: list[RoverControl]


def _state_error(s: RoverState, ref: RoverState) -> np.ndarray:
    return np.array([s.x - ref.x, s.y - ref.y, wrap_angle(s.yaw - ref.yaw), s.v - ref.v])


def build_tracking_problem(
    ref: ReferencePath,
    s: RoverState,
    horizon: int,
    p: RoverParams,
    v_ref: float,
) -> TrackingProblem:
    """Reference states at arc offsets v_ref * dt, curvature-feedforward
    nominal steering, and the error dynamics e+ = A e + B du + drift."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(ref.s) == 0:
        raise ValueError("empty reference")
    s0 = ref.project(s.x, s.y)
    ref_states: list[RoverState] = []
    curvatures: list[float] = []
    for k in range(horizon + 1):
        rx, ry, ryaw, kappa = ref.state_at(s0 + k * v_ref * p.dt)
        ref_states.append(RoverState(rx, ry, ryaw, v_ref))
        curvatures.append(kappa)
    nominal_controls = [
        RoverControl(0.0, _clamp(math.atan(p.wheelbase * curvatures[k]), -p.steer_max, p.steer_max))
        for k in range(horizon)
    ]
    A_seq, B_seq, drift_seq = [], [], []
    for k in range(horizon):
        A, B = linearize(ref_states[k], nominal_controls[k], p)
        predicted = bicycle_step(ref_states[k], nominal_controls[k], p)
        drift_seq.append(_state_error(predicted, ref_states[k + 1]))
        A_seq.append(A)
        B_seq.append(B)
    e0 = _state_error(s, ref_states[0])
    return TrackingProblem(A_seq, B_seq, drift_seq, e0, nominal_controls)


def tracking_cost(problem: TrackingProblem, deltas: list[np.ndarray], Q: np.ndarray, R: np.ndarray) -> float:
    """Quadratic tracking cost of a control-perturbation sequence on the
    linearized model (the objective the controller minimizes)."""
    e = problem.e0
    total = 0.0
    for A, B, d, du in zip(problem.A_seq, problem.B_seq, problem.drift_seq, deltas):
        total += float(e @ Q @ e + du @ R @ du)
        e = A @ e + B @ du + d
    total += float(e @ Q @ e)
    return total


def mpc_track(
    ref: ReferencePath,
    s: RoverState,
    horizon: int,
    p: RoverParams,
    v_ref: float = 1.0,
    Q: np.ndarray | None = None,
    R: np.ndarray | None = None,
) -> list[RoverControl]:
    """Finite-horizon LQ tracking via the backward Riccati recursion.

    The affine drift (the spline reference is not exactly dynamically
    feasible) is folded in by augmenting the error state with a constant
    coordinate. Returned controls are nominal + correction, clamped to the
    actuator bounds.
    """
    Q = DEFAULT_Q if Q is None else np.asarray(Q, dtype=float)
    R = DEFAULT_R if R is None else np.asarray(R, dtype=float)
    prob = build_tracking_problem(ref, s, horizon, p, v_ref)
    nx = 4
    Qa = np.zeros((nx + 1, nx + 1))
    Qa[:nx, :nx] = Q
    P = Qa.copy()
    corner = np.eye(1, nx + 1, nx)
    Aa_seq = [np.vstack([np.column_stack([A, d]), corner]) for A, d in zip(prob.A_seq, prob.drift_seq)]
    Ba_seq = [np.vstack([B, np.zeros((1, 2))]) for B in prob.B_seq]
    gains: list[np.ndarray] = [np.zeros((2, nx + 1))] * horizon
    for k in reversed(range(horizon)):
        Aa, Ba = Aa_seq[k], Ba_seq[k]
        F = R + Ba.T @ P @ Ba
        K = np.linalg.solve(F, Ba.T @ P @ Aa)
        gains[k] = K
        P = Qa + Aa.T @ P @ (Aa - Ba @ K)
    controls: list[RoverControl] = []
    z = np.concatenate([prob.e0, [1.0]])
    for k in range(horizon):
        du = -gains[k] @ z
        u_nom = prob.nominal_controls[k]
        controls.append(
            RoverControl(
                _clamp(u_nom.accel + du[0], -p.accel_max, p.accel_max),
                _clamp(u_nom.steer + du[1], -p.steer_max, p.steer_max),
            )
        )
        z = Aa_seq[k] @ z + Ba_seq[k] @ du
    return controls


@dataclass(frozen=True)
class RoverScenario:
    """Everything one navigation episode needs."""

    name: str
    waypoints: np.ndarray
    obstacles: UnsafeSet
    initial_state: RoverState
    goal_tolerance: float
    reach_horizon: int
    fast_cfg: StatReachConfig
    slow_cfg: StatReachConfig
    weights: RewardWeights
    costs: CostSchedule
    params: RoverParams = RoverParams()
    cruise_speed: float = 1.0
    mpc_horizon: int = DEFAULT_MPC_HORIZON
    plan_ds: float = 0.1
    step_cap: int = 2000
    perturb_rows: tuple[int, ...] = (2,)

    def __post_init__(self) -> None:
        # Errors name the scenario field first, as in the map JSON.
        for name in ("goal_tolerance", "cruise_speed", "plan_ds"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name}: must be positive, got {getattr(self, name)!r}")
        for name in ("reach_horizon", "mpc_horizon", "step_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)!r}")
        if any(not 0 <= r < AUG_DIM for r in self.perturb_rows):
            rows = list(self.perturb_rows)
            raise ConfigError(f"perturb_rows: rows of the augmented dynamics are 0..{AUG_DIM - 1}, got {rows}")
        if not self.slow_cfg.confidence > self.fast_cfg.confidence:
            raise ConfigError("slow_reach.confidence: the slow routine must carry the higher confidence")
        try:  # the reference is planned here, so a map that cannot be planned fails on load
            wp = np.asarray(self.waypoints, dtype=float)
            object.__setattr__(self, "_reference", cubic_spline_plan(wp, self.plan_ds))
        except ValueError as exc:
            raise ConfigError(f"waypoints: {exc}") from exc
        object.__setattr__(self, "waypoints", wp)
        if math.hypot(self.initial_state.x - wp[-1][0], self.initial_state.y - wp[-1][1]) <= self.goal_tolerance:
            raise ConfigError("initial_state: already within goal_tolerance of the last waypoint; no step to assess")
        if self.slow_cfg.type1_error > self.fast_cfg.type1_error:
            warnings.warn("slow reachability allows a larger type-I error than fast", stacklevel=2)
        if not self.slow_cfg.cost > self.fast_cfg.cost:
            warnings.warn("slow reachability is not the expensive one", stacklevel=2)

    def reference(self) -> ReferencePath:
        return self._reference

    def goal(self) -> np.ndarray:
        return self.waypoints[-1]


@dataclass(frozen=True, eq=False)
class RolloutStep:
    """One decision point: the state, the first planned control (executed
    unless the episode stops here), and the uncertain augmented dynamics and
    (state, control) start point that the reachability routines assess."""

    state: RoverState
    control: RoverControl
    dynamics: IntervalMatrix
    start: np.ndarray


@dataclass(frozen=True, eq=False)
class Rollout:
    """The scenario driven with no safety checks. The path does not depend on
    the policy until an episode stops, so one rollout per map serves the
    calibration and every episode on the map."""

    steps: list[RolloutStep]
    end_state: RoverState  # after the last step: at the goal or at the step cap
    reached_goal: bool


def nominal_rollout(scn: RoverScenario) -> Rollout:
    """Per step until the goal or the step cap: plan mpc_horizon controls,
    linearize at the first, build the uncertain augmented dynamics that hold
    it over reach_horizon steps, and execute it."""
    ref = scn.reference()
    state = scn.initial_state
    goal = scn.goal()
    steps: list[RolloutStep] = []
    for _ in range(scn.step_cap):
        if math.hypot(state.x - goal[0], state.y - goal[1]) <= scn.goal_tolerance:
            return Rollout(steps, state, True)
        controls = mpc_track(ref, state, scn.mpc_horizon, scn.params, scn.cruise_speed)
        u0 = controls[0]
        A, B = linearize(state, u0, scn.params)
        lam = build_uncertain_dynamics(A, B, scn.params.yaw_uncertainty, scn.perturb_rows)
        steps.append(RolloutStep(state, u0, lam, np.concatenate([state.as_vector(), u0.as_vector()])))
        state = bicycle_step(state, u0, scn.params)
    return Rollout(steps, state, False)


@dataclass(frozen=True, eq=False)
class NavEvaluation:
    """One trial's reachability along a rollout: per step the fast and the
    slow result, and as a stream the verdicts (0 safe, inf unsafe) of the
    bloated fast sets and of the slow sets."""

    scenario: RoverScenario
    rollout: Rollout
    fast: list[ReachResult]
    slow: list[ReachResult]
    stream: EvaluatedStream


def evaluate_navigation(scn: RoverScenario, rollout: Rollout, seed: int, bloat_mu: float = 0.0) -> NavEvaluation:
    """Run both reachability routines at every rollout step, with randomness
    keyed by (seed, step, role), up to the first step that both verdicts call
    unsafe: every policy has stopped by then."""
    fast, slow, loss_fast, loss_slow = [], [], [], []
    for t, step in enumerate(rollout.steps):
        fast.append(reach_sampled(step.dynamics, step.start, scn.fast_cfg, role_rng(seed, t, "fast")))
        slow.append(reach_sampled(step.dynamics, step.start, scn.slow_cfg, role_rng(seed, t, "slow")))
        loss_fast.append(loss_nav(bloat(fast[-1], bloat_mu), scn.obstacles))
        loss_slow.append(loss_nav(slow[-1], scn.obstacles))
        if loss_fast[-1] == loss_slow[-1] == math.inf:
            break
    verdict = np.array(loss_fast, dtype=float)
    return NavEvaluation(scn, rollout, fast, slow, EvaluatedStream(verdict, verdict, np.array(loss_slow, dtype=float)))


@dataclass
class NavigationResult:
    states: list[RoverState]
    records: EpisodeLog  # one row per decision
    summary: EpisodeSummary
    reached_goal: bool
    flagged_unsafe: bool
    hit_step_cap: bool

    @property
    def steps(self) -> list[StepRecord]:
        """The decisions row by row."""
        return list(self.records)

    def trajectory(self) -> np.ndarray:
        return np.array([s.as_vector() for s in self.states])


def run_navigation(evaluation: NavEvaluation, policy) -> NavigationResult:
    """Drive the rover along the rollout under one selection policy.

    The policy decides every evaluated step and the realized loss is the
    verdict of the routine it consulted. A safe verdict lets the first
    planned control execute; the first unsafe one triggers a full stop at
    maximum deceleration and flags the episode.
    """
    scn, rollout, stream = evaluation.scenario, evaluation.rollout, evaluation.stream
    log = score_episode(stream, *policy.decide(stream, scn.weights, scn.costs), scn.weights, scn.costs)
    stops = np.flatnonzero(log.loss == math.inf)
    flagged = stops.size > 0
    n = int(stops[0]) + 1 if flagged else len(log)
    log = EpisodeLog(*(col[:n] for col in log.columns()))
    states = [step.state for step in rollout.steps[:n]]
    if flagged:
        # Full stop: maximum deceleration, wheels straight.
        brake = RoverControl(-scn.params.accel_max, 0.0)
        state = states[-1]
        while state.v > 0.0:
            state = bicycle_step(state, brake, scn.params)
            states.append(state)
    else:
        states.append(rollout.end_state)
    reached = rollout.reached_goal and not flagged
    return NavigationResult(states, log, summarize(log), reached, flagged, not reached and not flagged)


def calibrate_scenario(scn: RoverScenario, rollout: Rollout, seed: int, repeats: int = 2) -> CalibrationResult:
    """Paired fast/slow reachability along the rollout; returns the minimum
    bloat radius that makes every slow set fit."""
    pairs = []
    for i, step in enumerate(rollout.steps):
        for r in range(repeats):
            fast = reach_sampled(step.dynamics, step.start, scn.fast_cfg, rng_for(seed, ROVER_CALIB_TAG, i, r, 0))
            slow = reach_sampled(step.dynamics, step.start, scn.slow_cfg, rng_for(seed, ROVER_CALIB_TAG, i, r, 1))
            pairs.append((fast, slow))
    return calibrate_bloat(pairs)


def obstacles_from_points(points: np.ndarray, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid-bin scattered (x, y) points into occupied cells, returned as the
    (k, 2) lower and upper bounds of the cells in np.unique order.

    Lets externally derived terrain (for example elevation-thresholded point
    clouds) feed the obstacle map.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    if cell_size <= 0:
        raise ValueError("cell size must be positive")
    cells = np.unique(np.floor(points / cell_size).astype(int), axis=0)
    return cells * cell_size, (cells + 1) * cell_size


def load_points_csv(path: str | Path) -> np.ndarray:
    """Read x,y rows, tolerating a single header line."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# Scenario JSON fields and their defaults; the values of the required fields
# only fix their types.
MAP_DEFAULTS = {
    "name": "rover",
    "waypoints": [[0.0]],
    "obstacles": [],
    "points_csv": "",
    "cell_size": 0.0,
    "initial_state": {"x": 0.0, "y": 0.0, "yaw": 0.0, "v": 0.0},
    "goal_tolerance": 0.5,
    "reach_horizon": 5,
    "fast_reach": {"confidence": 0.0, "type1_error": 0.0},
    "slow_reach": {"confidence": 0.0, "type1_error": 0.0},
    "weights": {"alpha": 0.7, "beta": 0.3},
    # A negative cost stands for one proportional to the routine's sample count.
    "costs": {"c_fast": -1.0, "c_slow": -1.0},
    "params": asdict(RoverParams()),
    "cruise_speed": RoverScenario.cruise_speed,
    "mpc_horizon": RoverScenario.mpc_horizon,
    "plan_ds": RoverScenario.plan_ds,
    "step_cap": RoverScenario.step_cap,
    "perturb_rows": list(RoverScenario.perturb_rows),
}
_OBSTACLE = {"lo": [0.0], "hi": [0.0]}


def _obstacle(lo: list, hi: list) -> tuple[np.ndarray, np.ndarray]:
    """One inline (x, y) obstacle's (1, 2) bounds, checked as a map of one obstacle."""
    one = UnsafeSet(np.array([lo], dtype=float), np.array([hi], dtype=float), (0, 1))
    return one.lo, one.hi


def scenario_from_dict(d: dict, base_dir: Path | None = None) -> RoverScenario:
    """Build a scenario from its JSON document, merged over MAP_DEFAULTS."""
    d = merge(MAP_DEFAULTS, d, required=("waypoints", "fast_reach", "slow_reach"))
    fast_cfg, slow_cfg = (
        checked(
            role, StatReachConfig, d[role], {"horizon": "reach_horizon"},
            dim=AUG_DIM, horizon=d["reach_horizon"], cost=d["costs"][cost],
        )
        for role, cost in (("fast_reach", "c_fast"), ("slow_reach", "c_slow"))
    )
    parts = [(np.empty((0, 2)), np.empty((0, 2)))]  # a free map has no rows
    parts += [
        checked(f"obstacles[{i}]", _obstacle, merge(_OBSTACLE, o, f"obstacles[{i}]", ("lo", "hi")))
        for i, o in enumerate(d["obstacles"])
    ]
    if d["points_csv"]:
        if not d["cell_size"] > 0:
            raise ConfigError(f"cell_size: must be positive to bin points_csv, got {d['cell_size']!r}")
        csv_path = Path(d["points_csv"])
        if base_dir is not None and not csv_path.is_absolute():
            csv_path = base_dir / csv_path
        if not csv_path.exists():
            raise ConfigError(f"points_csv: file not found: {csv_path}")
        try:
            parts.append(obstacles_from_points(load_points_csv(csv_path), d["cell_size"]))
        except ValueError as exc:
            raise ConfigError(f"points_csv: {exc}") from exc
    lo, hi = (np.concatenate(side) for side in zip(*parts))
    return RoverScenario(
        obstacles=UnsafeSet(lo, hi, (0, 1)),
        initial_state=RoverState(**d["initial_state"]),
        fast_cfg=fast_cfg,
        slow_cfg=slow_cfg,
        weights=checked("weights", RewardWeights, d["weights"]),
        costs=CostSchedule(fast_cfg.cost, slow_cfg.cost),
        params=checked("params", RoverParams, d["params"]),
        perturb_rows=tuple(d["perturb_rows"]),
        **{k: d[k] for k in ("name", "waypoints", "goal_tolerance", "reach_horizon")},
        **{k: d[k] for k in ("cruise_speed", "mpc_horizon", "plan_ds", "step_cap")},
    )


def load_scenario(path: str | Path) -> RoverScenario:
    path = Path(path)
    return scenario_from_dict(json.loads(path.read_text()), base_dir=path.parent)
