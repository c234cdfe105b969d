"""Span recorder for the traced benchmark run.

The library is not modified. Instead, every call that crosses a module
boundary is wrapped at the name its caller looks up: ``rover`` calls
``reach_sampled`` through ``fastslow.rover.reach_sampled``, ``harness`` calls
``run_episode`` through ``fastslow.harness.run_episode``, and model objects
are called through their class attributes. Each wrapped call records one
span (function, parent span, start, end) in flat arrays that stay in memory
until the run ends. A span belongs to the layer named after the module that
defines the function; its self time is its duration minus the time its
child spans cover.

Counts that need the call's arguments or result (samples drawn, decisions
made, slow results consulted) are taken by hooks at the same boundaries. A
hook runs inside its own ``trace.hook`` span, so its cost is charged to no
layer.
"""
from __future__ import annotations

import array
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("policy", "linreg", "dnnproxy", "seeding", "reach", "rover", "spline", "harness", "charts")

# Names that a module's own code (or another module, through the module
# object) looks up as a module attribute, and that the metrics need as spans.
MODULE_ATTRIBUTES = (
    ("harness", "run_suite"),
    ("harness", "emit_charts"),
    ("rover", "mpc_track"),
    ("rover", "nominal_rollout"),
    ("seeding", "rng_for"),  # role_rng looks it up here
    ("charts", "line_chart_svg"),  # harness calls charts.<name>
    ("charts", "scatter_chart_svg"),
)

# Methods of model objects that another module calls.
METHODS = (
    ("linreg", "LinearModel", "__call__"),
    ("linreg", "CoresetPair", "fast_output"),
    ("linreg", "InputDistribution", "draw"),
    ("dnnproxy", "ProxyPair", "fast_with_branch"),
    ("dnnproxy", "ProxyPair", "fast_output"),
    ("dnnproxy", "ProxyPair", "slow_output"),
    ("spline", "ReferencePath", "project"),
    ("spline", "ReferencePath", "state_at"),
)

# The slow model of each prediction scenario, as the episode runner calls it.
SLOW_MODELS = ("linreg.LinearModel.__call__", "dnnproxy.ProxyPair.slow_output")

# Per-layer metrics with their units. Every `_s` metric is self time.
LAYER_METRICS = (
    ("policy.episodes", "count"),
    ("policy.self_s", "s"),
    ("policy.step_us", "us"),
    ("policy.slow_evals", "count"),
    ("policy.slow_useful_ratio", "ratio"),
    ("linreg.model_calls", "count"),
    ("linreg.model_s", "s"),
    ("linreg.bound_s", "s"),
    ("linreg.loss_calls", "count"),
    ("linreg.loss_s", "s"),
    ("dnnproxy.fast_calls", "count"),
    ("dnnproxy.fast_self_s", "s"),
    ("dnnproxy.slow_calls", "count"),
    ("dnnproxy.slow_s", "s"),
    ("dnnproxy.bound_s", "s"),
    ("seeding.rng_calls", "count"),
    ("seeding.rng_s", "s"),
    ("reach.fast_calls", "count"),
    ("reach.slow_calls", "count"),
    ("reach.samples", "count"),
    ("reach.sampled_s", "s"),
    ("reach.ns_per_sample_step", "ns"),
    ("reach.nav_slow_useful_ratio", "ratio"),
    ("reach.loss_nav_s", "s"),
    ("reach.calibrate_bloat_s", "s"),
    ("rover.decisions", "count"),
    ("rover.nav_self_s", "s"),
    ("rover.mpc_calls", "count"),
    ("rover.mpc_s", "s"),
    ("rover.mpc_per_decision", "calls/decision"),
    ("rover.calibration_s", "s"),
    ("rover.rollout_s", "s"),
    ("spline.plan_calls", "count"),
    ("spline.plan_s", "s"),
    ("spline.lookup_s", "s"),
    ("harness.self_s", "s"),
    ("harness.charts_s", "s"),
    ("harness.step_rows", "count"),
    ("charts.svg_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)

_HOOK = "trace.hook"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans of wrapped fastslow calls; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._fid: dict[str, int] = {}
        self.start = array.array("q")
        self.end = array.array("q")
        self.func = array.array("i")
        self.parent = array.array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.reach_roles: dict = {}
        self.invoke_slow = None  # fastslow.policy.Action.INVOKE_SLOW, set by install()
        self._hook_fid = self._intern(_HOOK)

    def _intern(self, name: str) -> int:
        if name not in self._fid:
            self._fid[name] = len(self.names)
            self.names.append(name)
        return self._fid[name]

    def wrap(self, fn, name: str, hook=None):
        fid = self._intern(name)
        hook_fid = self._hook_fid
        start, end, func, parent, stack = self.start, self.end, self.func, self.parent, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                j = len(start)
                func.append(hook_fid)
                parent.append(stack[-1])
                end.append(0)
                start.append(clock())
                hook(args, result)
                end[j] = clock()
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether a span of `name` is open (an ancestor of the current call)."""
        fid = self._fid.get(name)
        return any(self.func[i] == fid for i in self.stack[1:])

    # -- hooks: counts taken from arguments and results at the boundary ----

    def _on_episode(self, args, result) -> None:
        records, _ = result
        self.counts["policy.steps"] += len(records)
        self.counts["policy.charged_slow"] += sum(1 for r in records if r.action == self.invoke_slow)

    def _on_navigation(self, args, nav) -> None:
        self.counts["rover.decisions"] += len(nav.records)
        self.counts["reach.nav_slow_consulted"] += sum(1 for s in nav.steps if s.action == self.invoke_slow)

    def _on_scenario(self, args, scn) -> None:
        self.reach_roles[scn.fast_cfg] = "fast"
        self.reach_roles[scn.slow_cfg] = "slow"

    def _on_reach(self, args, result) -> None:
        cfg = args[2]
        role = self.reach_roles.get(cfg, "other")
        self.counts[f"reach.{role}_calls"] += 1
        self.counts["reach.samples"] += cfg.n_samples
        self.counts["reach.sample_steps"] += cfg.n_samples * cfg.horizon
        if role == "slow" and self.inside("rover.run_navigation"):
            self.counts["reach.nav_slow_computed"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every cross-module function binding in the fastslow layers,
        plus MODULE_ATTRIBUTES and METHODS."""
        modules = {layer: importlib.import_module(f"fastslow.{layer}") for layer in LAYERS}
        self.invoke_slow = modules["policy"].Action.INVOKE_SLOW
        hooks = {
            "policy.run_episode": self._on_episode,
            "rover.run_navigation": self._on_navigation,
            "rover.load_scenario": self._on_scenario,
            "reach.reach_sampled": self._on_reach,
        }
        bindings = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                owner = getattr(obj, "__module__", "") or ""
                if inspect.isfunction(obj) and owner.startswith("fastslow.") and owner != module.__name__:
                    bindings.append((module, attr, obj, f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"))
        for layer, attr in MODULE_ATTRIBUTES:
            module = modules[layer]
            bindings.append((module, attr, getattr(module, attr), f"{layer}.{attr}"))
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            bindings.append((cls, attr, cls.__dict__[attr], f"{layer}.{cls_name}.{attr}"))
        for target, attr, fn, name in bindings:
            setattr(target, attr, self.wrap(fn, name, hooks.get(name)))

    # -- metrics -------------------------------------------------------------

    def metrics(self, suite_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far. `suite_s` is the
        traced wall time of run_suite, measured around the call."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        func = np.frombuffer(self.func, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (end - start).astype(float) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        n_funcs = len(self.names)
        calls_by = np.bincount(func, minlength=n_funcs)
        self_by = np.bincount(func, weights=self_time, minlength=n_funcs)

        def calls(*names: str) -> int:
            return int(sum(calls_by[self._fid[x]] for x in names if x in self._fid))

        def self_s(*names: str) -> float:
            return float(sum(self_by[self._fid[x]] for x in names if x in self._fid))

        layer_self = {layer: 0.0 for layer in LAYERS}
        for fid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += float(self_by[fid])

        episode_fid = self._fid.get("policy.run_episode", -1)
        slow_fids = [self._fid[x] for x in SLOW_MODELS if x in self._fid]
        under_episode = has_parent & (func[np.maximum(parent, 0)] == episode_fid)
        slow_evals = int(np.count_nonzero(under_episode & np.isin(func, slow_fids)))

        c = self.counts
        policy_self = layer_self["policy"]
        reach_self = self_s("reach.reach_sampled")
        mpc_calls = calls("rover.mpc_track")
        return {
            "policy.episodes": calls("policy.run_episode"),
            "policy.self_s": policy_self,
            "policy.step_us": _ratio(policy_self * 1e6, c["policy.steps"]),
            "policy.slow_evals": slow_evals,
            "policy.slow_useful_ratio": _ratio(c["policy.charged_slow"], slow_evals),
            "linreg.model_calls": calls("linreg.LinearModel.__call__", "linreg.CoresetPair.fast_output"),
            "linreg.model_s": self_s("linreg.LinearModel.__call__", "linreg.CoresetPair.fast_output"),
            "linreg.bound_s": self_s("linreg.loss_bound_lr"),
            "linreg.loss_calls": calls("linreg.loss_l2"),
            "linreg.loss_s": self_s("linreg.loss_l2"),
            "dnnproxy.fast_calls": calls("dnnproxy.ProxyPair.fast_with_branch"),
            "dnnproxy.fast_self_s": self_s("dnnproxy.ProxyPair.fast_with_branch", "dnnproxy.ProxyPair.fast_output"),
            "dnnproxy.slow_calls": calls("dnnproxy.ProxyPair.slow_output"),
            "dnnproxy.slow_s": self_s("dnnproxy.ProxyPair.slow_output"),
            "dnnproxy.bound_s": self_s("dnnproxy.expected_loss_bound_dnn"),
            "seeding.rng_calls": calls("seeding.rng_for"),
            "seeding.rng_s": layer_self["seeding"],
            "reach.fast_calls": c["reach.fast_calls"],
            "reach.slow_calls": c["reach.slow_calls"],
            "reach.samples": c["reach.samples"],
            "reach.sampled_s": reach_self,
            "reach.ns_per_sample_step": _ratio(reach_self * 1e9, c["reach.sample_steps"]),
            "reach.nav_slow_useful_ratio": _ratio(c["reach.nav_slow_consulted"], c["reach.nav_slow_computed"]),
            "reach.loss_nav_s": self_s("reach.loss_nav"),
            "reach.calibrate_bloat_s": self_s("reach.calibrate_bloat"),
            "rover.decisions": c["rover.decisions"],
            "rover.nav_self_s": self_s("rover.run_navigation"),
            "rover.mpc_calls": mpc_calls,
            "rover.mpc_s": self_s("rover.mpc_track"),
            "rover.mpc_per_decision": _ratio(mpc_calls, c["rover.decisions"]),
            "rover.calibration_s": self_s("rover.calibrate_scenario"),
            "rover.rollout_s": self_s("rover.nominal_rollout"),
            "spline.plan_calls": calls("spline.cubic_spline_plan"),
            "spline.plan_s": self_s("spline.cubic_spline_plan"),
            "spline.lookup_s": self_s("spline.ReferencePath.project", "spline.ReferencePath.state_at"),
            "harness.self_s": layer_self["harness"] - self_s("harness.emit_charts"),
            "harness.charts_s": self_s("harness.emit_charts"),
            "charts.svg_s": layer_self["charts"],
            "trace.uncovered_s": suite_s - sum(layer_self.values()),
        }
