"""One config schema: merge, validation and digest of suite configs and maps."""
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fastslow.cli import main
from fastslow.harness import DEFAULTS, SCENARIOS, ConfigError, config_from_dict, normalize, run_suite
from fastslow.rover import scenario_from_dict

REQUIRED = {"linreg": ("weights", "costs"), "dnn": ("weights", "costs"), "rover": ()}
MINI_MAP = {
    "name": "mini",
    "waypoints": [[0.0, 0.0], [6.0, 0.0]],
    "fast_reach": {"confidence": 0.6, "type1_error": 0.3},
    "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
}


def _run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _cli_with_config(doc, command: str, *extra: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        return _run_cli([command, "--config", str(path), "--out", str(Path(tmp) / "out"), *extra])


def _assert_config_error(rc: int, err: str, field: str) -> None:
    assert rc == 2, err
    assert err.startswith("config error: ") and field in err, err
    assert "Traceback" not in err


def _defaults(scenario: str, **changes) -> dict:
    doc = copy.deepcopy(DEFAULTS[scenario])
    doc.update(changes)
    return doc


def _paths(d: dict, prefix=()):
    """Every key path of a nested dict, outer keys before inner ones."""
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _parent(doc: dict, path: tuple) -> dict:
    for key in path[:-1]:
        doc = doc[key]
    return doc


# -- regressions: each exited without naming the field, or did not exit -----


def test_partial_block_merges_over_the_defaults():
    cfg = config_from_dict(_defaults("linreg", linreg={"n_inputs": 3}))
    assert cfg.block == dict(DEFAULTS["linreg"]["linreg"], n_inputs=3)


def test_wrong_type_in_a_block_names_the_dotted_field():
    rc, err = _cli_with_config(_defaults("linreg", linreg={"n_inputs": "2"}), "linreg")
    _assert_config_error(rc, err, "linreg.n_inputs")


def test_misspelled_top_level_field_is_rejected():
    rc, err = _cli_with_config(_defaults("linreg", trails=5), "linreg")
    _assert_config_error(rc, err, "trails")


def test_map_with_wrong_params_type_names_the_field(tmp_path):
    map_path = tmp_path / "bad_map.json"
    map_path.write_text(json.dumps(dict(MINI_MAP, params=[1])))
    rc, err = _cli_with_config(_defaults("rover", rover={"maps": [str(map_path)]}), "rover")
    _assert_config_error(rc, err, "params")


def test_map_params_out_of_range_names_the_dotted_field(tmp_path):
    map_path = tmp_path / "bad_map.json"
    map_path.write_text(json.dumps(dict(MINI_MAP, params={"dt": 0})))
    rc, err = _cli_with_config(_defaults("rover", rover={"maps": [str(map_path)]}), "rover")
    _assert_config_error(rc, err, "params.dt")


@pytest.mark.parametrize(
    "change, field",
    [
        # each ended in a traceback, or ran without moving
        ({"perturb_rows": [9]}, "perturb_rows"),
        ({"mpc_horizon": 0}, "mpc_horizon"),
        ({"plan_ds": 0}, "plan_ds"),
        ({"step_cap": 0}, "step_cap"),
        ({"waypoints": [[0.0, 0.0, 0.0], [6.0, 0.0, 1.0]]}, "waypoints"),
        ({"waypoints": [[0.0, 0.0], [0.0, 0.0], [6.0, 0.0]]}, "waypoints"),
        ({"cruise_speed": 0}, "cruise_speed"),
        # each exited 2 without naming the field
        ({"reach_horizon": 0}, "reach_horizon"),
        ({"fast_reach": {"confidence": 1.5, "type1_error": 0.3}}, "fast_reach.confidence"),
        ({"slow_reach": {"confidence": 0.85, "type1_error": 0.0}}, "slow_reach.type1_error"),
        ({"goal_tolerance": 0}, "goal_tolerance"),
        ({"obstacles": [{"lo": [1.0, 1.0], "hi": [1.5, 1.5]}, {"lo": [3.0, 1.0], "hi": [2.0, 2.0]}]}, "obstacles[1]"),
        ({"obstacles": [{"lo": [3.0, 1.0, 0.0], "hi": [4.0, 2.0, 1.0]}]}, "obstacles[0]"),
        ({"weights": {"alpha": 0, "beta": 0.3}}, "weights.alpha"),
        # exited 2 without naming the field
        ({"points_csv": "cloud.csv", "cell_size": 0}, "cell_size"),
        # exited 1 with "calibration set is empty": the rollout had no step
        ({"initial_state": {"x": 5.8, "y": 0.1, "yaw": 0.0, "v": 0.0}}, "initial_state"),
        # each exited 2 without naming the field
        ({"points_csv": "xyz.csv", "cell_size": 0.5}, "points_csv"),
        ({"points_csv": "x.csv", "cell_size": 0.5}, "points_csv"),
        ({"points_csv": "words.csv", "cell_size": 0.5}, "points_csv"),
    ],
)
def test_map_values_out_of_range_name_the_field(tmp_path, change, field):
    (tmp_path / "cloud.csv").write_text("x,y\n1.1,1.2\n")
    (tmp_path / "xyz.csv").write_text("x,y,z\n1.1,1.2,0.3\n")
    (tmp_path / "x.csv").write_text("x\n1.1\n")
    (tmp_path / "words.csv").write_text("x,y\n1.1,1.2\nfoo,1.0\n")
    map_path = tmp_path / "bad_map.json"
    map_path.write_text(json.dumps(dict(MINI_MAP, **change)))
    rc, err = _cli_with_config(_defaults("rover", rover={"maps": [str(map_path)]}), "rover")
    _assert_config_error(rc, err, f"{field}: ")


def test_mpc_horizon_shorter_than_the_reach_horizon_runs(tmp_path):
    # The reach model holds the first control over its own horizon, so the
    # two horizons are independent; this map ended in a traceback.
    map_path = tmp_path / "short_mpc.json"
    map_path.write_text(json.dumps(dict(MINI_MAP, mpc_horizon=3, reach_horizon=5)))
    rc, err = _cli_with_config(_defaults("rover", rover={"maps": [str(map_path)]}), "rover", "--trials", "1", "--check")
    assert rc == 0, err


def test_empty_map_list_is_rejected():
    rc, err = _cli_with_config(_defaults("rover", rover={"maps": []}), "rover")
    _assert_config_error(rc, err, "rover.maps")


def test_rover_rejects_a_step_count():
    _assert_config_error(*_run_cli(["rover", "--steps", "5"]), "n_steps")


# -- merge rules -------------------------------------------------------------


def test_seed_or_trials_override_drops_explicit_seeds():
    raw = _defaults("linreg", trials=2, seeds=[1, 2])
    assert normalize(raw)["seeds"] == [1, 2]
    assert normalize(raw, {"n_steps": 7})["seeds"] == [1, 2]
    assert normalize(raw, {"seed": 5})["seeds"] == normalize(_defaults("linreg", trials=2, seed=5))["seeds"]
    assert len(normalize(raw, {"trials": 3})["seeds"]) == 3


def test_prediction_suites_require_every_weight_and_cost():
    doc = _defaults("dnn")
    del doc["costs"]["c_slow"]
    with pytest.raises(ConfigError, match=r"^costs\.c_slow: missing required field"):
        config_from_dict(doc)


def test_map_fields_are_checked_and_required():
    with pytest.raises(ConfigError, match="goal_tolerence: unknown field"):
        scenario_from_dict(dict(MINI_MAP, goal_tolerence=0.5))
    with pytest.raises(ConfigError, match=r"obstacles\[0\]\.hi: missing required field"):
        scenario_from_dict(dict(MINI_MAP, obstacles=[{"lo": [1.0, 1.0]}]))
    with pytest.raises(ConfigError, match="fast_reach.type1_error: missing required field"):
        scenario_from_dict(dict(MINI_MAP, fast_reach={"confidence": 0.6}))
    with pytest.raises(ConfigError, match="waypoints: missing required field"):
        scenario_from_dict({k: v for k, v in MINI_MAP.items() if k != "waypoints"})


# -- digest ----------------------------------------------------------------


def test_summary_digest_covers_beta(tmp_path):
    digests = []
    for beta in (0.003, 0.5):
        doc = _defaults("linreg", trials=1, n_steps=10, weights={"alpha": 1.0, "beta": beta})
        run_suite(config_from_dict(doc, out_dir=tmp_path / str(beta)))
        digests.append(json.loads((tmp_path / str(beta) / "summary.json").read_text())["config"]["digest"])
    assert digests[0] != digests[1]


def test_digest_ignores_the_output_directory(tmp_path):
    a = config_from_dict(DEFAULTS["dnn"], out_dir=tmp_path / "a")
    b = config_from_dict(DEFAULTS["dnn"], out_dir=tmp_path / "b")
    assert a.digest() == b.digest()


def _changed(value, step):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise AssertionError(f"unexpected leaf {value!r}")
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, float):
        # A small step keeps ranged fields such as epsilon < 1 valid.
        return value + step / 16
    return value + step


@pytest.mark.filterwarnings("ignore:c_slow <= c_fast")
@settings(deadline=None, max_examples=150)
@given(st.sampled_from(SCENARIOS), st.data())
def test_every_leaf_field_changes_the_digest(scenario, data):
    base = normalize(DEFAULTS[scenario])
    del base["out_dir"]
    fixed = {("scenario",), ("n_steps",)} if scenario == "rover" else {("scenario",)}
    leaves = [p for p in _paths(base) if p not in fixed and not isinstance(_parent(base, p)[p[-1]], dict)]
    path = data.draw(st.sampled_from(leaves))
    doc = copy.deepcopy(base)
    parent, key = _parent(doc, path), path[-1]
    if path == ("trials",):
        del doc["seeds"]
    step = data.draw(st.sampled_from([1, 2, 7]))
    if isinstance(parent[key], list):
        i = data.draw(st.integers(0, len(parent[key]) - 1))
        parent[key][i] = _changed(parent[key][i], step)
    else:
        parent[key] = _changed(parent[key], step)
    assert config_from_dict(doc).digest() != config_from_dict(base).digest(), path


# -- bad configs end in exit 2 with the field named, never in a traceback -----

_WRONG = {
    dict: [[1], "x", 3],
    list: ["x", {"a": 1}, 2.0],
    str: [1, None, ["x"]],
    int: ["1", 1.5, True, None, -1],
    float: ["x", True, None, [1.0]],
}


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SCENARIOS), st.sampled_from(["misspell", "drop", "retype"]), st.data())
def test_bad_configs_exit_2_naming_the_field(scenario, mutation, data):
    doc = copy.deepcopy(DEFAULTS[scenario])
    if mutation == "drop":
        droppable = [p for p in _paths(doc) if p == ("scenario",) or p[0] in REQUIRED[scenario]]
        path = data.draw(st.sampled_from(droppable))
        del _parent(doc, path)[path[-1]]
        field = ".".join(path)
    else:
        path = data.draw(st.sampled_from(list(_paths(doc))))
        parent, key = _parent(doc, path), path[-1]
        if mutation == "misspell":
            typo = key + data.draw(st.text(alphabet="qxz", min_size=1, max_size=3))
            parent[typo] = parent.pop(key)
            field = "scenario" if path == ("scenario",) else ".".join(path[:-1] + (typo,))
        else:
            parent[key] = data.draw(st.sampled_from(_WRONG[type(parent[key])]))
            field = ".".join(path)
    _assert_config_error(*_cli_with_config(doc, scenario), field)


@pytest.mark.parametrize(
    "scenario, field, value",
    [
        ("linreg", "epsilon", 1.5),
        ("linreg", "input_scale", 0.0),
        ("dnn", "delta", 1.5),
        ("dnn", "epsilon", 0.0),
        ("dnn", "m_loss_cap", 0.0),
        ("dnn", "out_spread", 2.0),
        ("dnn", "input_scale", -1.0),
        ("dnn", "n_outputs", 0),
        ("linreg", "n_inputs", 0),
        ("linreg", "n_outputs", 0),
        ("dnn", "n_inputs", 0),
        ("dnn", "n_features", 0),
        # a dotted field lives outside the scenario block
        ("linreg", "weights.beta", -1.0),
        ("linreg", "costs.c_fast", -1.0),
        ("dnn", "weights.alpha", 0.0),
        ("dnn", "costs.c_slow", -1.0),
    ],
)
def test_out_of_range_block_values_exit_2_naming_the_field(scenario, field, value):
    doc = _defaults(scenario)
    block, _, key = field.rpartition(".")
    name = field if block else f"{scenario}.{field}"
    block = block or scenario
    doc[block] = dict(doc[block], **{key: value})
    _assert_config_error(*_cli_with_config(doc, scenario), f"{name}: ")
