"""Cost-aware selection between fast and slow compute models."""
from .policy import (
    Action,
    BoundThresholdPolicy,
    CostSchedule,
    EpisodeLog,
    EpisodeSummary,
    EvaluatedStream,
    FastOnlyPolicy,
    OraclePolicy,
    RandomPolicy,
    RewardWeights,
    SlowOnlyPolicy,
    StepRecord,
    decision_threshold,
    evaluate_stream,
    run_episode,
    score_episode,
    select_generic,
    step_cost,
    step_reward,
    summarize,
)
from .linreg import (
    CoresetPair,
    InputDistribution,
    LinearModel,
    generate_coreset_pair,
    loss_bound_lr,
    loss_l2,
    select_lr,
)
from .dnnproxy import (
    ProbabilisticBound,
    ProxyPair,
    expected_loss_bound_dnn,
    make_proxy_pair,
    select_dnn,
)
from .reach import (
    CalibrationResult,
    IntervalMatrix,
    ReachResult,
    StatReachConfig,
    UnsafeSet,
    bloat,
    calibrate_bloat,
    example_interval_matrix,
    loss_nav,
    reach_sampled,
    required_samples,
    sample_matrix,
    select_rs,
    step_box,
)
from .rover import (
    NavigationResult,
    RoverControl,
    RoverParams,
    RoverScenario,
    RoverState,
    bicycle_step,
    build_uncertain_dynamics,
    calibrate_scenario,
    evaluate_navigation,
    linearize,
    load_scenario,
    mpc_track,
    nominal_rollout,
    run_navigation,
)
from .spline import ReferencePath, cubic_spline_plan

__version__ = "0.1.0"
