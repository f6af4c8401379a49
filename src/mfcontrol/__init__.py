"""Weak-solution mean-field control on a single reference ensemble.

Controlled McKean-Vlasov dynamics are represented by Girsanov reweightings of
one driftless simulation: measure flows are weight columns, payoffs are
weighted averages, optimization is Hamiltonian minimization inside a backward
regression solve, and every comparison between controls happens on common
paths.  Nothing is ever resimulated for a new control.
"""

__version__ = "0.1.0"

from .core import (
    EnsembleMismatchError,
    PathEnsemble,
    TimeGrid,
    ensemble_moments,
    member_map,
    sample_brownian,
    simulate_for_scenario,
)
from .scenario import (
    ActionGrid,
    AssumptionStatus,
    ConfigError,
    CostSpec,
    DiffusionSpec,
    DriftSpec,
    Scenario,
    SingularDiffusionError,
    StatisticSpec,
    StateTermSpec,
    TerminalSpec,
    UnknownScenarioError,
    ValidationBlockedError,
    ValidationReport,
    assert_runnable,
    builtin_config,
    builtin_scenarios,
    get_builtin,
    parse_scenario,
    validate_scenario,
)
from .measure import (
    MeasureFlow,
    TVEstimate,
    hellinger_bound,
    hellinger_pairs,
    mean_stderr,
    reference_flow,
    tv_marginal,
    tv_marginals,
    tv_pathspace,
    weighted_statistic,
)
from .girsanov import (
    ContractionReport,
    DriftEvaluator,
    FixpointConvergenceError,
    FixpointDiagnostics,
    FixpointResult,
    contraction_report,
    density_process,
    fixpoint_measure_flow,
)
from .bsde import (
    BasisSpec,
    BsdeSolution,
    build_features,
    regress_conditional,
    solve_driver_bsde,
    solve_linear_family,
    stat_series,
    terminal_values,
)
from .control import (
    BsdeFeedbackControl,
    Control,
    OptimizationReport,
    PayoffResult,
    constant_control,
    envelope_bsde,
    evaluate_payoff,
    hamiltonian,
    minimized_hamiltonian,
    parametric_control,
    parse_control,
    policy_iteration,
    table_control,
)
from .game import (
    EnvelopeValues,
    IsaacsError,
    IsaacsReport,
    PairFeedbackControl,
    SaddleCheckReport,
    SaddleReport,
    envelopes,
    isaacs_gap,
    solve_game,
    verify_saddle,
)
from .verify import AcceptanceContext, CheckResult, run_battery

__all__ = [
    "__version__",
    # core
    "EnsembleMismatchError", "PathEnsemble", "TimeGrid", "ensemble_moments", "member_map",
    "sample_brownian", "simulate_for_scenario",
    # scenario registry
    "ActionGrid", "AssumptionStatus", "ConfigError", "CostSpec",
    "DiffusionSpec", "DriftSpec", "Scenario",
    "SingularDiffusionError", "StatisticSpec",
    "StateTermSpec", "TerminalSpec", "UnknownScenarioError",
    "ValidationBlockedError", "ValidationReport", "assert_runnable",
    "builtin_config", "builtin_scenarios", "get_builtin", "parse_scenario",
    "validate_scenario",
    # measures
    "MeasureFlow", "TVEstimate", "hellinger_bound",
    "hellinger_pairs", "mean_stderr", "reference_flow", "tv_marginal", "tv_marginals",
    "tv_pathspace",
    "weighted_statistic",
    # densities and fixed points
    "ContractionReport", "DriftEvaluator", "FixpointConvergenceError",
    "FixpointDiagnostics", "FixpointResult", "contraction_report",
    "density_process", "fixpoint_measure_flow",
    # backward solver
    "BasisSpec", "BsdeSolution", "build_features",
    "regress_conditional", "solve_driver_bsde", "solve_linear_family",
    "stat_series", "terminal_values",
    # control
    "BsdeFeedbackControl", "Control", "OptimizationReport", "PayoffResult",
    "constant_control", "envelope_bsde", "evaluate_payoff", "hamiltonian",
    "minimized_hamiltonian", "parametric_control",
    "parse_control", "policy_iteration", "table_control",
    # games
    "EnvelopeValues", "IsaacsError", "IsaacsReport", "PairFeedbackControl",
    "SaddleCheckReport", "SaddleReport", "envelopes", "isaacs_gap",
    "solve_game", "verify_saddle",
    # acceptance battery and CLI
    "AcceptanceContext", "CheckResult", "run_battery", "main",
]


def __getattr__(name: str):
    # main is imported on first use, so that `python -m mfcontrol.cli` does not
    # find the CLI module already imported by the package
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
