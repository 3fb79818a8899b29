"""Willed distortion of choice distributions, its realization as directed
quantum-measurement collapse, and statistical detection of the resulting
deviations from squared-amplitude sampling statistics."""

from .agents import AgentProfile, agent_unpredictability, archetype, choose
from .collapse import (
    AmplitudeState,
    CollapseOutcome,
    PovmSet,
    build_povm,
    check_completeness,
    collapse,
    collapse_many,
    outcome_distribution,
    prepare_state,
)
from .detect import (
    TestReport,
    TrialCounts,
    apply_noise,
    chebyshev_bound,
    chi_squared_test,
    detection_power,
    lln_concentration,
    simulate_trials,
)
from .distributions import (
    CERTAINTY_INCREASING,
    STATIONARY,
    UNCERTAINTY_INCREASING,
    ChoiceSpace,
    ProbabilityVector,
    classify_regime,
    entropy_gradient,
    exercise_will,
    kl_divergence,
    make_distribution,
    total_variation,
    uniform_distribution,
    unpredictability,
)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AgentProfile",
    "AmplitudeState",
    "CERTAINTY_INCREASING",
    "ChoiceSpace",
    "CollapseOutcome",
    "PovmSet",
    "ProbabilityVector",
    "STATIONARY",
    "TestReport",
    "TrialCounts",
    "UNCERTAINTY_INCREASING",
    "agent_unpredictability",
    "apply_noise",
    "archetype",
    "build_povm",
    "chebyshev_bound",
    "check_completeness",
    "chi_squared_test",
    "choose",
    "classify_regime",
    "collapse",
    "collapse_many",
    "derive_seed",
    "detection_power",
    "entropy_gradient",
    "exercise_will",
    "kl_divergence",
    "lln_concentration",
    "make_distribution",
    "outcome_distribution",
    "prepare_state",
    "simulate_trials",
    "total_variation",
    "uniform_distribution",
    "unpredictability",
]
