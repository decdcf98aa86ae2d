"""hodsim: deterministic simulator of WLAN handover decision stability.

Utility-scored access point selection with pluggable stability strategies
(hysteresis margin, fixed and randomized waiting time), a Random Way Point
mobility model, knowledge diffusion between AP agents, and an experiment
harness producing handover-rate / score-rate sweeps.
"""

from .decision import (
    CombinedScore,
    Decision,
    best_candidate,
    decide,
    normalize_criterion,
    score_network,
    utility,
)
from .engine import EventLog, events_csv, run_simulation
from .knowledge import known
from .metrics import (
    RunMetrics,
    SweepReport,
    SweepRow,
    confidence_interval,
    ho_rate,
    run_metrics,
    score_rate,
    sweep,
    sweep_csv,
)
from .mobility import MobilityState, init_mobility, step_mobility
from .radio import QosVector, ap_qos, apply_jitter, sensed_aps
from .scenario import (
    ApProfile,
    DecisionCriterion,
    ScenarioConfig,
    ScenarioError,
    StabilityStrategy,
    UserProfile,
    default_document,
    default_scenario,
    load_scenario,
    serialize,
    validate,
    with_strategy,
)

__version__ = "0.1.0"
