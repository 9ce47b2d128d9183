"""Bang-bang Lyapunov control of a driven two-level system.

Exact propagators, switching-time analysis, regime classification, the
slow-switching fidelity limit, and a hybrid free-evolution/single-shot
policy that steers any reachable state exactly to the target.
"""

from .control import (
    EPS_SWITCH,
    ControlDecision,
    InfeasibleError,
    Regime,
    RegimeError,
    bang_field,
    classify_regime,
    exact_steering_strength,
    fsc_gain_coefficient,
    segment_duration,
    select_field,
    ssc_fidelity_bound,
)
from .engine import OracleRun, Policy, Sample, Segment, SimConfig, Trajectory, run, run_oracle
from .extended import (
    next_action,
    plan_single_shot,
    reachable_by_single_control,
    required_phase,
)
from .propagator import (
    Unitary2,
    controlled_unitary,
    default_oracle_step,
    evolve,
    free_unitary,
    oracle_integrate,
)
from .scenario import Scenario, ScenarioError, parse_scenario
from .states import (
    BlochAngles,
    DegenerateStateError,
    FieldBoundError,
    PureState,
    SystemParams,
    fidelity,
    from_bloch,
    lyapunov,
    polar_angle,
    switching_function,
    to_bloch,
)
from .sweeps import (
    SweepGrid,
    SweepResult,
    fidelity_vs_strength,
    phase_alignment_table,
    sweep_first_segment,
    sweep_ssc_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "BlochAngles",
    "ControlDecision",
    "DegenerateStateError",
    "EPS_SWITCH",
    "FieldBoundError",
    "InfeasibleError",
    "OracleRun",
    "Policy",
    "PureState",
    "Regime",
    "RegimeError",
    "Sample",
    "Scenario",
    "ScenarioError",
    "Segment",
    "SimConfig",
    "SweepGrid",
    "SweepResult",
    "SystemParams",
    "Trajectory",
    "Unitary2",
    "bang_field",
    "classify_regime",
    "controlled_unitary",
    "default_oracle_step",
    "evolve",
    "exact_steering_strength",
    "fidelity",
    "fidelity_vs_strength",
    "free_unitary",
    "from_bloch",
    "fsc_gain_coefficient",
    "lyapunov",
    "next_action",
    "oracle_integrate",
    "parse_scenario",
    "phase_alignment_table",
    "plan_single_shot",
    "polar_angle",
    "reachable_by_single_control",
    "required_phase",
    "run",
    "run_oracle",
    "segment_duration",
    "select_field",
    "ssc_fidelity_bound",
    "sweep_first_segment",
    "sweep_ssc_fidelity",
    "switching_function",
    "to_bloch",
]
