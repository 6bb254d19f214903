"""Simulator and online scheduler for pipeline-parallel training over
heterogeneous wireless edge clusters.

The package evaluates closed-form latency/energy/contraction models for
block-partitioned encoder training inside device clusters, and runs a
Lyapunov drift-plus-penalty scheduler (block partition, micro-batch count,
channel matching, uplink power control) against baseline policies.
"""

from .comm import NOT_TRANSMITTING, ChannelAssignment, d2d_delay
from .config import (
    ClusterProfile,
    ConvergenceParams,
    DeviceProfile,
    Interval,
    ModelSpec,
    RoundEnvironment,
    SystemConfig,
    build_config,
    db_to_linear,
    load_config,
    sample_round_environment,
)
from .convergence import (
    RunningGapBound,
    interference_error,
    optimality_gap_bound,
    sigma,
    sigma_positive_eta_threshold,
)
from .decision import SchedulingDecision, validate_decision
from .errors import (
    ConfigError,
    InfeasibleError,
    OracleGuardError,
    SimulationAborted,
    StalledLinkError,
)
from .lyapunov import (
    drift_penalty,
    queue_update,
    round_delay,
)
from .orchestrator import (
    POLICIES,
    RoundMetrics,
    TraceLog,
    baseline_decision,
    optimize_round,
    run_simulation,
)
from .pipeline import (
    SegmentPlan,
    event_sim_makespan,
    micro_batch_size,
    pipeline_latency,
)
from .res_solver import allocate_resources, channel_assignment, power_control
from .seg_solver import optimal_micro_batches, optimal_partition, schedule_segments

__version__ = "0.1.0"

__all__ = [
    "ChannelAssignment",
    "ClusterProfile",
    "ConfigError",
    "ConvergenceParams",
    "DeviceProfile",
    "InfeasibleError",
    "Interval",
    "ModelSpec",
    "NOT_TRANSMITTING",
    "OracleGuardError",
    "POLICIES",
    "RoundEnvironment",
    "RoundMetrics",
    "RunningGapBound",
    "SchedulingDecision",
    "SegmentPlan",
    "SimulationAborted",
    "StalledLinkError",
    "SystemConfig",
    "TraceLog",
    "allocate_resources",
    "baseline_decision",
    "build_config",
    "channel_assignment",
    "d2d_delay",
    "db_to_linear",
    "drift_penalty",
    "event_sim_makespan",
    "interference_error",
    "load_config",
    "micro_batch_size",
    "optimality_gap_bound",
    "optimal_micro_batches",
    "optimal_partition",
    "optimize_round",
    "pipeline_latency",
    "power_control",
    "queue_update",
    "round_delay",
    "run_simulation",
    "sample_round_environment",
    "schedule_segments",
    "sigma",
    "sigma_positive_eta_threshold",
    "validate_decision",
]
