"""Distributed resource allocation for mixed human/autonomous agent teams.

The shared inequality coupling all agents is rewritten as an equivalent
per-agent constraint over the interaction graph, a projected saddle-point
flow drives the autonomous agents to the optimal allocation while humans
follow their response models, and an independent centralized solver provides
the ground truth for verification.
"""

from .agents import (
    AutonomousAgentView,
    DistributedRunner,
    HumanProxyView,
    Message,
    agent_round,
)
from .dynamics import (
    FlowEngine,
    SystemState,
    gradient_check,
    initial_state,
    integrate,
)
from .human import (
    ApproximationSchedule,
    HumanResponseModel,
    attitude_preset,
    respond,
    response_jacobian,
)
from .metrics import (
    TrajectoryRecord,
    TrajectorySample,
    WorkloadReport,
    saddle_distance,
    squared_deviation,
    workload_report,
)
from .model import (
    CouplingConstraint,
    CustomCost,
    QuadraticCost,
    Scenario,
    SolverOptions,
    load_scenario,
    save_scenario,
    scenario_from_document,
    serialize_scenario,
    stack_dimensions,
)
from .oracle import (
    KKTResidual,
    ReducedProgram,
    kkt_residual,
    lift_to_saddle,
    reduce_program,
    solve_centralized,
)
from .reformulation import (
    DecoupledConstraint,
    build_decoupled,
    coupled_residual,
    decoupled_residual,
    find_certificate_z,
    split_offset,
)
from .topology import NetworkTopology, laplacian, laplacian_lift, neighbors

__version__ = "0.1.0"

__all__ = [
    "ApproximationSchedule",
    "AutonomousAgentView",
    "CouplingConstraint",
    "CustomCost",
    "DecoupledConstraint",
    "DistributedRunner",
    "FlowEngine",
    "HumanProxyView",
    "HumanResponseModel",
    "KKTResidual",
    "Message",
    "NetworkTopology",
    "QuadraticCost",
    "ReducedProgram",
    "Scenario",
    "SolverOptions",
    "SystemState",
    "TrajectoryRecord",
    "TrajectorySample",
    "WorkloadReport",
    "agent_round",
    "attitude_preset",
    "build_decoupled",
    "coupled_residual",
    "decoupled_residual",
    "find_certificate_z",
    "gradient_check",
    "initial_state",
    "integrate",
    "kkt_residual",
    "laplacian",
    "laplacian_lift",
    "lift_to_saddle",
    "load_scenario",
    "neighbors",
    "reduce_program",
    "respond",
    "response_jacobian",
    "saddle_distance",
    "save_scenario",
    "scenario_from_document",
    "serialize_scenario",
    "solve_centralized",
    "split_offset",
    "squared_deviation",
    "stack_dimensions",
    "workload_report",
]
