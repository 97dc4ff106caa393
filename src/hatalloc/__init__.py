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
    KKTResidual,
    SystemState,
    gradient_check,
    initial_state,
    integrate,
    kkt_residual,
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
    save_scenario,
    scenario_from_document,
    serialize_scenario,
)
from .oracle import (
    ReducedProgram,
    lift_to_saddle,
    load_scenario,
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
from .topology import NetworkTopology, laplacian, neighbors

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
    "workload_report",
]
