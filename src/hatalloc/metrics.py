"""Run metrics and the trajectory record.

`squared_deviation` is the convergence measure: summed squared distance of
every agent's state (human responses included) from a reference allocation.
`saddle_distance` is the half squared distance to a reference saddle point,
the quantity that is nonincreasing along the flow. Workloads are 1-norms of
the state blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import SystemState
    from .model import Scenario


def _current_y(scenario, state) -> dict[str, np.ndarray]:
    return {
        k: scenario.human_response(k, state.x, t=state.t)
        for k in scenario.topology.human_ids
    }


def squared_deviation(
    scenario: "Scenario",
    state: "SystemState",
    reference: tuple[np.ndarray, np.ndarray],
) -> float:
    """Sum of squared block distances from the reference (x*, y*).

    Human responses are derived from the current autonomous states, not taken
    from the reference map.
    """
    lay = scenario.layout
    x_ref, y_ref = reference
    x_ref = np.asarray(x_ref, dtype=float)
    y_ref = np.asarray(y_ref, dtype=float)
    y_now = _current_y(scenario, state)
    total = 0.0
    for i in lay.autonomous_ids:
        diff = np.asarray(state.x[i], dtype=float) - x_ref[lay.x_slice(i)]
        total += float(diff @ diff)
    for k in lay.human_ids:
        diff = y_now[k] - y_ref[lay.y_slice(k)]
        total += float(diff @ diff)
    return total


def saddle_distance(
    scenario: "Scenario",
    state: "SystemState",
    saddle: tuple[np.ndarray, np.ndarray],
) -> float:
    """0.5 ||(x, z) - (x, z)_ref||^2 + 0.5 ||lambda - lambda_ref||^2."""
    lay = scenario.layout
    eta_ref, lam_ref = saddle
    eta = np.concatenate([lay.stack_x(state.x), lay.stack_nodes(state.z)])
    lam = lay.stack_nodes(state.lam)
    d_eta = eta - np.asarray(eta_ref, dtype=float)
    d_lam = lam - np.asarray(lam_ref, dtype=float)
    return float(0.5 * (d_eta @ d_eta) + 0.5 * (d_lam @ d_lam))


@dataclass(frozen=True)
class WorkloadReport:
    by_agent: dict[str, float]
    autonomous_total: float
    human_total: float


def workload_report(scenario, state) -> WorkloadReport:
    """Per-agent 1-norm workloads plus group totals."""
    lay = scenario.layout
    by_agent = {}
    for i in lay.autonomous_ids:
        by_agent[i] = float(np.sum(np.abs(state.x[i])))
    y_now = _current_y(scenario, state)
    for k in lay.human_ids:
        by_agent[k] = float(np.sum(np.abs(y_now[k])))
    return WorkloadReport(
        by_agent=by_agent,
        autonomous_total=sum(by_agent[i] for i in lay.autonomous_ids),
        human_total=sum(by_agent[k] for k in lay.human_ids),
    )


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    max_coupled_residual: float
    min_multiplier: float
    lagrangian: float
    workloads: dict[str, float]
    deviation: float | None = None
    saddle_dist: float | None = None


@dataclass(frozen=True)
class FailedAttempt:
    """A run that diverged before the integrator retried at half the step."""

    dt: float
    t: float
    max_entry: float


@dataclass
class TrajectoryRecord:
    """Sampled run history plus termination bookkeeping.

    When a reference saddle was supplied, the half squared distance to it is
    additionally tracked at every integrator step; `v_max_step_increase` is
    the largest single-step increase observed (descent means <= 0 up to the
    integrator's own O(dt^2) error). `final_update_norm` is the update norm
    of the last step, the quantity the stopping rule compares with the
    tolerance. `failed_attempt` is set when the run had to halve `dt`.
    `chunked_steps` + `single_steps` = `steps`: the steps taken in
    propagated chunks of the affine flow and those taken one at a time.
    `rejected_chunks` counts the chunks computed and then stepped singly
    instead, and `propagator_builds` the dense propagators built.
    """

    agent_order: tuple[str, ...]
    samples: list[TrajectorySample]
    termination: str
    final_t: float
    steps: int
    dt: float
    state_sup_norm: float = 0.0
    final_update_norm: float | None = None
    failed_attempt: FailedAttempt | None = None
    v_initial: float | None = None
    v_final: float | None = None
    v_max_step_increase: float | None = None
    chunked_steps: int = 0
    single_steps: int = 0
    rejected_chunks: int = 0
    propagator_builds: int = 0

    @property
    def has_deviation(self) -> bool:
        return bool(self.samples) and self.samples[0].deviation is not None

    @property
    def has_saddle(self) -> bool:
        return bool(self.samples) and self.samples[0].saddle_dist is not None

    def to_csv(self) -> str:
        cols = ["t"]
        if self.has_deviation:
            cols.append("deviation")
        if self.has_saddle:
            cols.append("saddle_dist")
        cols += ["max_coupled_residual", "min_multiplier", "lagrangian"]
        cols += [f"workload_{a}" for a in self.agent_order]
        lines = [",".join(cols)]
        for s in self.samples:
            row = [repr(s.t)]
            if self.has_deviation:
                row.append(repr(s.deviation))
            if self.has_saddle:
                row.append(repr(s.saddle_dist))
            row += [
                repr(s.max_coupled_residual),
                repr(s.min_multiplier),
                repr(s.lagrangian),
            ]
            row += [repr(s.workloads[a]) for a in self.agent_order]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv())
