"""Run metrics and the trajectory record.

`squared_deviation` is the convergence measure: summed squared distance of
every agent's state (human responses included) from a reference allocation.
`saddle_distance` is the half squared distance to a reference saddle point,
the quantity that is nonincreasing along the flow. Workloads are 1-norms of
the state blocks. `TrajectoryRecord.samples` is the table `trajectory.csv`
writes, one record array with a row per sampled step.

`saddle_distance` takes one dot product over the stacked w, the expression
`_run_flow` takes at the start and at every single step, so a run's
`v_initial` (and a converged run's `v_final`) is its value. The other two
keep per-agent arithmetic, on the blocks (views into w) and on each human's
own response (`_current_y`): their floats reach the outputs
(`workload_report`'s are `risk_grid.csv`'s workload columns), and the
stacked response S x + d differs from the per-human one in the last bits.
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
    x_ref, y_ref = (np.asarray(ref, dtype=float) for ref in reference)
    y_now = _current_y(scenario, state)
    total = 0.0
    for i in lay.autonomous_ids:
        diff = state.x[i] - x_ref[lay.x_slice(i)]
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
    """0.5 ||w - [eta_ref; lambda_ref]||^2 for the stacked w = [x, z, lambda]
    of `state`, eta = (x, z) being w's head."""
    diff = state.w - np.concatenate([np.asarray(part, dtype=float) for part in saddle])
    return 0.5 * float(diff @ diff)


@dataclass(frozen=True)
class WorkloadReport:
    by_agent: dict[str, float]
    autonomous_total: float
    human_total: float


def workload_report(scenario, state) -> WorkloadReport:
    """Per-agent 1-norm workloads plus group totals."""
    lay = scenario.layout
    blocks = {**state.x, **_current_y(scenario, state)}
    by_agent = {a: float(np.sum(np.abs(block))) for a, block in blocks.items()}
    return WorkloadReport(
        by_agent=by_agent,
        autonomous_total=sum(by_agent[i] for i in lay.autonomous_ids),
        human_total=sum(by_agent[k] for k in lay.human_ids),
    )


def _csv_cell(text: str) -> str:
    """`text` as one CSV cell (RFC 4180): in double quotes, each `"` doubled,
    when it holds a comma, a quote, CR or LF; as written otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_table(header, rows) -> str:
    """A CSV table, the header line, then one line per row: a row of floats
    by `float.__repr__`, any other row value by value, strings and header
    names as CSV cells (`_csv_cell`) and every other value by `repr`."""
    lines = [",".join(map(_csv_cell, header))]
    for row in rows:
        try:
            lines.append(",".join(map(float.__repr__, row)))
        except TypeError:  # a value that is not a float
            lines.append(",".join(_csv_cell(v) if isinstance(v, str) else repr(v) for v in row))
    lines.append("")  # the last line's newline, with no second copy of the table
    return "\n".join(lines)


@dataclass(frozen=True)
class FailedAttempt:
    """A run that diverged before the integrator retried at half the step."""

    dt: float
    t: float
    max_entry: float


@dataclass
class TrajectoryRecord:
    """Sampled run history plus termination bookkeeping.

    `samples` is one record array with a row per sampled step, whose field
    names are `trajectory.csv`'s header: `t`, then `deviation` and
    `saddle_dist` when a reference and a saddle were tracked,
    `max_coupled_residual`, `min_multiplier`, `lagrangian`, and
    `workload_<id>` (the 1-norm of each agent's block, human responses
    included) in the layout's node order. `to_csv` writes its rows as they
    are; `samples[-1].deviation` reads the last row's field.

    When a reference saddle was supplied, the half squared distance to it is
    additionally tracked at every integrator step; `v_max_step_increase` is
    the largest single-step increase observed (descent means <= 0 up to the
    integrator's own O(dt^2) error). `final_update_norm` is the update norm
    of the last step, the quantity the stopping rule compares with the
    tolerance. `failed_attempt` is set when the run had to halve `dt`.
    `chunked_steps` + `single_steps` = `steps`: the steps taken in
    propagated chunks of the affine flow and those taken one at a time.
    `rejected_chunks` counts the chunks computed and then stepped singly
    instead: of a matrix product that propagates several chunks, the first
    one with a failing step (those before it are taken).
    `propagator_builds` counts the dense propagators built.
    """

    samples: np.recarray
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

    def to_csv(self) -> str:
        return csv_table(self.samples.dtype.names, self.samples.tolist())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv())
