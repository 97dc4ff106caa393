"""The run drivers: run a preset or a scenario file, say how each run ended,
and write its tables and summary.

`run_experiment` runs a named preset on `experiments.team_scenario(seed)`,
or a scenario file, and writes `trajectory.csv` and `summary.json`; the
fig5 preset runs `run_risk_grid` instead, which integrates every
risk-attitude cell (`experiments.attitude_cells`) and writes
`risk_grid.csv` and `risk_grid_summary.json`. `outcome(record, tolerance)`
is the record of how one run ended, which both summaries hold. The seeded
generators, the attitude cells and the grid contrasts live in `experiments`,
which imports nothing from here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

from .dynamics import FlowEngine, integrate, kkt_residual
from .errors import DivergenceError, UnsupportedByOracleError
from .experiments import CONTRAST_CELLS, attitude_cells, grid_contrasts, team_scenario
from .metrics import TrajectoryRecord, csv_table, workload_report
from .model import Scenario, save_scenario
from .oracle import lift_to_saddle, load_scenario, solve_centralized
from .reformulation import build_decoupled

PRESETS = ("fig4_convergence", "fig5_risk_grid")
OUTPUT_DIR_ENV = "HATALLOC_OUT_DIR"


@dataclass
class ExperimentResult:
    exit_code: int
    summary: dict
    artifacts: dict[str, str]


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "hatalloc-out")


def _strict(value):
    """`value` with every float that is not finite (an infinity or NaN, which
    strict JSON cannot hold) replaced by None, in dicts and lists too."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_summary(path: str, summary: dict) -> dict:
    """Write `summary` as strict JSON, each non-finite float as null, and
    return what was written, the summary a caller prints."""
    summary = _strict(summary)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return summary


def outcome(record: TrajectoryRecord, tolerance: float) -> dict:
    """How a run ended: why and when it stopped, its steps (chunked and
    single, with the chunks rejected and the propagators built), the step
    size it finished with, its last update norm against the tolerance, and
    the attempt that diverged before a `dt` halving."""
    failed = record.failed_attempt
    return {
        "termination": record.termination,
        "final_t": record.final_t,
        "steps": record.steps,
        "chunked_steps": record.chunked_steps,
        "single_steps": record.single_steps,
        "rejected_chunks": record.rejected_chunks,
        "propagator_builds": record.propagator_builds,
        "dt": record.dt,
        "final_update_norm": record.final_update_norm,
        "tolerance": tolerance,
        "failed_attempt": None if failed is None else asdict(failed),
    }


def _run_scenario(scenario: Scenario, out_dir: str, summary: dict,
                  oracle: bool) -> ExperimentResult:
    """Decouple, integrate, take the KKT residuals and write `trajectory.csv`
    and `summary.json`. With `oracle`, the scenario is solved centrally and
    lifted, and deviation/saddle-distance metrics are recorded against it;
    an instance outside the oracle's scope still runs, without them, and
    `summary["oracle"]` says why. A flow that diverges at both step sizes
    writes only `summary.json`, with `termination: "diverged"` and both
    attempts, before its `DivergenceError` propagates with what was
    written as its `summary`."""
    os.makedirs(out_dir, exist_ok=True)
    dc = build_decoupled(scenario)
    tracking = {}
    if oracle:
        try:
            x_star, y_star, mu_star, value = solve_centralized(scenario)
        except UnsupportedByOracleError as exc:
            summary["oracle"] = f"unavailable: {exc}"
        else:
            _, lam_star, eta_star = lift_to_saddle(scenario, dc, x_star, mu_star)
            tracking = {"reference": (x_star, y_star), "saddle": (eta_star, lam_star)}
    summary_path = os.path.join(out_dir, "summary.json")
    try:
        final, record = integrate(scenario, dc=dc, **tracking)
    except DivergenceError as exc:
        summary.update(termination="diverged", attempts=[asdict(a) for a in exc.attempts])
        exc.summary = _write_summary(summary_path, summary)
        raise

    table_path = os.path.join(out_dir, "trajectory.csv")
    record.write(table_path)
    summary.update(outcome(record, scenario.solver.tolerance))
    if tracking:
        summary.update({
            "final_deviation": record.samples[-1].deviation,
            "saddle_dist_initial": record.v_initial,
            "saddle_dist_final": record.v_final,
            "saddle_dist_max_step_increase": record.v_max_step_increase,
            "oracle_value": value,
        })
    summary["kkt"] = asdict(kkt_residual(scenario, dc, final))
    summary = _write_summary(summary_path, summary)
    converged = not tracking or record.samples[-1].deviation <= 1e-6
    return ExperimentResult(
        exit_code=0 if converged else 2,
        summary=summary,
        artifacts={"trajectory": table_path, "summary": summary_path},
    )


def _unconverged_cells(terminations: dict[tuple[str, ...], str]) -> dict[str, list[str]]:
    """Per contrast, the cells it reads ("h1 kind|h2 kind") whose run did not
    end converged."""
    return {name: ["|".join(cell) for cell in (a, b) if terminations[cell] != "converged"]
            for name, (_, a, b) in CONTRAST_CELLS.items()}


def run_risk_grid(base: Scenario, seed: int, out_dir: str) -> ExperimentResult:
    """Integrate `base` in every attitude cell; the grid never tracks. A
    cell whose flow diverges at both step sizes writes the summary of the
    cells finished so far and of itself, with `termination: "diverged"`
    and both attempts, and no contrasts, before its `DivergenceError`
    propagates with what was written as its `summary`."""
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "risk_grid_summary.json")
    h1, h2 = base.topology.human_ids
    rows, totals, terminations, cells = [], {}, {}, {}
    for (k1, k2), cell in attitude_cells(base).items():
        dc = build_decoupled(cell)
        try:
            final, record = integrate(cell, dc=dc)
        except DivergenceError as exc:
            cells[f"{k1}|{k2}"] = {"termination": "diverged",
                                   "attempts": [asdict(a) for a in exc.attempts]}
            exc.summary = _write_summary(summary_path, {"preset": "fig5_risk_grid",
                                                        "seed": seed, "cells": cells})
            raise
        engine = FlowEngine(cell, dc)
        x, _, _ = cell.layout.parts(final.w)
        y, _ = engine.response(x, final.t)
        report = workload_report(cell, final)
        cost = engine.objective_value(x, y)
        # The oracle's optimum shows how far a cell that stopped short of
        # its tolerance is from the cost it should report.
        oracle_cost = solve_centralized(cell)[3]
        rows.append({
            f"{h1}_attitude": k1,
            f"{h2}_attitude": k2,
            "autonomous_workload": report.autonomous_total,
            "human_workload": report.human_total,
            "total_cost": cost,
            "termination": record.termination,
            **{f"workload_{a}": w for a, w in report.by_agent.items()},
        })
        totals[(k1, k2)] = (report.autonomous_total, cost)
        terminations[(k1, k2)] = record.termination
        cells[f"{k1}|{k2}"] = {
            "cost": cost,
            "autonomous_workload": report.autonomous_total,
            "human_workload": report.human_total,
            **outcome(record, cell.solver.tolerance),
            "oracle_cost": oracle_cost,
            "value_gap": abs(cost - oracle_cost) / max(1.0, abs(oracle_cost)),
            "kkt": asdict(kkt_residual(cell, dc, final)),
        }

    grid_path = os.path.join(out_dir, "risk_grid.csv")
    with open(grid_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(csv_table(rows[0].keys(), (row.values() for row in rows)))

    summary = {"preset": "fig5_risk_grid", "seed": seed, **grid_contrasts(totals),
               "contrast_unconverged_cells": _unconverged_cells(terminations), "cells": cells}
    summary = _write_summary(summary_path, summary)
    return ExperimentResult(
        exit_code=0,
        summary=summary,
        artifacts={"grid": grid_path, "summary": summary_path},
    )


def run_experiment(
    preset_or_path: str,
    seed: int = 1,
    out_dir: str | None = None,
    opts: dict | None = None,
    reference: bool = True,
) -> ExperimentResult:
    """Run a named preset or a scenario file; writes tables and a summary.

    A preset runs `team_scenario(seed)`, and `opts` overrides solver options.
    The fig4 preset (which saves `scenario.json`) and a file run one scenario;
    with `reference`, deviation/saddle-distance metrics are recorded against
    the centralized solution.
    """
    out_dir = out_dir or default_output_dir()
    preset = preset_or_path in PRESETS
    scenario = team_scenario(seed) if preset else load_scenario(preset_or_path)
    if opts:
        scenario = scenario.with_solver(**opts)
    if preset_or_path == "fig5_risk_grid":
        return run_risk_grid(scenario, seed, out_dir)
    artifacts = {}
    if preset:
        os.makedirs(out_dir, exist_ok=True)
        artifacts["scenario"] = os.path.join(out_dir, "scenario.json")
        save_scenario(scenario, artifacts["scenario"])
    summary = {"preset" if preset else "scenario": str(preset_or_path), "seed": seed}
    result = _run_scenario(scenario, out_dir, summary, oracle=reference)
    result.artifacts.update(artifacts)
    return result
