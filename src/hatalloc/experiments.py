"""Experiment presets and the run driver.

`team_scenario` generates the benchmark instance: five autonomous agents and
two humans on a random connected graph, quadratic costs, and a two-row shared
constraint (a budget row and a demand row). A draw is accepted only if both
rows are active at the optimum with multipliers bounded away from zero, the
interior is nonempty, human workloads stay nonnegative, the linearized flow
is stable and well damped at the default step size, and the qualitative
risk-attitude orderings hold with clear margins. Rejected draws are redrawn
deterministically, so a seed pins the instance byte for byte.

The offset search (`_tighten_offsets`) reduces each risk-attitude cell of a
draw once, probes every candidate offset c on the reduced cells with
`ReducedProgram.with_offset`, and builds a scenario only for the one it takes.
The admission checks read stability from `dynamics.fold` of each reduction.

Offsets and response bases are rescaled after acceptance: for quadratic costs
with affine responses the optimal point is exactly linear in (c, base), so
normalizing the lifted saddle norm keeps the flow's velocity small enough for
tight per-step descent checks without touching the problem structure.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from .dynamics import FlowEngine, fold, integrate, kkt_residual
from .errors import HatallocError, NoAdmissibleInstanceError, UnsupportedByOracleError
from .human import HumanResponseModel, attitude_preset
from .metrics import TrajectoryRecord, workload_report
from .model import (
    CouplingConstraint,
    QuadraticCost,
    Scenario,
    SolverOptions,
    save_scenario,
)
from .oracle import (
    ReducedProgram,
    interior_point,
    lift_to_saddle,
    load_scenario,
    reduce_program,
    solve_centralized,
    solve_program,
)
from .reformulation import DecoupledConstraint, build_decoupled
from .topology import NetworkTopology, neighbors

PRESETS = ("fig4_convergence", "fig5_risk_grid")
OUTPUT_DIR_ENV = "HATALLOC_OUT_DIR"
log = logging.getLogger(__name__)

TEAM_DIMS = (3, 5, 4, 2, 1)
TEAM_HUMAN_DIMS = (3, 5)
SADDLE_NORM_TARGET = 0.45
INITIAL_SPEED_CAP = 3.0


def _connected_graph(rng, autonomous, humans, extra_edges=3):
    """Random connected graph; every human gets at least one autonomous neighbor."""
    nodes = list(autonomous) + list(humans)
    edges = set()
    for idx in range(1, len(nodes)):
        other = nodes[int(rng.integers(0, idx))]
        edges.add(tuple(sorted((nodes[idx], other))))
    for k in humans:
        has_auto = any(k in e and (set(e) - {k}) <= set(autonomous) for e in edges)
        if not has_auto and autonomous:
            j = autonomous[int(rng.integers(0, len(autonomous)))]
            edges.add(tuple(sorted((k, j))))
    for _ in range(extra_edges):
        if len(nodes) < 2:
            break
        a, b = rng.choice(len(nodes), size=2, replace=False)
        edges.add(tuple(sorted((nodes[a], nodes[b]))))
    return NetworkTopology(tuple(autonomous), tuple(humans), frozenset(edges))


def _draw_instance(rng, auto_dims, human_dims, attitudes):
    autonomous = tuple(f"r{idx}" for idx in range(1, len(auto_dims) + 1))
    humans = tuple(f"h{idx}" for idx in range(1, len(human_dims) + 1))
    dims = {a: d for a, d in zip(autonomous, auto_dims)}
    dims.update({k: d for k, d in zip(humans, human_dims)})
    topo = _connected_graph(rng, autonomous, humans, extra_edges=6)

    costs = {}
    for i in autonomous:
        costs[i] = QuadraticCost(np.diag(rng.uniform(1.0, 8.0, size=dims[i])))
    for pos, k in enumerate(humans):
        weight = np.diag(rng.uniform(1.0, 8.0, size=dims[k]))
        if pos == 0:  # the first human's effort is cheap
            weight = weight * 0.1
        costs[k] = QuadraticCost(weight)

    # Row 1: budget (nonnegative usage coefficients). Row 2: demand
    # (production counts toward a required total). Strong rows keep every
    # multiplier direction firmly coupled to the states, which is what damps
    # the auxiliary/multiplier oscillations of the flow; the deliberately
    # different magnitude ranges stop the two rows from cancelling when their
    # multipliers move together. Both offsets are tightened adaptively
    # afterwards.
    a_blocks = {
        i: np.vstack([
            rng.uniform(2.5, 4.0, size=dims[i]),
            -rng.normal(1.0, 2.0, size=dims[i]),
        ])
        for i in autonomous
    }
    b_blocks = {
        k: np.vstack([
            rng.uniform(2.5, 4.0, size=dims[k]),
            -rng.normal(1.2, 1.0, size=dims[k]),
        ])
        for k in humans
    }
    constraint = CouplingConstraint(
        a_blocks=a_blocks, b_blocks=b_blocks, c=np.array([0.0, 0.0])
    )

    models = {}
    for k in humans:
        auto_nbrs, _ = neighbors(topo, k)
        kind, magnitude = attitudes[k]
        models[k] = HumanResponseModel(
            human_id=k,
            neighbor_ids=tuple(auto_nbrs),
            gains={
                j: rng.uniform(0.25, 0.6, size=(dims[k], dims[j]))
                for j in auto_nbrs
            },
            base=rng.uniform(1.2, 2.2, size=dims[k]),
            attitude=attitude_preset(kind, magnitude),
        )

    return Scenario(
        topology=topo,
        dims=dims,
        costs=costs,
        constraint=constraint,
        human_models=models,
        solver=SolverOptions(tolerance=1e-8),
    )


def _with_offsets(scenario: Scenario, c: np.ndarray,
                  bases: dict[str, np.ndarray] | None = None) -> Scenario:
    con = scenario.constraint
    models = scenario.human_models
    if bases is not None:
        models = {
            k: replace(m, base=bases.get(k, m.base)) for k, m in models.items()
        }
    return replace(
        scenario,
        constraint=CouplingConstraint(
            a_blocks=con.a_blocks, b_blocks=con.b_blocks, c=np.asarray(c, float)
        ),
        human_models=models,
    )


def with_attitudes(scenario: Scenario, attitudes: dict[str, tuple[str, float]]) -> Scenario:
    """Same instance, humans relabeled with new risk attitudes."""
    models = dict(scenario.human_models)
    for k, (kind, magnitude) in attitudes.items():
        models[k] = replace(models[k], attitude=attitude_preset(kind, magnitude))
    return replace(scenario, human_models=models)


def attitude_cells(scenario: Scenario) -> dict[tuple[str, ...], Scenario]:
    """The instance under every combination of unit risk attitudes, keyed by
    the humans' attitude kinds in id order (risk-seeking first)."""
    humans = scenario.topology.human_ids
    return {
        combo: with_attitudes(scenario, {k: (kind, 1.0) for k, kind in zip(humans, combo)})
        for combo in product(("risk_seeking", "risk_averse"), repeat=len(humans))
    }


def _cell_admissible(rp: ReducedProgram) -> bool:
    try:
        _, y, mu, _ = solve_program(rp)
    except HatallocError:
        return False
    return (
        bool(np.all(mu > 1e-2))
        and bool(np.all(y >= 0.0))
        and interior_point(rp) is not None
    )


def _tighten_offsets(scenario: Scenario) -> Scenario | None:
    """Pick demand and budget offsets so both constraint rows bind at the
    optimum for every risk-attitude combination.

    The production requirement must be active regardless of attitudes,
    otherwise withdrawing humans would not force the autonomous agents to
    compensate; the budget likewise. The demand is set a definite margin
    above the largest cost-minimal production level across cells, the budget
    a factor below the smallest demand-constrained usage.
    """
    slack_c = np.array([-1e6, -1e6])
    cells, productions = [], []
    for cell in attitude_cells(scenario).values():
        try:
            rp = reduce_program(cell)
            probe = rp.with_offset(slack_c)
            x0, _, _, _ = solve_program(probe)
        except HatallocError:
            return None
        cells.append(rp)
        # Row levels as G_c x + h_c - c: the float ops of a scenario reduced at c.
        productions.append(-(probe.constraint(x0) - slack_c)[1])
    production0 = max(productions)

    for margin in (1.0, 1.8, 2.8):
        demand = production0 + margin * (0.5 + 0.5 * abs(production0))
        c_demand = np.array([-1e6, demand])
        usages = []
        for cell in cells:
            probe = cell.with_offset(c_demand)
            try:
                x1, _, mu1, _ = solve_program(probe)
            except HatallocError:
                usages = None
                break
            if mu1[1] <= 1e-2:
                usages = None
                break
            usages.append((probe.constraint(x1) - c_demand)[0])
        if usages is None or min(usages) <= 0.05:
            continue
        for theta in (0.85, 0.7, 0.55):
            c_try = np.array([-theta * min(usages), demand])
            if all(_cell_admissible(cell.with_offset(c_try)) for cell in cells):
                return _with_offsets(scenario, c_try)
    return None


def _normalize_scale(scenario: Scenario) -> Scenario:
    """Rescale (c, bases) so the lifted saddle norm and the initial flow
    speed both stay small.

    The optimum of a quadratic/affine instance is exactly linear in these
    offsets, and so is the flow velocity at the all-zero start, so one scale
    factor controls both; keeping them small bounds the integrator's
    per-step overshoot. The rescaled instance keeps its active set and
    structure; its zero-start speed is at most `INITIAL_SPEED_CAP`.
    """
    rp = reduce_program(scenario)
    x, _, mu, _ = solve_program(rp)
    dc = build_decoupled(scenario)
    _, lam, eta = lift_to_saddle(scenario, dc, x, mu)
    norm = float(np.sqrt(eta @ eta + lam @ lam))
    # The velocity at w = 0 is the folded offset b = (dx, dz, gap).
    b = fold(rp, dc)[3]
    n, q = rp.H.shape[0], dc.block_dim
    dx, dz, dlam = b[:n], b[n:n + q], np.maximum(0.0, b[n + q:])
    speed = float(np.sqrt(dx @ dx + dz @ dz + dlam @ dlam))
    s = min(SADDLE_NORM_TARGET / norm, INITIAL_SPEED_CAP / max(speed, 1e-12))
    bases = {k: m.base * s for k, m in scenario.human_models.items()}
    return _with_offsets(scenario, scenario.constraint.c * s, bases)


def _stability_margins(rp: ReducedProgram, dc: DecoupledConstraint,
                       dt: float) -> tuple[float, float]:
    """(spectral abscissa, forward-Euler radius at step dt) of the all-active
    linearization, the flow's affine operator M (`fold`) with every
    multiplier unclamped.

    Shared z/lambda consensus shifts are genuinely neutral directions of the
    flow and never excited from consensus-free initial data, so exact-zero
    eigenvalues are excluded.
    """
    rows, cols, vals, b = fold(rp, dc)
    jac = np.zeros((b.size, b.size))
    jac[rows, cols] = vals
    eigs = np.linalg.eigvals(jac)
    moving = eigs[np.abs(eigs) > 1e-9]
    if moving.size == 0:
        return 0.0, 1.0
    return float(np.max(moving.real)), float(np.max(np.abs(1.0 + dt * moving)))


GRID_CONTRASTS = (
    "autonomous_workload_seeking_minus_averse",
    "cost_drop_h1_averse_h2_seeking",
    "cost_drop_h1_averse_h2_averse",
)


def _grid_contrasts(totals: dict[tuple[str, ...], tuple[float, float]]) -> dict[str, float]:
    """The three Fig. 5 contrasts, keyed by `GRID_CONTRASTS`, from each
    attitude cell's (autonomous workload, cost)."""
    seek, averse = "risk_seeking", "risk_averse"
    return dict(zip(GRID_CONTRASTS, (
        totals[(seek, seek)][0] - totals[(averse, averse)][0],
        totals[(seek, seek)][1] - totals[(averse, seek)][1],
        totals[(seek, averse)][1] - totals[(averse, averse)][1],
    )))


REJECTIONS = ("tighten", "oracle", "multipliers/responses", "Slater", "stability", "grid")


def _rejection(scenario: Scenario, abscissa_bar: float, check_grid: bool) -> str | None:
    """The first check a scaled draw fails, or None when it is admissible.
    All attitude cells share one decoupled constraint and are reduced once;
    the cell with the scenario's own attitudes is the scenario's program."""
    try:
        rp = reduce_program(scenario)
        _, y, mu, _ = solve_program(rp)
    except HatallocError:
        return "oracle"
    if np.any(mu < 5e-4) or np.any(y < 0.0):
        return "multipliers/responses"
    if interior_point(rp) is None:
        return "Slater"
    dc, dt = build_decoupled(scenario), scenario.solver.dt
    abscissa, radius = _stability_margins(rp, dc, dt)
    if abscissa > abscissa_bar or radius > 1.0 - 1e-9:
        return "stability"
    if not check_grid:
        return None
    # The grid experiment integrates every attitude cell, so each must be
    # stable and reasonably damped, solvable with nonnegative human
    # workloads, and the cells' contrasts must clear their margins.
    lay = scenario.layout
    own = {k: m.attitude for k, m in scenario.human_models.items()}
    totals = {}
    for key, cell in attitude_cells(scenario).items():
        if {k: m.attitude for k, m in cell.human_models.items()} == own:
            cell_rp, margins = rp, (abscissa, radius)
        else:
            cell_rp = reduce_program(cell)
            margins = _stability_margins(cell_rp, dc, dt)
        if margins[0] > -0.03 or margins[1] > 1.0 - 1e-9:
            return "grid"
        try:
            x, y, _, value = solve_program(cell_rp)
        except HatallocError:
            return "grid"
        if np.any(y < -1e-9):
            return "grid"
        totals[key] = (sum(float(np.sum(np.abs(x[lay.x_slice(i)])))
                           for i in lay.autonomous_ids), value)
    contrasts = tuple(_grid_contrasts(totals).values())
    if contrasts[0] < 5e-3 or contrasts[1] < 2e-4 or contrasts[2] < 2e-4:
        return "grid"
    return None


def _generate(seed: int, auto_dims, human_dims, attitudes, abscissa_bar,
              check_grid, stream: int, max_attempts: int = 400) -> Scenario:
    rejected = dict.fromkeys(REJECTIONS, 0)
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence([stream, seed, attempt]))
        candidate = _draw_instance(rng, auto_dims, human_dims, attitudes)
        tightened = _tighten_offsets(candidate)
        if tightened is None:
            rejected["tighten"] += 1
            continue
        scaled = _normalize_scale(tightened)
        reason = _rejection(scaled, abscissa_bar, check_grid)
        if reason is None:
            log.debug("seed %d: accepted draw %d; rejected by %s", seed, attempt, rejected)
            return scaled
        rejected[reason] += 1
    raise NoAdmissibleInstanceError(seed, rejected)


@lru_cache(maxsize=16)
def team_scenario(seed: int) -> Scenario:
    """The benchmark instance (5 autonomous, 2 humans, reference dims).

    Human 1 is risk-seeking, human 2 risk-averse (`with_attitudes` relabels
    them). Instances are cached per seed; treat the result as immutable.
    """
    attitudes = {"h1": ("risk_seeking", 1.0), "h2": ("risk_averse", 1.0)}
    return _generate(
        seed, TEAM_DIMS, TEAM_HUMAN_DIMS, attitudes,
        abscissa_bar=-0.08, check_grid=True, stream=40,
    )


@lru_cache(maxsize=32)
def crosscheck_scenario(seed: int) -> Scenario:
    """Small budget-tuned instance for solver cross-validation runs.

    State dimensions are kept comfortably above the number of multiplier
    blocks so every multiplier direction stays well damped.
    """
    rng = np.random.default_rng(np.random.SeedSequence([77, seed]))
    n_auto = int(rng.integers(3, 5))
    n_human = int(rng.integers(1, 3))
    auto_dims = tuple(int(rng.integers(3, 6)) for _ in range(n_auto))
    human_dims = tuple(int(rng.integers(2, 5)) for _ in range(n_human))
    attitudes = {
        f"h{idx + 1}": (("risk_seeking", 1.0) if idx % 2 == 0 else ("risk_averse", 1.0))
        for idx in range(n_human)
    }
    return _generate(
        seed, auto_dims, human_dims, attitudes,
        abscissa_bar=-0.12, check_grid=False, stream=41,
    )


def random_scenario(
    seed: int,
    n_autonomous: int | None = None,
    n_human: int | None = None,
    rows: int | None = None,
    families: tuple[str, ...] = ("affine",),
) -> Scenario:
    """Small random instance (state dims 1 to 3) for randomized algebra
    checks (not budget-tuned)."""
    rng = np.random.default_rng(np.random.SeedSequence([2718, seed]))
    if n_autonomous is None:
        n_autonomous = int(rng.integers(1, 6))
    if n_human is None:
        n_human = int(rng.integers(0, 4))
        if n_autonomous + n_human < 2:
            n_human += 1
    if rows is None:
        rows = int(rng.integers(1, 4))
    autonomous = tuple(f"r{i}" for i in range(1, n_autonomous + 1))
    humans = tuple(f"h{k}" for k in range(1, n_human + 1))
    dims = {a: int(rng.integers(1, 4)) for a in autonomous + humans}
    topo = _connected_graph(
        rng, autonomous, humans, extra_edges=int(rng.integers(0, 3))
    )

    costs = {
        a: QuadraticCost(np.diag(rng.uniform(0.5, 4.0, size=dims[a])))
        for a in autonomous + humans
    }
    constraint = CouplingConstraint(
        a_blocks={i: rng.uniform(-1.0, 1.0, size=(rows, dims[i])) for i in autonomous},
        b_blocks={k: rng.uniform(-1.0, 1.0, size=(rows, dims[k])) for k in humans},
        c=rng.uniform(-1.0, 1.0, size=rows),
    )

    models = {}
    for k in humans:
        auto_nbrs, _ = neighbors(topo, k)
        family = families[int(rng.integers(0, len(families)))]
        models[k] = HumanResponseModel(
            human_id=k,
            neighbor_ids=tuple(auto_nbrs),
            gains={
                j: rng.uniform(0.0, 0.4, size=(dims[k], dims[j])) for j in auto_nbrs
            },
            base=rng.uniform(0.0, 0.5, size=dims[k]),
            attitude=float(rng.uniform(-1.0, 1.0)),
            family=family,
            sharpness=float(rng.uniform(2.0, 12.0)),
        )
    return Scenario(
        topology=topo,
        dims=dims,
        costs=costs,
        constraint=constraint,
        human_models=models,
        solver=SolverOptions(),
    )


# ---------------------------------------------------------------------------
# Run driver


@dataclass
class ExperimentResult:
    exit_code: int
    summary: dict
    artifacts: dict[str, str]
    record: TrajectoryRecord | None = None


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "hatalloc-out")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _outcome(record: TrajectoryRecord, tolerance: float) -> dict:
    """How a run ended: why and when it stopped, its steps (chunked and
    single), the step size it finished with, its last update norm against
    the tolerance, and the attempt that diverged before a `dt` halving."""
    failed = record.failed_attempt
    if failed is not None:
        # JSON has no infinity: null when no entry of the block stayed finite.
        failed = {**asdict(failed),
                  "max_entry": failed.max_entry if np.isfinite(failed.max_entry) else None}
    return {
        "termination": record.termination,
        "final_t": record.final_t,
        "steps": record.steps,
        "chunked_steps": record.chunked_steps,
        "single_steps": record.single_steps,
        "dt": record.dt,
        "final_update_norm": record.final_update_norm,
        "tolerance": tolerance,
        "failed_attempt": failed,
    }


def _run_scenario(scenario: Scenario, out_dir: str, summary: dict,
                  oracle: bool) -> ExperimentResult:
    """Decouple, integrate, take the KKT residuals and write `trajectory.csv`
    and `summary.json`. With `oracle`, the centralized solution is computed
    first and deviation/saddle-distance metrics are recorded against it; an
    instance outside the oracle's scope still runs, without them."""
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
    final, record = integrate(scenario, dc=dc, **tracking)

    table_path = os.path.join(out_dir, "trajectory.csv")
    record.write(table_path)
    summary.update(_outcome(record, scenario.solver.tolerance))
    if tracking:
        summary.update({
            "final_deviation": record.samples[-1].deviation,
            "saddle_dist_initial": record.v_initial,
            "saddle_dist_final": record.v_final,
            "saddle_dist_max_step_increase": record.v_max_step_increase,
            "oracle_value": value,
        })
    summary["kkt"] = asdict(kkt_residual(scenario, dc, final))
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json(summary_path, summary)
    converged = not tracking or record.samples[-1].deviation <= 1e-6
    return ExperimentResult(
        exit_code=0 if converged else 2,
        summary=summary,
        artifacts={"trajectory": table_path, "summary": summary_path},
        record=record,
    )


def run_risk_grid(base: Scenario, seed: int, out_dir: str) -> ExperimentResult:
    """Integrate `base` in every attitude cell; the grid never tracks."""
    os.makedirs(out_dir, exist_ok=True)
    h1, h2 = base.topology.human_ids
    rows, totals, cells = [], {}, {}
    for (k1, k2), cell in attitude_cells(base).items():
        dc = build_decoupled(cell)
        final, record = integrate(cell, dc=dc)
        engine = FlowEngine(cell, dc)
        x, _, _ = engine.stack_state(final)
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
        cells[f"{k1}|{k2}"] = {
            "cost": cost,
            "autonomous_workload": report.autonomous_total,
            "human_workload": report.human_total,
            **_outcome(record, cell.solver.tolerance),
            "oracle_cost": oracle_cost,
            "value_gap": abs(cost - oracle_cost) / max(1.0, abs(oracle_cost)),
            "kkt": asdict(kkt_residual(cell, dc, final)),
        }

    grid_path = os.path.join(out_dir, "risk_grid.csv")
    cols = list(rows[0].keys())
    with open(grid_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(cols) + "\n")
        for row in rows:
            handle.write(",".join(
                v if isinstance(v, str) else repr(v) for v in (row[c] for c in cols)
            ) + "\n")

    summary = {"preset": "fig5_risk_grid", "seed": seed, **_grid_contrasts(totals),
               "cells": cells}
    summary_path = os.path.join(out_dir, "risk_grid_summary.json")
    _write_json(summary_path, summary)
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
