"""Experiment presets and the run driver.

`team_scenario` generates the benchmark instance: five autonomous agents and
two humans on a random connected graph, quadratic costs, and a two-row shared
constraint (a budget row and a demand row). A draw is accepted only if both
rows are active at the optimum with multipliers bounded away from zero, the
interior is nonempty, human workloads stay nonnegative, the linearized flow
is stable and well damped at the default step size, and the qualitative
risk-attitude orderings hold with clear margins. Rejected draws are redrawn
deterministically, so a seed pins the instance byte for byte.

`_generate` reads each draw's stack (`Scenario.stacked`), builds every
risk-attitude cell from it by negating the gain blocks of the humans whose
unit attitude the cell flips, and reduces each cell (`reduce_stacked`).
Every admission stage reads these cells. The offset search screens all nine
(demand margin, budget fraction) probes at once: with its active set fixed,
each probe's solution is affine in the offset c, so one inverse of each
cell's Hessian gives (x, mu, y) at every probe. The screen rejects a probe
only when a multiplier falls below 1e-2, or a response below 0, by more than
SCREEN_TOL = 1e-6 times the probe's scale (1 + max |c|); a singular or
ill-conditioned cell turns it off. Every probe it keeps is solved exactly on
the cell re-targeted by `ReducedProgram.with_offset`, so the offset taken,
and every seeded instance, is the exact search's bit for bit.

Offsets and response bases are then scaled by one factor s: for quadratic
costs with affine responses the optimal point is exactly linear in
(c, base), so normalizing the lifted saddle norm keeps the flow's velocity
small enough for tight per-step descent checks; the lift reads the
tightened scenario's stack. The remaining checks read each cell's stack with
d scaled by s. A `Scenario` is built only for the tightened offsets and for
the accepted draw.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from .dynamics import FlowEngine, dense_operator, fold, integrate, kkt_residual
from .errors import HatallocError, NoAdmissibleInstanceError, UnsupportedByOracleError
from .human import HumanResponseModel, attitude_preset
from .metrics import TrajectoryRecord, workload_report
from .model import (
    CouplingConstraint,
    QuadraticCost,
    Scenario,
    SolverOptions,
    StackedProblem,
    save_scenario,
)
from .oracle import (
    ReducedProgram,
    interior_point,
    lift_to_saddle,
    load_scenario,
    reduce_stacked,
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
ATTITUDE_KINDS = ("risk_seeking", "risk_averse")  # the grid's attitudes, in cell order


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
    models = scenario.human_models
    if bases is not None:
        models = {k: replace(m, base=bases[k]) for k, m in models.items()}
    constraint = replace(scenario.constraint, c=np.asarray(c, float))
    return replace(scenario, constraint=constraint, human_models=models)


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
        for combo in product(ATTITUDE_KINDS, repeat=len(humans))
    }


def _cell_stacks(scenario: Scenario) -> dict[tuple[str, ...], StackedProblem]:
    """`attitude_cells` as stacked problems, all from the scenario's stack.

    A unit attitude only signs its human's gain blocks in S, and generated
    draws have unit attitudes, so a cell negates the blocks of each human
    whose attitude it flips: the floats `stack_problem` lays out for the
    relabeled scenario. The scenario's own cell is `scenario.stacked`.
    """
    lay, sp = scenario.layout, scenario.stacked
    models = [scenario.human_models[k] for k in lay.human_ids]
    if any(abs(model.attitude) != 1.0 for model in models):
        raise ValueError("attitude cells from one stack need unit attitudes")
    stacks = {}
    for combo in product(ATTITUDE_KINDS, repeat=len(models)):
        flipped = [model for model, kind in zip(models, combo)
                   if attitude_preset(kind, 1.0) != model.attitude]
        S = sp.S.copy() if flipped else sp.S
        for model in flipped:
            for j in model.neighbor_ids:
                S[lay.y_slice(model.human_id), lay.x_slice(j)] *= -1.0
        stacks[combo] = replace(sp, S=S) if flipped else sp
    return stacks


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


DEMAND_MARGINS = (1.0, 1.8, 2.8)
BUDGET_FRACTIONS = (0.85, 0.7, 0.55)
# The screen's slack per unit of probe scale 1 + max |c|: it rejects a probe
# only when a multiplier falls below 1e-2 or a response below 0 by more.
SCREEN_TOL = 1e-6
# Above this 1-norm condition number a matrix the screen inverts counts as
# singular, so the maps' roundoff stays far below SCREEN_TOL. Over 300 team
# draws and crosscheck 1-30, H stayed below ~100 and M below ~60.
SCREEN_MAX_COND = 1e6


def _inverse(a: np.ndarray) -> np.ndarray | None:
    """Inverses of a stack of matrices, or None when one is singular or
    worse conditioned than SCREEN_MAX_COND."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    return inv if np.all(norm1 <= SCREEN_MAX_COND) else None


def _demands(production: float) -> list[float]:
    """The probed demand offsets: a definite margin above `production`."""
    return [production + margin * (0.5 + 0.5 * abs(production)) for margin in DEMAND_MARGINS]


def _screen(cells: list[ReducedProgram]) -> np.ndarray:
    """Which (demand margin, budget fraction) probes of `_offset_search` may
    pass, as a boolean grid; False only where the exact search must fail.

    Each probe's solution is the KKT point of a known active set A, affine in
    the offset c (Bemporad et al., Automatica 38(1), 2002): at the slack
    offset -1e6 no row binds, at a demand probe (budget offset -1e6) only the
    demand row does, and in every cell of an admissible probe (multipliers
    above 1e-2) both do. With the free minimizer x0 = -H^-1 g, V = H^-1 G_c^T,
    the Schur complement M = G_c V and the row levels r = G_c x0 + B d
    (Nocedal & Wright, ch. 16.2), that point is

        mu_A = M_AA^-1 (r_A + c_A),   x = x0 - V_A mu_A,   y = S x + d,

    so one stacked inverse of H gives every probe of every cell. A probe is
    rejected when some cell's demand or both-row multiplier lies below 1e-2,
    or a response below 0, by more than SCREEN_TOL times the probe's scale
    1 + max |c|. When H or M is singular or ill-conditioned in some cell,
    every probe passes.
    """
    unscreened = np.ones((len(DEMAND_MARGINS), len(BUDGET_FRACTIONS)), dtype=bool)
    G = np.stack([rp.G_c for rp in cells])  # (cells, 2, n)
    H_inv = _inverse(np.stack([rp.H for rp in cells]))
    if H_inv is None:
        return unscreened
    x0 = -H_inv @ np.stack([rp.g for rp in cells])[:, :, None]  # (cells, n, 1)
    V = H_inv @ G.transpose(0, 2, 1)
    M = G @ V
    M_inv = _inverse(M)
    if M_inv is None:
        return unscreened
    r = G @ x0 + np.stack([rp.b_d for rp in cells])[:, :, None]  # (cells, 2, 1)

    # Demand probes: the demand row alone binds, mu_2 = (r_2 + c_2) / M_22.
    demands = np.array(_demands(max(-r[:, 1, 0])))
    mu_demand = (r[:, 1] + demands) / M[:, 1, 1:]  # (cells, margins)
    tau = SCREEN_TOL * (1.0 + np.abs(demands))
    passes = np.all(mu_demand >= 1e-2 - tau, axis=0)
    usages = r[:, 0] - M[:, 0, 1:] * mu_demand  # the budget row's G_c x + B d

    # Budget probes: both rows bind.
    budgets = -np.multiply.outer(usages.min(axis=0), BUDGET_FRACTIONS)
    c = np.stack([budgets, np.broadcast_to(demands[:, None], budgets.shape)])
    c = c.reshape(2, -1)  # every (margin, fraction) probe, one per column
    tau = SCREEN_TOL * (1.0 + np.abs(c).max(axis=0))
    mu = M_inv @ (r + c)  # (cells, 2, probes)
    S = np.stack([rp.S for rp in cells])
    y = S @ (x0 - V @ mu) + np.stack([rp.d for rp in cells])[:, :, None]
    passes = np.repeat(passes, len(BUDGET_FRACTIONS))
    passes &= np.all(mu >= 1e-2 - tau, axis=(0, 1))
    passes &= np.all(y >= -tau, axis=(0, 1))
    return passes.reshape(unscreened.shape)


def _offset_search(cells: list[ReducedProgram], tally: Counter) -> np.ndarray | None:
    """Demand and budget offsets c at which both constraint rows bind at the
    optimum of every attitude cell, or None.

    The production requirement must be active regardless of attitudes,
    otherwise withdrawing humans would not force the autonomous agents to
    compensate; the budget likewise. The demand is set a definite margin
    above the largest cost-minimal production level across cells, the budget
    a factor below the smallest demand-constrained usage. Every probe that
    `_screen` keeps is solved exactly. `tally` counts the draws the screen
    rejects whole ("screened") and the exact solves ("exact_solves")."""
    passes = _screen(cells)
    if not passes.any():
        tally["screened"] += 1
        return None

    slack_c = np.array([-1e6, -1e6])
    productions = []
    for cell in cells:
        probe = cell.with_offset(slack_c)
        tally["exact_solves"] += 1
        try:
            x0, _, _, _ = solve_program(probe)
        except HatallocError:
            return None
        # Row levels as G_c x + h_c - c: the float ops of a scenario reduced at c.
        productions.append(-(probe.constraint(x0) - slack_c)[1])
    for demand, probes in zip(_demands(max(productions)), passes):
        if not probes.any():
            continue
        c_demand = np.array([-1e6, demand])
        usages = []
        for cell in cells:
            probe = cell.with_offset(c_demand)
            tally["exact_solves"] += 1
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
        for theta, screened_in in zip(BUDGET_FRACTIONS, probes):
            if not screened_in:
                continue
            c_try = np.array([-theta * min(usages), demand])
            for cell in cells:
                tally["exact_solves"] += 1
                if not _cell_admissible(cell.with_offset(c_try)):
                    break
            else:
                return c_try
    return None


def _normalize_scale(scenario: Scenario, rp: ReducedProgram,
                     dc: DecoupledConstraint) -> float:
    """The factor s for (c, bases) that keeps the lifted saddle norm and the
    initial flow speed small, from the scenario's `rp` and `dc`.

    The optimum of a quadratic/affine instance is exactly linear in these
    offsets, and so is the flow velocity at the all-zero start, so one scale
    factor controls both; keeping them small bounds the integrator's
    per-step overshoot. The rescaled instance keeps its active set and
    structure; its zero-start speed is at most `INITIAL_SPEED_CAP`.
    """
    x, _, mu, _ = solve_program(rp)
    _, lam, eta = lift_to_saddle(scenario, dc, x, mu)
    norm = float(np.sqrt(eta @ eta + lam @ lam))
    # The velocity at w = 0 is the folded offset b = (dx, dz, gap).
    b = fold(rp, dc)[3]
    n, q = rp.H.shape[0], dc.block_dim
    dx, dz, dlam = b[:n], b[n:n + q], np.maximum(0.0, b[n + q:])
    speed = float(np.sqrt(dx @ dx + dz @ dz + dlam @ dlam))
    return min(SADDLE_NORM_TARGET / norm, INITIAL_SPEED_CAP / max(speed, 1e-12))


def _scaled(cell: StackedProblem, s: float, c: np.ndarray) -> ReducedProgram:
    """A cell's reduced program with its bases and offset c scaled by s:
    `stack_problem` copies each base into d, so d * s is the scaled stack."""
    return reduce_stacked(replace(cell, d=cell.d * s), c * s)


def _stability_margins(rp: ReducedProgram, dc: DecoupledConstraint,
                       dt: float) -> tuple[float, float]:
    """(spectral abscissa, forward-Euler radius at step dt) of the all-active
    linearization, the flow's affine operator M (`fold`) with every
    multiplier unclamped.

    Shared z/lambda consensus shifts are genuinely neutral directions of the
    flow and never excited from consensus-free initial data, so exact-zero
    eigenvalues are excluded.
    """
    eigs = np.linalg.eigvals(dense_operator(fold(rp, dc)))
    moving = eigs[np.abs(eigs) > 1e-9]
    if moving.size == 0:
        return 0.0, 1.0
    return float(np.max(moving.real)), float(np.max(np.abs(1.0 + dt * moving)))


GRID_CONTRASTS = (
    "autonomous_workload_seeking_minus_averse",
    "cost_drop_h1_averse_h2_seeking",
    "cost_drop_h1_averse_h2_averse",
)
_SEEK, _AVERSE = ATTITUDE_KINDS
# Per contrast: the total it compares (0 autonomous workload, 1 cost) and the
# two attitude cells it reads, minuend first.
_CONTRAST_CELLS = dict(zip(GRID_CONTRASTS, (
    (0, (_SEEK, _SEEK), (_AVERSE, _AVERSE)),
    (1, (_SEEK, _SEEK), (_AVERSE, _SEEK)),
    (1, (_SEEK, _AVERSE), (_AVERSE, _AVERSE)),
)))


def _grid_contrasts(totals: dict[tuple[str, ...], tuple[float, float]]) -> dict[str, float]:
    """The three Fig. 5 contrasts, keyed by `GRID_CONTRASTS`, from each
    attitude cell's (autonomous workload, cost)."""
    return {name: totals[a][i] - totals[b][i] for name, (i, a, b) in _CONTRAST_CELLS.items()}


def _unconverged_cells(terminations: dict[tuple[str, ...], str]) -> dict[str, list[str]]:
    """Per contrast, the cells it reads ("h1 kind|h2 kind") whose run did not
    end converged."""
    return {name: ["|".join(cell) for cell in (a, b) if terminations[cell] != "converged"]
            for name, (_, a, b) in _CONTRAST_CELLS.items()}


REJECTIONS = ("tighten", "oracle", "multipliers/responses", "Slater", "stability", "grid")


def _rejection(scenario: Scenario, stacks: dict[tuple[str, ...], StackedProblem],
               own: tuple[str, ...], s: float, dc: DecoupledConstraint,
               abscissa_bar: float, check_grid: bool) -> str | None:
    """The first check the tightened draw fails once scaled by s, or None.
    It reads each cell of `stacks` (`own` is the draw's) scaled, reduced
    once; all share `dc`, since the folded M reads neither c nor d."""
    dt = scenario.solver.dt
    rp = _scaled(stacks[own], s, scenario.constraint.c)
    try:
        _, y, mu, _ = solve_program(rp)
    except HatallocError:
        return "oracle"
    if np.any(mu < 5e-4) or np.any(y < 0.0):
        return "multipliers/responses"
    if interior_point(rp) is None:
        return "Slater"
    abscissa, radius = _stability_margins(rp, dc, dt)
    if abscissa > abscissa_bar or radius > 1.0 - 1e-9:
        return "stability"
    if not check_grid:
        return None
    # The grid experiment integrates every attitude cell, so each must be
    # stable and reasonably damped, solvable with nonnegative human
    # workloads, and the cells' contrasts must clear their margins.
    lay = scenario.layout
    totals = {}
    for key, cell in stacks.items():
        if key == own:
            cell_rp, margins = rp, (abscissa, radius)
        else:
            cell_rp = _scaled(cell, s, scenario.constraint.c)
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
    tally = Counter()
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence([stream, seed, attempt]))
        draw = _draw_instance(rng, auto_dims, human_dims, attitudes)
        # One stack per draw: every stage below reads its attitude cells.
        stacks = _cell_stacks(draw)
        own = next(key for key, cell in stacks.items() if cell is draw.stacked)
        cells = {key: reduce_stacked(cell, draw.constraint.c) for key, cell in stacks.items()}
        c = _offset_search(list(cells.values()), tally)
        if c is None:
            rejected["tighten"] += 1
            continue
        tightened = _with_offsets(draw, c)
        dc = build_decoupled(tightened)
        s = _normalize_scale(tightened, cells[own].with_offset(c), dc)
        reason = _rejection(tightened, stacks, own, s, dc, abscissa_bar, check_grid)
        if reason is None:
            log.debug("seed %d: accepted draw %d; rejected by %s; the offset screen "
                      "rejected %d draws whole, %d exact offset solves ran",
                      seed, attempt, rejected, tally["screened"], tally["exact_solves"])
            bases = {k: m.base * s for k, m in tightened.human_models.items()}
            return _with_offsets(tightened, c * s, bases)
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
    single, with the chunks rejected and the propagators built), the step
    size it finished with, its last update norm against the tolerance, and
    the attempt that diverged before a `dt` halving."""
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
        "rejected_chunks": record.rejected_chunks,
        "propagator_builds": record.propagator_builds,
        "dt": record.dt,
        "final_update_norm": record.final_update_norm,
        "tolerance": tolerance,
        "failed_attempt": failed,
    }


def _run_scenario(scenario: Scenario, out_dir: str, summary: dict,
                  oracle: bool) -> ExperimentResult:
    """Decouple, integrate, take the KKT residuals and write `trajectory.csv`
    and `summary.json`. With `oracle`, the scenario is solved centrally and
    lifted, and deviation/saddle-distance metrics are recorded against it;
    an instance outside the oracle's scope still runs, without them, and
    `summary["oracle"]` says why."""
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
    rows, totals, terminations, cells = [], {}, {}, {}
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
        terminations[(k1, k2)] = record.termination
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
               "contrast_unconverged_cells": _unconverged_cells(terminations), "cells": cells}
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
