"""The seeded instance generators and the risk-attitude grid.

This module draws instances: `team_scenario`, `crosscheck_scenario` and
`random_scenario`, the attitude cells of a scenario (`with_attitudes`,
`attitude_cells`) and the Fig. 5 contrasts (`GRID_CONTRASTS`,
`CONTRAST_CELLS`, `grid_contrasts`) that both its admission check and the
grid run read. It runs no flow: the drivers that run, report and write a run
are in `runs`, and nothing here imports them.

`team_scenario` generates the benchmark instance: five autonomous agents and
two humans on a random connected graph, quadratic costs, and a two-row shared
constraint (a budget row and a demand row). A draw is accepted only if both
rows are active at the optimum with multipliers bounded away from zero, the
interior is nonempty, human workloads stay nonnegative, the linearized flow
is stable and well damped at the default step size, and the qualitative
risk-attitude orderings hold with clear margins. Rejected draws are redrawn
deterministically, so a seed pins the instance byte for byte.

`_generate` draws its attempts in blocks: the first attempt alone, then
blocks that double in size up to BLOCK_CAP = 8 draws. Each attempt is drawn
from its own seed sequence as raw arrays and laid out once (`stack_parts`,
the loop of `stack_problem`) without building or validating any object, and
`_lay_out` stacks a block's layouts along a leading draw axis (a generator
call's draws share their ids, dims and rows). That block is the only stack
shape the generator makes: a draw's stack is its row of the block (`_row`),
a view. The attitude cells of the whole block are built from it by negating
the gain blocks of the humans whose unit attitude a cell flips, as one stack
with a cell axis after the draw axis on every operator, and reduced in one
pass (`reduce_stacked`); a draw's cells are its row of that reduction
(`ReducedProgram.at`). Every admission stage reads these cells. One screen per
block rates all nine (demand margin, budget fraction) probes of every draw
at once: with its active set fixed, each probe's solution is affine in the
offset c, so one inverse of each draw's Hessian, which its cells share,
gives (x, mu, y) at every probe. The screen rejects a probe only when a
multiplier falls below 1e-2, or a response below 0, by more than SCREEN_TOL
= 1e-6 times the probe's scale (1 + max |c|); a singular or ill-conditioned
matrix turns it off for its own draw. The attempts are then taken in order:
a draw the screen rejects whole counts as a `tighten` rejection; any other
is searched exactly. Each probe the screen keeps solves the draw's cells,
re-targeted by `ReducedProgram.with_offset`, in one stacked pass
(`solve_programs`) that gives each cell the floats it gets alone, so the
offset taken, and every seeded instance, is the exact search's bit for bit.
The "exact offset solves" it counts are the cells a loop over them would
solve, up to and including the first that fails. Draws of the block after
the accepted one are discarded uncounted, so the counts are those of a loop
that draws one attempt at a time.

Only a draw the search tightens is built as validated objects (topology,
costs, constraint, models and a `Scenario` at the tightened offsets), and
that scenario holds the draw's row of the block as its stack
(`Scenario.derive`). Offsets and response bases are then scaled by one
factor s: for quadratic costs with affine responses the optimal point is
exactly linear in (c, base), so normalizing the lifted saddle norm keeps
the flow's velocity small enough for tight per-step descent checks; the
lift reads the draw's row and the own cell's solution that the search found
at c. The remaining checks read the draw's row of the block's cell stack
with d scaled by s, reduced anew at c s (`reduce_stacked`), and
`_rejection` solves these scaled cells in one stacked pass. Its grid checks
run the cheap ones first (every cell's solution, workloads and contrasts)
and the other cells' stability margins, one `eigvals` of the flow's dense M
(`dense_operator` of `fold`) each, last; each counts as "grid", so the
order changes no verdict. A `Scenario` is built
only for the tightened draws and for the accepted one, so each draw is laid
out once and a rejected draw builds no object.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .dynamics import dense_operator, fold, folded_offset
from .errors import NoAdmissibleInstanceError
from .human import AFFINE, HumanResponseModel, attitude_preset
from .model import (
    CouplingConstraint,
    QuadraticCost,
    Scenario,
    ScenarioLayout,
    SolverOptions,
    StackedProblem,
    stack_parts,
)
from .oracle import (
    ReducedProgram,
    Solutions,
    interior_points,
    lift_to_saddle,
    per_matrix,
    reduce_stacked,
    solve_programs,
)
from .reformulation import DecoupledConstraint, build_decoupled
from .topology import NetworkTopology, neighbors

log = logging.getLogger(__name__)

TEAM_DIMS = (3, 5, 4, 2, 1)
TEAM_HUMAN_DIMS = (3, 5)
SADDLE_NORM_TARGET = 0.45
INITIAL_SPEED_CAP = 3.0
ATTITUDE_KINDS = ("risk_seeking", "risk_averse")  # the grid's attitudes, in cell order


def _graph_edges(rng, autonomous, humans, extra_edges) -> frozenset:
    """Edges of a random connected graph, as sorted id pairs; every human
    gets at least one autonomous neighbor."""
    nodes = list(autonomous) + list(humans)
    auto = set(autonomous)
    edges, linked = set(), set()  # linked: the humans with an autonomous neighbor
    for idx in range(1, len(nodes)):
        node, other = nodes[idx], nodes[int(rng.integers(0, idx))]
        edges.add(tuple(sorted((node, other))))
        if node not in auto and other in auto:  # `other` precedes `node` in `nodes`
            linked.add(node)
    for k in humans:
        if k not in linked and autonomous:
            j = autonomous[int(rng.integers(0, len(autonomous)))]
            edges.add(tuple(sorted((k, j))))
    for _ in range(extra_edges):
        if len(nodes) < 2:
            break
        a, b = rng.choice(len(nodes), size=2, replace=False)
        edges.add(tuple(sorted((nodes[a], nodes[b]))))
    return frozenset(edges)


class _Response(NamedTuple):
    """A human's `HumanResponseModel` fields, not yet validated."""

    neighbor_ids: tuple[str, ...]
    gains: dict[str, np.ndarray]
    base: np.ndarray
    attitude: float
    family: str = AFFINE


class _Draw(NamedTuple):
    """One generator attempt as raw arrays, not validated: `_lay_out` lays
    it out in its block, and `_scenario` builds its objects."""

    edges: frozenset
    weights: dict[str, np.ndarray]  # cost weights, autonomous agents first
    a_blocks: dict[str, np.ndarray]
    b_blocks: dict[str, np.ndarray]
    models: dict[str, _Response]
    layout: ScenarioLayout


def _layout(auto_dims, human_dims) -> ScenarioLayout:
    """The layout every draw of a generator call shares: its ids, dims and
    two constraint rows."""
    autonomous = [f"r{idx}" for idx in range(1, len(auto_dims) + 1)]
    humans = [f"h{idx}" for idx in range(1, len(human_dims) + 1)]
    dims = dict(zip(autonomous + humans, auto_dims + human_dims))
    return ScenarioLayout(tuple(sorted(autonomous)), tuple(sorted(humans)), dims, rows=2)


def _raw_draw(rng, auto_dims, human_dims, attitudes, lay: ScenarioLayout) -> _Draw:
    """One generator attempt: its arrays, drawn in a fixed order so that a
    seed pins them, with `lay`, the `_layout` of its dims."""
    autonomous = tuple(f"r{idx}" for idx in range(1, len(auto_dims) + 1))
    humans = tuple(f"h{idx}" for idx in range(1, len(human_dims) + 1))
    dims = lay.dims
    edges = _graph_edges(rng, autonomous, humans, extra_edges=6)

    weights = {}
    for i in autonomous:
        weights[i] = np.diag(rng.uniform(1.0, 8.0, size=dims[i]))
    for pos, k in enumerate(humans):
        weight = np.diag(rng.uniform(1.0, 8.0, size=dims[k]))
        if pos == 0:  # the first human's effort is cheap
            weight = weight * 0.1
        weights[k] = weight

    # Row 1: budget (nonnegative usage coefficients). Row 2: demand
    # (production counts toward a required total). Strong rows keep every
    # multiplier direction firmly coupled to the states, which is what damps
    # the auxiliary/multiplier oscillations of the flow; the deliberately
    # different magnitude ranges stop the two rows from cancelling when their
    # multipliers move together. Both offsets are tightened adaptively
    # afterwards.
    a_blocks = {
        i: np.array([
            rng.uniform(2.5, 4.0, size=dims[i]),
            -rng.normal(1.0, 2.0, size=dims[i]),
        ])
        for i in autonomous
    }
    b_blocks = {
        k: np.array([
            rng.uniform(2.5, 4.0, size=dims[k]),
            -rng.normal(1.2, 1.0, size=dims[k]),
        ])
        for k in humans
    }

    models = {}
    for k in humans:
        # The human's autonomous neighbors in id order, as `neighbors` lists them.
        auto_nbrs = sorted(j for edge in edges if k in edge for j in edge if j in autonomous)
        kind, magnitude = attitudes[k]
        models[k] = _Response(
            neighbor_ids=tuple(auto_nbrs),
            gains={
                j: rng.uniform(0.25, 0.6, size=(dims[k], dims[j]))
                for j in auto_nbrs
            },
            base=rng.uniform(1.2, 2.2, size=dims[k]),
            attitude=attitude_preset(kind, magnitude),
        )

    return _Draw(edges, weights, a_blocks, b_blocks, models, lay)


# The operators `reduce_stacked` reads, which a block of draws stacks.
_BLOCK_FIELDS = ("S", "d", "a_cat", "b_cat", "x_weight", "y_weight")


def _lay_out(draws: list[_Draw]) -> StackedProblem:
    """The block of the draws' layouts (`stack_parts`): one stack whose
    operators that `reduce_stacked` reads carry a leading draw axis. The
    draws share their layout, and none has a softplus human or a schedule,
    so the other fields are every draw's."""
    stacks = [stack_parts(draw.layout, draw.models, draw.a_blocks, draw.b_blocks,
                          draw.weights, schedules={}) for draw in draws]
    return replace(stacks[0], **{name: np.stack([getattr(sp, name) for sp in stacks])
                                 for name in _BLOCK_FIELDS})


def _row(block: StackedProblem, i: int) -> StackedProblem:
    """Draw i's stack in a block (`_lay_out`, or its `_cell_stacks`): a view
    of row i of each of the block's operators."""
    return replace(block, **{name: getattr(block, name)[i] for name in _BLOCK_FIELDS})


def _scenario(draw: _Draw, stacked: StackedProblem, c: np.ndarray) -> Scenario:
    """The draw's validated `Scenario` at constraint offset c, holding
    `stacked`, the draw's row of its block."""
    lay = draw.layout
    scenario = Scenario(
        topology=NetworkTopology(lay.autonomous_ids, lay.human_ids, draw.edges),
        dims=lay.dims,
        costs={a: QuadraticCost(weight) for a, weight in draw.weights.items()},
        constraint=CouplingConstraint(a_blocks=draw.a_blocks, b_blocks=draw.b_blocks, c=c),
        human_models={k: HumanResponseModel(human_id=k, **model._asdict())
                      for k, model in draw.models.items()},
        solver=SolverOptions(tolerance=1e-8),
    )
    scenario.derive("stacked", lambda: stacked)
    return scenario


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


def _cell_stacks(block: StackedProblem, lay: ScenarioLayout,
                 models: list) -> tuple[list[tuple[str, ...]], int, StackedProblem]:
    """`attitude_cells` of every draw of a block (`_lay_out`) as one stack:
    the cells' keys in `attitude_cells` order, the index of the draws' own
    cell, and the block with a cell axis after its draw axis. `models` lists
    each draw's response models (`HumanResponseModel`s or a raw draw's
    `_Response`s).

    A unit attitude only signs its human's gain blocks in S, and generated
    draws have unit attitudes, so a cell negates the blocks of each human
    whose attitude it flips: the floats `stack_problem` lays out for the
    relabeled scenario. The block's other operators are broadcast over the
    cells as read-only views, so every operator has the draw and cell axes
    and `reduce_stacked` gives every field both. The own cell's index is
    the first draw's (a generator call's draws share their attitudes).
    """
    humans = lay.human_ids
    attitudes = np.array([[draw[k].attitude for k in humans] for draw in models])
    if np.any(np.abs(attitudes) != 1.0):
        raise ValueError("attitude cells from one stack need unit attitudes")
    keys = list(product(ATTITUDE_KINDS, repeat=len(humans)))
    units = np.array([[attitude_preset(kind, 1.0) for kind in combo] for combo in keys])
    flips = units != attitudes[:, None, :]  # (draws, cells, humans)
    own = int(np.flatnonzero(~flips[0].any(axis=1))[0])
    # Per draw, each human's gain blocks: the columns of its autonomous neighbors.
    gains = np.zeros((len(models), len(humans), lay.x_dim), dtype=bool)
    for b, draw in enumerate(models):
        for h, k in enumerate(humans):
            for j in draw[k].neighbor_ids:
                gains[b, h, lay.x_slice(j)] = True
    rows = np.repeat(np.arange(len(humans)), [lay.dims[k] for k in humans])
    negated = flips[:, :, rows, None] & gains[:, None, rows, :]  # (draws, cells, y, x)
    S = block.S[:, None] * np.where(negated, -1.0, 1.0)
    axes = S.shape[:2]  # (draws, cells)
    return keys, own, replace(block, S=S, **{
        name: np.broadcast_to(getattr(block, name)[:, None], axes + getattr(block, name).shape[1:])
        for name in _BLOCK_FIELDS if name != "S"})


DEMAND_MARGINS = (1.0, 1.8, 2.8)
BUDGET_FRACTIONS = (0.85, 0.7, 0.55)
# The screen's slack per unit of probe scale 1 + max |c|: it rejects a probe
# only when a multiplier falls below 1e-2 or a response below 0 by more.
SCREEN_TOL = 1e-6
# Above this 1-norm condition number a matrix the screen inverts counts as
# singular, so the maps' roundoff stays far below SCREEN_TOL. Over 300 team
# draws and crosscheck 1-30, H stayed below ~100 and M below ~60.
SCREEN_MAX_COND = 1e6


def _inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of matrices, and which of them the screen may
    use: not one that is singular or worse conditioned than
    SCREEN_MAX_COND. The identity takes their place, so that the arithmetic
    that reads it stays finite."""
    eye = np.eye(a.shape[-1])
    inv, singular = per_matrix(np.linalg.inv, a.reshape(-1, *a.shape[-2:]))
    inv, singular = inv.reshape(a.shape), singular.reshape(a.shape[:-2])
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    usable = (norm1 <= SCREEN_MAX_COND) & ~singular
    return np.where(usable[..., None, None], inv, eye), usable


def _demands(production):
    """The probed demand offsets: a definite margin above `production`, one
    per DEMAND_MARGINS along a new last axis."""
    production = np.asarray(production)[..., None]
    return production + np.array(DEMAND_MARGINS) * (0.5 + 0.5 * np.abs(production))


def _screen(cells: ReducedProgram) -> np.ndarray:
    """Which (demand margin, budget fraction) probes of `_offset_search` may
    pass, as a boolean grid; False only where the exact search must fail.
    `cells` is stacked along a leading cell axis, as `reduce_stacked` lays
    out a draw's cell stack; a block's cell stack adds a draw axis before
    it, and gets one grid per draw.

    Each probe's solution is the KKT point of a known active set A, affine in
    the offset c (Bemporad et al., Automatica 38(1), 2002): at the slack
    offset -1e6 no row binds, at a demand probe (budget offset -1e6) only the
    demand row does, and in every cell of an admissible probe (multipliers
    above 1e-2) both do. With the free minimizer x0 = -H^-1 g, V = H^-1 G_c^T,
    the Schur complement M = G_c V and the row levels r = G_c x0 + B d
    (Nocedal & Wright, ch. 16.2), that point is

        mu_A = M_AA^-1 (r_A + c_A),   x = x0 - V_A mu_A,   y = S x + d,

    so one inverse of H gives every probe of every cell. The cells of a draw
    share H bit for bit (a cell negates whole row blocks of S, and the human
    cost weights are block diagonal), so the first cell's is inverted. A
    probe is rejected when some cell's demand or both-row multiplier lies
    below 1e-2, or a response below 0, by more than SCREEN_TOL times the
    probe's scale 1 + max |c|. When H or some cell's M is singular or
    ill-conditioned, every probe of that draw passes.
    """
    G = cells.G_c  # (..., cells, 2, n)
    H_inv, usable = _inverse(cells.H[..., 0, :, :])
    H_inv = H_inv[..., None, :, :]  # every cell's
    x0 = -H_inv @ cells.g[..., None]  # (..., cells, n, 1)
    V = H_inv @ G.swapaxes(-1, -2)
    M = G @ V
    M_inv, usable_cells = _inverse(M)
    usable &= np.all(usable_cells, axis=-1)
    # A draw whose screen is off may have M_22 = 0: keep its division finite.
    M = np.where(usable[..., None, None, None], M, np.eye(2))
    r = G @ x0 + cells.b_d[..., None]  # (..., cells, 2, 1)

    # Demand probes: the demand row alone binds, mu_2 = (r_2 + c_2) / M_22.
    demands = _demands(np.max(-r[..., 1, 0], axis=-1))  # (..., margins)
    mu_demand = (r[..., 1, :] + demands[..., None, :]) / M[..., 1, 1:]  # (..., cells, margins)
    tau = SCREEN_TOL * (1.0 + np.abs(demands))
    passes = np.all(mu_demand >= 1e-2 - tau[..., None, :], axis=-2)
    usages = r[..., 0, :] - M[..., 0, 1:] * mu_demand  # the budget row's G_c x + B d

    # Budget probes: both rows bind.
    budgets = -np.multiply.outer(usages.min(axis=-2), BUDGET_FRACTIONS)
    c = np.stack([budgets, np.broadcast_to(demands[..., None], budgets.shape)], axis=-3)
    c = c.reshape(*c.shape[:-2], -1)  # every (margin, fraction) probe, one per column
    tau = SCREEN_TOL * (1.0 + np.abs(c).max(axis=-2))[..., None, None, :]
    mu = M_inv @ (r + c[..., None, :, :])  # (..., cells, 2, probes)
    y = cells.S @ (x0 - V @ mu) + cells.d[..., None]
    passes = np.repeat(passes, len(BUDGET_FRACTIONS), axis=-1)
    passes &= np.all(mu >= 1e-2 - tau, axis=(-3, -2))
    passes &= np.all(y >= -tau, axis=(-3, -2))
    passes |= ~usable[..., None]
    return passes.reshape(*passes.shape[:-1], len(DEMAND_MARGINS), len(BUDGET_FRACTIONS))


def _passes(verdicts: np.ndarray, tally: Counter) -> bool:
    """Whether every cell of a probe passes, by their `verdicts` in cell
    order. `tally` counts the cells that a loop over the cells, stopping at
    the first that fails, would solve ("exact_solves")."""
    failed = np.flatnonzero(~verdicts)
    tally["exact_solves"] += int(failed[0]) + 1 if failed.size else len(verdicts)
    return not failed.size


def _offset_search(cells: ReducedProgram, passes: np.ndarray,
                   tally: Counter) -> tuple[np.ndarray, Solutions] | None:
    """Demand and budget offsets c at which both constraint rows bind at the
    optimum of every attitude cell (`cells`, a stack of their reduced
    programs), with the cells' solutions at c; or None.

    The production requirement must be active regardless of attitudes,
    otherwise withdrawing humans would not force the autonomous agents to
    compensate; the budget likewise. The demand is set a definite margin
    above the largest cost-minimal production level across cells, the budget
    a factor below the smallest demand-constrained usage. Only the probes
    that `passes`, the cells' `_screen` grid, keeps (at least one) are solved
    exactly, each probe's cells in one stacked pass (`solve_programs`).
    `tally` counts the exact solves ("exact_solves") as `_passes` does."""
    slack_c = np.array([-1e6, -1e6])
    probe = cells.with_offset(slack_c)
    slack = solve_programs(probe)
    if not _passes(slack.solved, tally):
        return None
    # Row levels as G_c x + h_c - c: the float ops of a scenario reduced at c.
    productions = -_row_levels(probe, slack, slack_c)[:, 1]
    for demand, probes in zip(_demands(max(productions)), passes):
        if not probes.any():
            continue
        c_demand = np.array([-1e6, demand])
        probe = cells.with_offset(c_demand)
        demanded = solve_programs(probe)
        if not _passes(demanded.solved & ~(demanded.mu[:, 1] <= 1e-2), tally):
            continue
        usages = _row_levels(probe, demanded, c_demand)[:, 0]
        if min(usages) <= 0.05:
            continue
        for theta, screened_in in zip(BUDGET_FRACTIONS, probes):
            if not screened_in:
                continue
            c_try = np.array([-theta * min(usages), demand])
            probe = cells.with_offset(c_try)
            found = solve_programs(probe)
            admissible = (found.solved & np.all(found.mu > 1e-2, axis=1)
                          & np.all(found.y >= 0.0, axis=1))
            if admissible.any():
                admissible &= [point is not None for point in interior_points(probe)]
            if _passes(admissible, tally):
                return c_try, found
    return None


def _row_levels(probe: ReducedProgram, solved: Solutions, c: np.ndarray) -> np.ndarray:
    """Each cell's G_c x + h_c - c at its solution x of `probe`."""
    return (probe.G_c @ solved.x[..., None])[..., 0] + probe.h_c - c


def _normalize_scale(scenario: Scenario, rp: ReducedProgram, dc: DecoupledConstraint,
                     x: np.ndarray, mu: np.ndarray) -> float:
    """The factor s for (c, bases) that keeps the lifted saddle norm and the
    initial flow speed small, from the scenario's `rp`, its solution (x, mu)
    and `dc`. Of `rp` it reads H's size, g and d (`folded_offset`), which
    no offset changes, so the program may be reduced at any offset.

    The optimum of a quadratic/affine instance is exactly linear in these
    offsets, and so is the flow velocity at the all-zero start, so one scale
    factor controls both; keeping them small bounds the integrator's
    per-step overshoot. The rescaled instance keeps its active set and
    structure; its zero-start speed is at most `INITIAL_SPEED_CAP`.
    """
    _, lam, eta = lift_to_saddle(scenario, dc, x, mu)
    norm = float(np.sqrt(eta @ eta + lam @ lam))
    # The velocity at w = 0 is the folded offset b = (dx, dz, gap).
    b = folded_offset(rp, dc)
    n, q = rp.H.shape[0], dc.block_dim
    dx, dz, dlam = b[:n], b[n:n + q], np.maximum(0.0, b[n + q:])
    speed = float(np.sqrt(dx @ dx + dz @ dz + dlam @ dlam))
    return min(SADDLE_NORM_TARGET / norm, INITIAL_SPEED_CAP / max(speed, 1e-12))


def _stability_margins(rp: ReducedProgram, dc: DecoupledConstraint,
                       dt: float) -> tuple[float, float]:
    """(spectral abscissa, forward-Euler radius at step dt) of the all-active
    linearization, the flow's affine operator M (`fold`) with every
    multiplier unclamped.

    Shared z/lambda consensus shifts are genuinely neutral directions of the
    flow and never excited from consensus-free initial data, so exact-zero
    eigenvalues are excluded.
    """
    eigs = np.linalg.eigvals(dense_operator(*fold(rp, dc), rp.H.shape[0] + 2 * dc.block_dim))
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
CONTRAST_CELLS = dict(zip(GRID_CONTRASTS, (
    (0, (_SEEK, _SEEK), (_AVERSE, _AVERSE)),
    (1, (_SEEK, _SEEK), (_AVERSE, _SEEK)),
    (1, (_SEEK, _AVERSE), (_AVERSE, _AVERSE)),
)))


def grid_contrasts(totals: dict[tuple[str, ...], tuple[float, float]]) -> dict[str, float]:
    """The three Fig. 5 contrasts, keyed by `GRID_CONTRASTS`, from each
    attitude cell's (autonomous workload, cost)."""
    return {name: totals[a][i] - totals[b][i] for name, (i, a, b) in CONTRAST_CELLS.items()}


REJECTIONS = ("tighten", "oracle", "multipliers/responses", "Slater", "stability", "grid")


def _rejection(scenario: Scenario, scaled: ReducedProgram, keys: list[tuple[str, ...]],
               own: int, dc: DecoupledConstraint, abscissa_bar: float,
               check_grid: bool) -> str | None:
    """The first check the tightened draw fails once scaled, or None. It
    reads `scaled`, the stack of the draw's attitude cells reduced with
    their bases and offset scaled by s (keyed by `keys`; `own` is the
    draw's own cell), solved in one stacked pass; all share `dc`, since the
    folded M reads neither c nor d.
    The grid's checks all count as "grid", so its cheap ones run first."""
    dt = scenario.solver.dt
    solved = solve_programs(scaled)
    if solved.error[own] is not None:
        return "oracle"
    if np.any(solved.mu[own] < 5e-4) or np.any(solved.y[own] < 0.0):
        return "multipliers/responses"
    if interior_points(scaled)[own] is None:
        return "Slater"
    abscissa, radius = _stability_margins(scaled.at(own), dc, dt)
    if abscissa > abscissa_bar or radius > 1.0 - 1e-9:
        return "stability"
    if not check_grid:
        return None
    # The grid experiment integrates every attitude cell, so each must be
    # solvable with nonnegative human workloads, the cells' contrasts must
    # clear their margins, and each must be stable and reasonably damped.
    lay = scenario.layout
    if not solved.solved.all() or np.any(solved.y < -1e-9):
        return "grid"
    totals = {key: (sum(float(np.sum(np.abs(x[lay.x_slice(i)]))) for i in lay.autonomous_ids),
                    float(value))
              for key, x, value in zip(keys, solved.x, solved.value)}
    contrasts = tuple(grid_contrasts(totals).values())
    if contrasts[0] < 5e-3 or contrasts[1] < 2e-4 or contrasts[2] < 2e-4:
        return "grid"
    for cell in range(len(keys)):
        margins = (abscissa, radius) if cell == own else _stability_margins(scaled.at(cell), dc, dt)
        if margins[0] > -0.03 or margins[1] > 1.0 - 1e-9:
            return "grid"
    return None


# The generator screens its attempts in blocks: the first attempt alone, then
# blocks that double in size up to this many draws.
BLOCK_CAP = 8


def _blocks(max_attempts: int):
    """The generator's blocks of attempts, as ranges, in order."""
    start, size = 0, 1
    while start < max_attempts:
        yield range(start, min(start + size, max_attempts))
        start, size = start + size, min(2 * size, BLOCK_CAP)


def _generate(seed: int, auto_dims, human_dims, attitudes, abscissa_bar,
              check_grid, stream: int, max_attempts: int = 400) -> Scenario:
    rejected = dict.fromkeys(REJECTIONS, 0)
    tally = Counter()
    lay = _layout(auto_dims, human_dims)
    for attempts in _blocks(max_attempts):
        # Raw arrays and their stacks, one block of them: objects are built
        # only for the draws the offset search tightens.
        draws = [_raw_draw(np.random.default_rng(np.random.SeedSequence([stream, seed, attempt])),
                           auto_dims, human_dims, attitudes, lay)
                 for attempt in attempts]
        block = _lay_out(draws)
        keys, own, cells = _cell_stacks(block, lay, [draw.models for draw in draws])
        reduced = reduce_stacked(cells, np.zeros(lay.rows))
        for i, (attempt, draw, passes) in enumerate(zip(attempts, draws, _screen(reduced))):
            if not passes.any():
                tally["screened"] += 1
                rejected["tighten"] += 1
                continue
            draw_cells = reduced.at(i)
            found = _offset_search(draw_cells, passes, tally)
            if found is None:
                rejected["tighten"] += 1
                continue
            c, at_c = found
            tally["built"] += 1
            tightened = _scenario(draw, _row(block, i), c)
            dc = build_decoupled(tightened)
            s = _normalize_scale(tightened, draw_cells.at(own), dc, at_c.x[own], at_c.mu[own])
            # `stack_problem` copies each base into d, so d * s is the scaled stack.
            row = _row(cells, i)
            scaled = reduce_stacked(replace(row, d=row.d * s), c * s)
            reason = _rejection(tightened, scaled, keys, own, dc, abscissa_bar, check_grid)
            if reason is None:
                log.debug("seed %d: accepted draw %d; rejected by %s; the offset screen "
                          "rejected %d draws whole, %d exact offset solves ran, %d draws "
                          "were built as objects", seed, attempt, rejected, tally["screened"],
                          tally["exact_solves"], tally["built"])
                models = {k: replace(m, base=m.base * s)
                          for k, m in tightened.human_models.items()}
                return replace(tightened, constraint=replace(tightened.constraint, c=c * s),
                               human_models=models)
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
    topo = NetworkTopology(autonomous, humans, _graph_edges(
        rng, autonomous, humans, extra_edges=int(rng.integers(0, 3))
    ))

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
