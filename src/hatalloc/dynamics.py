"""Projected saddle-point flow and its time integration.

The flow descends the Lagrangian in the primal variables (x, z) and ascends
in the multipliers, with a projection keeping every multiplier nonnegative:

    dx      = -( grad F + J^T grad G + [a_bar ; b_bar J]^T lambda )
    dz      = -( l_bar lambda )
    dlambda = [ [a_bar x ; b_bar y] + l_bar z + c_split ]^+_lambda

where y is the (derived, never integrated) human response and J its Jacobian
with respect to the autonomous states. Discretization is projected forward
Euler: the multiplier step is clamped at zero, which is the consistent
discrete counterpart of the projection. l_bar = L (x) I_r is applied on the
node Laplacian L (`DecoupledConstraint.lift_apply`), never as a dense matrix.

`integrate` steps one stacked state w = [x, z, lambda]. When every cost is
quadratic and every human affine, the response y = S x + d is folded into
one sparse affine operator M (`fold`) and offset b (`folded_offset`),
stepped by `FlowEngine.velocity`, from the start or, with a schedule, from
its settle time on, where the parameters are the true ones:

    dx      = -g - H x - C^T lambda,   C = [a_bar ; b_bar S]
    dz      = -l_bar lambda
    gap     = C x + l_bar z + b_g,     b_g = [0 ; b_bar d] + c_split

where H and g come from the scenario's one reduction (`oracle.reduction`
of `scenario.stacked`), so the flow and the oracle step one assembled
problem and reduce it once. The velocity is M w + b; M is graph-local, kept
as row, column and value arrays of its O(edges) nonzeros in column order,
which `bincount` sums row by row in ascending column order, folded once per
scenario and held by `Scenario.derive` for the engines of the scenario and
its `with_solver` copies whose blocks are the scenario's own
(`FlowEngine.folded`); each engine takes its own b, which reads c_split.
Every other scenario takes its velocity from `FlowEngine.rhs`, which reads
the softplus rows and the schedules row by row from the same stack, as the
oracle reads S and d.

Projected Euler on the affine flow is piecewise affine, one piece per set S
of clamped multipliers (those at zero whose gap is <= 0, which the clamp
keeps at zero). While S stays fixed and every other multiplier positive, a
step is w <- w + dt D_S (M w + b), where D_S zeroes the rows of S, and the
realized velocity obeys v_{k+1} = A_S v_k with A_S = I + dt D_S M; S empty
gives A = I + dt M. `integrate` then takes chunks of CHUNK steps, up to
CHUNKS_PER_PRODUCT of them per matrix product: with
P_S = [I; A_S; ...; A_S^(CHUNK-1)] and the velocities at the chunks' starts
U = [v_k, A_S^CHUNK v_k, A_S^(2 CHUNK) v_k, ...] as columns, P_S U, read
chunk by chunk as CHUNK rows of N, holds the next velocities V and the
running sums w_k + dt V_0 + ... the next states W. One product streams P_S
once for all its chunks, where one matrix-vector product per chunk streams
it once per chunk. The update norms are the row norms of V, not of the
state differences, which would multiply state roundoff by 1/dt; the saddle
distance, the sup-norm and the samples are read from the rows. A chunk is
taken only if every free multiplier in its rows of W is positive, every
clamped gap M_S w + b_S at a state it steps from is <= 0, its states and
the squares of its update norms are finite, and its update norms exceed
tolerance (1 + CHUNK_GUARD); a product takes the chunks before the first
that fails. That chunk's CHUNK steps go singly, so a clamp change, the
stopping step and a `DivergenceError` are always decided by the single-step
arithmetic. A single step diverges when its velocity or state is not
finite, or when they are but the squares of its update norm overflow.

A run's propagators, the powers I, A_S, ..., A_S^CHUNK ((CHUNK + 1) N^2
floats, 0.96 MB at the benchmark team's N = 43), are built from the dense M
(`dense_operator`) as `_ChunkPlan` describes, and only when
N^2 <= nnz(M) + STEP_OVERHEAD_ENTRIES: the benchmark's 7-agent team chunks,
large_team's 250 agents (N = 1,896) keep the sparse step. Euler at step dt
damps the all-active flow only when every non-null eigenvalue mu of M has
|1 + dt mu| <= 1; `euler_spectrum` reads them, and it is the generator's
stability check.

A run is one loop over one step source. The source (`_steps`) decides how
the steps are taken: it attempts the chunks, steps singly where a chunk is
skipped or fails, and raises `DivergenceError`. It yields runs of states: a
product's rows, or one single step's state as a one-row view. The loop's
body in `_run_flow` is the only consumer, written once for both. It updates
the sup-norm and the saddle distance (a single step's with `@`, as the
reference takes it, a chunk's rows with one einsum; the two differ in the
last bit), keeps the samples of step 0, every stride step and the stop
step, and decides the stop: the update norm at or below the tolerance, or
the step budget spent.

A state (`SystemState`) is one stacked w, whose per-agent blocks are views.
A run starts from `initial_state`, the scenario's (already checked) overrides
written into zeros, steps a copy of its w and returns a copy of the final
one. Explicit finiteness checks decide divergence, so numpy's overflow and
invalid-value warnings are off while a run steps and while a propagator is
built. `kkt_residual` reads the optimality residuals from one call of the
reference velocity `FlowEngine.rhs`, whose gap is `decoupled_residual`: it
shares no arithmetic with the folded M, so a wrong `fold` shows in the
residuals of every affine run. It and `gradient_check` read slices of a
state's w.

The reference path is `FlowEngine.rhs` stepped by `_step_arrays`, one
projected Euler step on the stacked arrays. The per-agent rounds of `agents`
and the sparse operator are held to it, and both velocities give the same
trajectory to roundoff. The states at the sampled steps are kept during the
run and evaluated SAMPLE_BLOCK at a time in one stacked pass each, a block
of `trajectory.csv`'s columns; the blocks are joined once at the end into
the record's `samples`, one record array. The state-level functions in
`metrics` are the reference the samples agree with.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import DimensionMismatchError, DivergenceError
from .human import logistic, softplus
from .model import Scenario, ScenarioLayout, central_difference_error
from .oracle import ReducedProgram, reduction
from .reformulation import (
    DecoupledConstraint,
    build_decoupled,
    decoupled_blocks,
    decoupled_residual,
)
from .topology import lift_entries


@dataclass(frozen=True, eq=False)
class SystemState:
    """Phase point of the flow: one stacked w = [x, z, lambda] in layout
    order, which the package reads, and the time t. Human responses are
    derived from x on demand, never stored.

    `x` maps each autonomous id, `z` and `lam` each vertex (one entry per
    constraint row), to its block of w, a view, for files, tests and README's
    quick start. `state.x[i] = v` writes v into w; a block of another shape
    raises `DimensionMismatchError`, and no block can be deleted or rebound.
    A state owns the w it is given: `initial_state`, `integrate` and
    `DistributedRunner.state` return a fresh one each, and no function of the
    package writes into a state it is given or keeps it."""

    layout: ScenarioLayout
    w: np.ndarray
    t: float = 0.0
    x: Mapping[str, np.ndarray] = field(init=False, repr=False)
    z: Mapping[str, np.ndarray] = field(init=False, repr=False)
    lam: Mapping[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        lay = self.layout
        size = lay.x_dim + 2 * lay.block_dim
        if self.w.shape != (size,) or self.w.dtype != np.float64:
            raise DimensionMismatchError(f"w must be {size} floats: {self.w.dtype} {self.w.shape}")
        x, z, lam = lay.parts(self.w)
        object.__setattr__(self, "x", _Blocks(x, lay.autonomous_ids, lay.x_slice))
        object.__setattr__(self, "z", _Blocks(z, lay.node_order, lay.node_slice))
        object.__setattr__(self, "lam", _Blocks(lam, lay.node_order, lay.node_slice))


class _Blocks(Mapping):
    """One part of a state's w as per-agent blocks, in layout order: each
    block a view into w, and assigning one writes into w."""

    def __init__(self, part: np.ndarray, ids: tuple[str, ...], block):
        self._part, self._ids, self._block = part, ids, block

    def __getitem__(self, agent_id: str) -> np.ndarray:
        return self._part[self._block(agent_id)]

    def __setitem__(self, agent_id: str, value) -> None:
        block, value = self[agent_id], np.asarray(value, dtype=float)
        if value.shape != block.shape:
            raise DimensionMismatchError(
                f"block '{agent_id}' has shape {block.shape}, not {value.shape}")
        block[...] = value

    def __delitem__(self, agent_id: str):
        raise TypeError(f"block '{agent_id}' is part of the state's w and cannot be deleted")

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def initial_state(scenario: Scenario) -> SystemState:
    """The scenario's `initial_state` overrides written into a zero state;
    `Scenario` checked them when it was built."""
    lay = scenario.layout
    state = SystemState(lay, np.zeros(lay.x_dim + 2 * lay.block_dim))
    doc = scenario.initial_state or {}
    for blocks, key in ((state.x, "x"), (state.z, "z"), (state.lam, "lambda")):
        for agent_id, raw in doc.get(key, {}).items():
            blocks[agent_id] = raw
    return state


class FlowEngine:
    """Vectorized evaluator of the flow over stacked state vectors.

    Reads everything it evaluates from `scenario.stacked`: the response
    map S x + d, the softplus rows with their sharpness, and the schedule
    deltas row by row, so the right-hand side is a handful of mat-vecs and
    indexed numpy expressions, with no loop over agents, which is what makes
    long horizons cheap. `velocity` is what `integrate` steps with: the
    sparse affine operator where the scenario allows it (with a schedule,
    once it has settled), `rhs` otherwise. The approximation schedules are
    the scenario's own (`scenario.schedules`).
    """

    def __init__(self, scenario: Scenario, dc: DecoupledConstraint | None = None):
        self.scenario = scenario
        self.dc = dc if dc is not None else build_decoupled(scenario)
        self.layout = lay = scenario.layout
        self.stacked = sp = scenario.stacked
        self._rm = self.dc.rows * len(lay.autonomous_ids)
        self._quadratic = sp.x_weight is not None
        # (stacked cost weight, agent ids, block slicer) of the x and y parts.
        self._parts = ((sp.x_weight, lay.autonomous_ids, lay.x_slice),
                       (sp.y_weight, lay.human_ids, lay.y_slice))

        self._settle_time = float(sp.settle.max(initial=0.0))
        # From `_fold_time` on the flow is affine and `velocity` steps the
        # folded operator: from the start without a schedule, once it has
        # settled with one, never with softplus rows or callback costs.
        foldable = self._quadratic and not sp.soft.size
        self._fold_time = self._settle_time if foldable else math.inf
        # Folded on first use, so engines built only to evaluate costs or
        # residuals never pay for it.
        self._folded = None

    # -- stacked parameter and response evaluation --------------------------

    def _params(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(S, d) at time t: each scheduled row still settling gets its
        delta scaled by the remaining fraction 1 - t/settle."""
        sp = self.stacked
        if t >= self._settle_time:
            return sp.S, sp.d
        phi = 1.0 - t / sp.settle
        live = phi > 0.0
        S, d = sp.S.copy(), sp.d.copy()
        S[sp.scheduled[live]] += phi[live, None] * sp.S_delta[live]
        d[sp.scheduled[live]] += phi[live] * sp.d_delta[live]
        return S, d

    def _activate(self, pre: np.ndarray) -> np.ndarray:
        soft = self.stacked.soft
        if not soft.size:
            return pre
        y = pre.copy()
        y[..., soft] = softplus(pre[..., soft], self.stacked.beta)
        return y

    def _chain_scale(self, w: np.ndarray, pre: np.ndarray) -> np.ndarray:
        """Multiply by the activation derivative (identity for affine rows)."""
        soft = self.stacked.soft
        if not soft.size:
            return w
        out = w.copy()
        out[soft] = logistic(pre[soft], self.stacked.beta) * w[soft]
        return out

    def _respond(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, pre-activation S x + d, response) at time t."""
        S, d = self._params(t)
        pre = S @ x + d
        return S, pre, self._activate(pre)

    def response(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Stacked human response and its pre-activation at time t."""
        _, pre, y = self._respond(x, t)
        return y, pre

    # -- cost terms ----------------------------------------------------------

    def _cost_gradient(self, v: np.ndarray, weight, ids, block) -> np.ndarray:
        """Gradient of the costs of one part (x or y) at its values v: one
        stacked mat-vec when every cost is quadratic, else each agent's own
        `gradient` on its block."""
        if self._quadratic:
            return 2.0 * (weight @ v)
        out = np.empty(v.shape)
        for agent_id in ids:
            sl = block(agent_id)
            out[sl] = self.scenario.costs[agent_id].gradient(v[sl])
        return out

    def objective_value(self, x: np.ndarray, y: np.ndarray) -> float:
        if self._quadratic:
            sp = self.stacked
            return float(x @ (sp.x_weight @ x) + y @ (sp.y_weight @ y))
        total = 0.0
        for v, (_, ids, block) in zip((x, y), self._parts):
            for agent_id in ids:
                total += self.scenario.costs[agent_id].value(v[block(agent_id)])
        return total

    # -- flow ----------------------------------------------------------------

    def lagrangian_gradient_x(self, x, lam, t) -> tuple[np.ndarray, np.ndarray]:
        """x-gradient of the Lagrangian, and the response y it was taken at."""
        S, pre, y = self._respond(x, t)
        x_part, y_part = self._parts
        w = self._cost_gradient(y, *y_part) + self.dc.b_bar.T @ lam[self._rm:]
        grad = self._cost_gradient(x, *x_part) + S.T @ self._chain_scale(w, pre) \
            + self.dc.a_bar.T @ lam[:self._rm]
        return grad, y

    def rhs(self, x, z, lam, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dx, dz, raw multiplier gradient) at the given stacked state."""
        grad, y = self.lagrangian_gradient_x(x, lam, t)
        return -grad, -self.dc.lift_apply(lam), decoupled_residual(self.dc, x, y, z)

    def folded(self):
        """(rows, cols, values) of M (`fold`) and b (`folded_offset`) of the
        scenario's `reduction`, on the first call; read only once the flow
        folds, which covers the reduction's quadratic costs. The reduction is
        unchecked, so one that is not finite folds and the flow diverges.
        When the engine's blocks are the scenario's own `decoupled_blocks`
        (every `build_decoupled` of the scenario and of its `with_solver`
        copies), M is held by `scenario.derive`; an engine with other blocks
        folds its own M and holds nothing. b reads `c_split`, so each engine
        takes its own."""
        if self._folded is None:
            scenario, rp, dc = self.scenario, reduction(self.scenario), self.dc
            own = all(a is b for a, b in zip(decoupled_blocks(scenario),
                                             (dc.a_bar, dc.b_bar, dc.laplacian)))
            triplets = scenario.derive("fold", lambda: fold(rp, dc)) if own else fold(rp, dc)
            self._folded = (*triplets, folded_offset(rp, dc))
        return self._folded

    def velocity(self, w: np.ndarray, t: float, out: np.ndarray) -> None:
        """Write (dx, dz, raw multiplier gradient) at w = [x, z, lambda] into out."""
        if t < self._fold_time:
            out[:] = np.concatenate(self.rhs(*self.layout.parts(w), t))
            return
        rows, cols, vals, b = self.folded()
        np.add(np.bincount(rows, vals * w[cols], minlength=out.size), b, out=out)

    def lagrangian_value(self, x, z, lam, t) -> float:
        y, _ = self.response(x, t)
        return self.objective_value(x, y) + float(lam @ decoupled_residual(self.dc, x, y, z))

    def stack_state(self, state: SystemState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, lambda) of the state's w, as views; `bench/` reads it, the
        package reads `layout.parts(state.w)`."""
        return self.layout.parts(state.w)


def fold(rp: ReducedProgram, dc: DecoupledConstraint):
    """Nonzeros of M in column order (rows, cols, values), the one builder of
    M = [[-H, 0, -C^T], [0, 0, -l_bar], [C, l_bar, 0]], with H from the
    reduced program, C = [a_bar ; b_bar S], and the l_bar blocks read from
    the node Laplacian, never from the dense lift. H and C's two blocks are
    each scanned once, flat, and the entries are put in order by one sort of
    their flat indices into M^T, which are distinct: by column, and within a
    column by row. Each row's entries still come in ascending column order,
    so `bincount` adds every row's products in the order a row-ordered list
    gives them, and consecutive adds land on different rows."""
    n, q = rp.H.shape[0], dc.block_dim
    a_bar, b_s = dc.a_bar, dc.b_bar @ rp.S
    h = np.flatnonzero(rp.H != 0.0)
    a, s = np.flatnonzero(a_bar != 0.0), np.flatnonzero(b_s != 0.0)
    hr, hc = np.divmod(h, n)
    cr, cc = np.divmod(np.concatenate([a, a_bar.size + s]), n)  # flat indices into C
    cv = np.concatenate([a_bar.take(a), b_s.take(s)])
    lr, lc, lv = lift_entries(dc.laplacian, dc.rows)
    rows = np.concatenate([hr, cc, n + lr, n + q + cr, n + q + lr])
    cols = np.concatenate([hc, n + q + cr, n + q + lc, cc, n + lc])
    vals = np.concatenate([-rp.H.take(h), -cv, -lv, cv, lv])
    order = np.argsort(cols * (n + 2 * q) + rows, kind="stable")
    return rows[order], cols[order], vals[order]


def folded_offset(rp: ReducedProgram, dc: DecoupledConstraint) -> np.ndarray:
    """b = [b_x ; 0 ; b_g] of the velocity M w + b, b_x = -g from the
    reduced program: the flow's velocity at w = 0, before the multiplier
    clamp."""
    n, q, rm = rp.H.shape[0], dc.block_dim, dc.a_bar.shape[0]
    b = np.zeros(n + 2 * q)
    b[:n] = -rp.g
    b[n + q + rm:] = dc.b_bar @ rp.d
    b[n + q:] += dc.c_split
    return b


def _finite_max(block: np.ndarray) -> float:
    """Largest finite |entry| of a block (inf when none is finite)."""
    finite = block[np.isfinite(block)]
    return float(np.max(np.abs(finite))) if finite.size else float("inf")


def _check_finite(t: float, *blocks: np.ndarray) -> None:
    """Raise `DivergenceError` for the first block with a non-finite entry.
    One reduction tests all blocks; only when it fails are they tested one
    by one, to name the block."""
    if np.isfinite(np.concatenate(blocks)).all():
        return
    for block in blocks:
        if not np.all(np.isfinite(block)):
            raise DivergenceError(t, _finite_max(block))


def _step_arrays(engine: FlowEngine, x, z, lam, t, dt):
    dx, dz, gap = engine.rhs(x, z, lam, t)
    _check_finite(t, dx, dz, gap)
    lam_new = np.maximum(0.0, lam + dt * gap)
    return x + dt * dx, z + dt * dz, lam_new, dx, dz


def integrate(
    scenario: Scenario,
    dc: DecoupledConstraint | None = None,
    reference: tuple[np.ndarray, np.ndarray] | None = None,
    saddle: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[SystemState, metrics.TrajectoryRecord]:
    """Run the flow until the update norm drops below tolerance or time runs out.

    The run starts from `initial_state(scenario)`, uses the step size,
    tolerance and horizon of `scenario.solver` and the approximation
    schedules of `scenario.schedules`. The stopping rule is
    ||(dx, dz, d lambda)||_2 <= tolerance, with the multiplier part measured
    as the realized post-projection change per unit time. On divergence the
    step size is halved and the run restarted once; the record's
    `failed_attempt` then names the step size that diverged. When the
    restart diverges too, its `DivergenceError` carries both attempts.

    `reference` = (x*, y*) enables deviation recording; `saddle` = (eta, lam)
    enables distance-to-saddle recording, tracked at every step. The record's
    `chunked_steps` and `single_steps` count the steps taken in propagated
    chunks and one at a time, `rejected_chunks` the chunks computed and then
    stepped singly (of a product, the first that fails), and
    `propagator_builds` the dense propagators built.
    """
    opts = scenario.solver
    engine = FlowEngine(scenario, dc)
    w0 = initial_state(scenario).w

    try:
        return _run_flow(engine, opts, opts.dt, w0, reference, saddle)
    except DivergenceError as exc:
        failed = metrics.FailedAttempt(dt=opts.dt, t=exc.t, max_entry=exc.max_entry)
    try:
        final, record = _run_flow(engine, opts, opts.dt / 2.0, w0, reference, saddle)
    except DivergenceError as exc:
        exc.attempts = (failed, metrics.FailedAttempt(opts.dt / 2.0, exc.t, exc.max_entry))
        raise
    record.failed_attempt = failed
    return final, record


# Euler steps per chunk of the affine propagator.
CHUNK = 64
# Chunks one matrix product propagates at most: it streams P_S once for all
# of them. At 8, crosscheck seed 29 converges at step 99,683, one past its
# pinned 99,682.
CHUNKS_PER_PRODUCT = 4
# A chunk with an update norm within this relative band above the tolerance
# is stepped singly instead: near the stop the update norm is known only to
# roundoff and falls by only ~5e-5 relative per step, so without the band a
# chunk ending at the stop is taken whenever roundoff puts its norm above the
# tolerance. 40x the largest gap measured between the final update norms of
# chunked and single-step runs (2.5e-5, crosscheck 1-30 at tolerance 1e-10).
CHUNK_GUARD = 1e-3
# The numpy call overhead of one sparse step, in dense multiply-adds: a
# chunk costs N^2 of them per step, a sparse step its nonzeros plus these.
# This puts the crossover at N ~ 130 on random affine teams; with blocked
# chunks the two were measured to cost the same at N ~ 230-245 on a 2-CPU
# machine, propagator builds not counted. The constant stays: no workload
# lies between fig4's N = 43 and large_team's N = 1,896, which either value
# puts on the same side.
STEP_OVERHEAD_ENTRIES = 16384
# Sampled states evaluated per stacked pass, which bounds the memory a run
# holds for states not yet evaluated.
SAMPLE_BLOCK = 256


def dense_operator(rows, cols, vals, size) -> np.ndarray:
    """The folded M as a dense (size, size) array, from `fold`'s nonzeros,
    each of which it lists once."""
    M = np.zeros((size, size))
    M[rows, cols] = vals
    return M


def euler_spectrum(M, dt):
    """(spectral abscissa, forward-Euler radius max |1 + dt mu|) over the
    non-null eigenvalues mu of the all-active operator M. Euler at step dt
    damps every mode only when the radius is below 1.

    Shared z/lambda consensus shifts are genuinely neutral directions of the
    flow and never excited from consensus-free initial data, so eigenvalues
    with |mu| <= 1e-9 are excluded; with none left the result is (0, 1).
    """
    eigs = np.linalg.eigvals(M)
    moving = eigs[np.abs(eigs) > 1e-9]
    if moving.size == 0:
        return 0.0, 1.0
    return float(np.max(moving.real)), float(np.max(np.abs(1.0 + dt * moving)))


def _propagator(M, dt, clamped=(), out=None):
    """The powers I, A_S, ..., A_S^CHUNK as one (CHUNK + 1, N, N) array, with
    A_S = I + dt D_S M, where D_S zeroes the rows `clamped` (indices into w)
    of the clamped multipliers S; S = () gives the unclamped propagator.
    The first CHUNK powers, read as (CHUNK N, N), are P_S; the last steps a
    velocity CHUNK steps ahead. Built into `out`, an array of that shape,
    when one is given. The powers of a stiff A_S overflow without a numpy
    warning; the caller tests them for finiteness.
    """
    size, clamped = M.shape[0], np.asarray(clamped, dtype=int)
    step = np.eye(size)
    step += dt * M
    step[clamped] = 0.0
    step[clamped, clamped] = 1.0
    powers = np.empty((CHUNK + 1, size, size)) if out is None else out
    powers[0] = np.eye(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, CHUNK + 1):
            np.matmul(step, powers[j - 1], out=powers[j])
    return powers


def _chunk(powers, w, v, dt, lam_start, floor, chunks, clamp=None):
    """The next `chunks` chunks of CHUNK Euler steps from w, whose realized
    velocity is v, from one matrix product P_S U (the module docstring), P_S
    the first CHUNK `powers`: its rows V are the next velocities, and their
    running sums from w, accumulated in the order single steps add them, the
    next states W. `clamp` = (M_S^T, b_S) holds the rows of M and b of the
    clamped set S, whose entries of v must be zero; None when S is empty.

    A step fails when it leaves its piece or cannot be decided: a free
    lambda of its state is <= 0, the clamped gap M_S w + b_S at the state it
    steps from is > 0, its state is not finite, or its update norm (a row
    norm of V) is <= `floor` or overflows when squared. Returns (W, the
    update norm of its last step, max |W|) over the leading chunks none of
    whose steps fail, or None when the first chunk has a failing step. The
    single steps decide those cases.
    """
    size, rows = w.size, chunks * CHUNK
    # U is C-ordered: with the transpose of a (chunks, N) array the product
    # took 2-2.5x as long at N = 43.
    U = np.empty((size, chunks))
    U[:, 0] = v
    for j in range(1, chunks):
        U[:, j] = powers[CHUNK] @ U[:, j - 1]
    V = (powers[:CHUNK].reshape(CHUNK * size, size) @ U).reshape(CHUNK, size, chunks)
    V = V.transpose(2, 0, 1).reshape(rows, size)
    W = np.empty((rows + 1, size))
    W[0] = w
    np.multiply(V, dt, out=W[1:])
    np.add.accumulate(W, axis=0, out=W)
    W = W[1:]
    squares = np.einsum("ij,ij->i", V, V)
    sup = max(float(W.max()), -float(W.min()))
    n_free = size - lam_start
    # The clamped gaps at every state the steps step from but the first.
    gaps = None
    if clamp is not None:
        n_free -= clamp[0].shape[1]
        gaps = W[:-1] @ clamp[0] + clamp[1]
    if ((gaps is None or not float(gaps.max()) > 0.0)
            and math.sqrt(float(squares.min())) > floor and sup < math.inf
            and float(squares.max()) < math.inf
            and np.count_nonzero(W[:, lam_start:] > 0.0) == rows * n_free):
        return W, math.sqrt(float(squares[-1])), sup
    # Some step fails: take the chunks before the first one it is in.
    passed = np.sqrt(squares) > floor
    passed &= squares < math.inf
    passed &= np.abs(W).max(axis=1) < math.inf
    passed &= np.count_nonzero(W[:, lam_start:] > 0.0, axis=1) == n_free
    if gaps is not None:
        passed[1:] &= ~(gaps.max(axis=1) > 0.0)
    whole = passed.reshape(chunks, CHUNK).all(axis=1)
    taken = CHUNK * int(np.logical_and.accumulate(whole).sum())
    if not taken:
        return None
    W = W[:taken]
    return W, math.sqrt(float(squares[taken - 1])), max(float(W.max()), -float(W.min()))


class _ChunkPlan:
    """The propagators of a run: the unclamped one, built at the start, and at
    most one for a nonempty clamp set S, built in one reused buffer once S has
    held across two chunk attempts in a row. An attempt under any other S is
    skipped, not computed. The dense M they are built from is made once, and
    only when the flow folds, the run's `n_steps` hold a chunk and N^2 <=
    nnz + STEP_OVERHEAD_ENTRIES; otherwise `free` is None and steps are sparse.
    Powers that are not finite give no propagator: `free` is None, or the
    attempts under that S are skipped, and single steps decide."""

    def __init__(self, engine, dt, n_steps):
        self.dt = dt
        self.free = self.M = None
        # The propagators built, the steps taken in chunks, the chunks
        # computed and then stepped singly.
        self.builds = self.chunked = self.rejected = 0
        if engine._fold_time < math.inf and n_steps >= CHUNK:
            rows, cols, vals, b = engine.folded()
            if b.size * b.size <= rows.size + STEP_OVERHEAD_ENTRIES:
                self.M, self.b = dense_operator(rows, cols, vals, b.size), b
                free = _propagator(self.M, dt)
                self.builds = 1
                self.free = free if np.isfinite(free).all() else None
        self.held = self.seen = None  # clamp set keys
        self.clamped = self.clamp = None

    def choose(self, lam_at, w, vel):
        """(P_S, clamp) for the clamp set at w, or None to skip the attempt.

        S holds the multipliers at zero whose gap is <= 0: projected Euler
        keeps them at zero. Their entries of `vel` are zeroed, which is the
        step's realized velocity."""
        if w[lam_at:].min() > 0.0:
            return self.free, None
        S = lam_at + np.flatnonzero((w[lam_at:] == 0.0) & (vel[lam_at:] <= 0.0))
        if not S.size:
            return self.free, None
        key = S.tobytes()
        if key != self.held:
            if key != self.seen:
                self.seen = key
                return None
            self.clamped = _propagator(self.M, self.dt, S, out=self.clamped)
            self.clamp = None
            if np.isfinite(self.clamped).all():
                self.clamp = (np.ascontiguousarray(self.M[S].T), self.b[S])
            self.held = key
            self.builds += 1
        if self.clamp is None:
            return None
        vel[S] = 0.0
        return self.clamped, self.clamp


def _steps(engine, plan, w0, n_steps, floor):
    """The steps from w0, as runs (W, update norm of its last row, max |W|)
    of the states reached: a chunk product's rows, or a single step as a
    one-row view of the state, which the next step overwrites. No chunk
    passes `n_steps`, where the consumer stops at the latest; `plan` counts
    the chunks."""
    dt, lam_at = plan.dt, w0.size - engine.dc.block_dim
    # Two stacked states [x, z, lambda] that trade places every step, so the
    # pre-step state is still at hand when a step has to be checked.
    w = w0.copy()
    w_new, vel, scratch = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    k = single_until = 0
    while True:
        t = k * dt
        engine.velocity(w, t, vel)
        if (plan.free is not None and k >= single_until and k + CHUNK <= n_steps
                and t >= engine._fold_time):
            chosen = plan.choose(lam_at, w, vel)
            chunks = min(CHUNKS_PER_PRODUCT, (n_steps - k) // CHUNK)
            rows = None
            if chosen is not None:
                powers, clamp = chosen
                rows = _chunk(powers, w, vel, dt, lam_at, floor, chunks, clamp)
            taken = 0 if rows is None else len(rows[0])
            if taken < chunks * CHUNK:
                # The skipped chunk, or the first with a failing step, goes singly.
                plan.rejected += chosen is not None
                single_until = k + taken + CHUNK
            if rows is not None:
                plan.chunked += taken
                yield rows
                w[:] = rows[0][-1]
                k += taken
                continue

        np.multiply(vel, dt, out=w_new)
        w_new += w
        lam, lam_new, dlam = w[lam_at:], w_new[lam_at:], vel[lam_at:]
        np.maximum(lam_new, 0.0, out=lam_new)
        # The multiplier part of the update norm is the realized change.
        np.subtract(lam_new, lam, out=dlam)
        dlam /= dt
        update_norm = math.sqrt(vel @ vel)
        step_sup = float(np.abs(w_new, out=scratch).max())
        if not (math.isfinite(update_norm) and math.isfinite(step_sup)):
            # A non-finite velocity or state reaches one of the two; only
            # then are the blocks checked one by one. When every block is
            # finite, the update's squares overflowed: that diverges too.
            largest = _finite_max(vel)
            engine.velocity(w, t, vel)
            _check_finite(t, *engine.layout.parts(vel), *engine.layout.parts(w_new)[:2])
            if not math.isfinite(update_norm):
                raise DivergenceError(t, largest)
        w, w_new = w_new, w
        k += 1
        yield w[None], update_norm, step_sup


def _run_flow(engine, opts, dt, w0, reference, saddle):
    n_steps = max(1, int(round(opts.max_time / dt)))
    stride = opts.record_stride
    plan = _ChunkPlan(engine, dt, n_steps)
    # The evaluated blocks of samples, each (header, table), and (step,
    # state, saddle distance) of the samples not yet evaluated.
    blocks, pending = [], []
    caller = np.geterr()  # the samples are evaluated under the caller's settings

    def keep(step, state, dist):
        pending.append((step, state.copy(), dist))
        if len(pending) == SAMPLE_BLOCK:
            with np.errstate(**caller):
                blocks.append(_samples(engine, pending, dt, reference))
            pending.clear()

    k, sup_norm = 0, float(np.max(np.abs(w0)))
    w_ref = v_initial = v_now = v_max_inc = None
    # The explicit finiteness checks decide divergence, so neither the saddle
    # distances nor the stepping raise numpy overflow or invalid-value
    # warnings: the distance of a huge start overflows to inf.
    with np.errstate(over="ignore", invalid="ignore"):
        if saddle is not None:
            w_ref = np.concatenate([np.asarray(saddle[0], float), np.asarray(saddle[1], float)])
            diff = w0 - w_ref
            v_now = v_initial = 0.5 * float(diff @ diff)
            v_max_inc = -math.inf
        keep(0, w0, v_now)
        for W, update_norm, sup in _steps(engine, plan, w0, n_steps,
                                          opts.tolerance * (1.0 + CHUNK_GUARD)):
            sup_norm = max(sup_norm, sup)
            if w_ref is not None:
                # Twice the distances: a single step's with `@` on scalars,
                # as the reference takes it, a chunk's rows with one einsum.
                if len(W) == 1:
                    np.subtract(W[0], w_ref, out=diff)
                    twice = (float(diff @ diff),)
                    rise = 0.5 * twice[0] - v_now
                else:
                    D = W - w_ref
                    twice = np.einsum("ij,ij->i", D, D)
                    rise = 0.5 * max(float(twice[0]) - 2.0 * v_now,
                                     float(np.subtract(twice[1:], twice[:-1]).max()))
                v_max_inc = max(v_max_inc, rise)
                v_now = 0.5 * float(twice[-1])
            end = k + len(W)
            converged = update_norm <= opts.tolerance
            stop = converged or end == n_steps
            kept = range((k // stride + 1) * stride, end + 1, stride)
            if stop and end % stride:
                kept = [*kept, end]
            for s in kept:
                keep(s, W[s - k - 1], None if w_ref is None else 0.5 * float(twice[s - k - 1]))
            k = end
            if stop:
                break

    if pending:
        blocks.append(_samples(engine, pending, dt, reference))
    # Every field is a float64, so the C-ordered (samples, fields) table is
    # viewed as records, with no field-by-field copy; a record array's rows
    # have attribute access.
    names = blocks[0][0]
    fields = np.dtype({"names": names, "formats": [float] * len(names)})
    table = np.concatenate([block for _, block in blocks])
    final = SystemState(engine.layout, W[-1].copy(), k * dt)
    return final, metrics.TrajectoryRecord(
        samples=table.view(fields)[:, 0].view(np.recarray),
        termination="converged" if converged else "max_time",
        final_t=final.t,
        steps=k,
        dt=dt,
        state_sup_norm=sup_norm,
        final_update_norm=update_norm,
        v_initial=v_initial,
        v_final=v_now,
        v_max_step_increase=v_max_inc,
        chunked_steps=plan.chunked,
        single_steps=k - plan.chunked,
        rejected_chunks=plan.rejected,
        propagator_builds=plan.builds,
    )


def _samples(engine, sampled, dt, reference):
    """The rows of `TrajectoryRecord.samples` for (step, stacked state,
    saddle distance) triples, evaluated in one stacked pass over the sampled
    states: (`trajectory.csv`'s header, a float table with a row per state
    and a column per header name), `saddle_dist` when the distances are not
    None."""
    lay = engine.layout
    steps, states, dists = zip(*sampled)
    ts = np.array(steps) * dt
    X, Z, L = lay.parts(np.stack(states))
    sp, dc = engine.stacked, engine.dc
    pre = X @ sp.S.T + sp.d
    for i in np.flatnonzero(ts < engine._settle_time):
        S, d = engine._params(ts[i])  # a schedule still settling
        pre[i] = S @ X[i] + d
    Y = engine._activate(pre)

    columns = {"t": ts}
    if reference is not None:
        dX = X - np.asarray(reference[0], float)
        dY = Y - np.asarray(reference[1], float)
        columns["deviation"] = np.einsum("ij,ij->i", dX, dX) + np.einsum("ij,ij->i", dY, dY)
    if dists[0] is not None:
        columns["saddle_dist"] = np.array(dists)
    if engine._quadratic:
        objective = (np.einsum("ij,ij->i", X @ sp.x_weight.T, X)
                     + np.einsum("ij,ij->i", Y @ sp.y_weight.T, Y))
    else:
        objective = np.array([engine.objective_value(x, y) for x, y in zip(X, Y)])
    gap = np.concatenate([X @ dc.a_bar.T, Y @ dc.b_bar.T], axis=1) + dc.lift_apply(Z) + dc.c_split
    columns["max_coupled_residual"] = (
        X @ sp.a_cat.T + Y @ sp.b_cat.T + engine.scenario.constraint.c).max(axis=1)
    columns["min_multiplier"] = L.min(axis=1)
    columns["lagrangian"] = objective + np.einsum("ij,ij->i", L, gap)
    names = [*columns, *(f"workload_{a}" for a in lay.node_order)]
    # The per-agent 1-norms follow: every block is nonempty, so reduceat sums
    # each one.
    return names, np.concatenate([
        np.column_stack([*columns.values()]),
        np.add.reduceat(np.abs(X), [*lay.x_offsets.values()], axis=1),
        np.add.reduceat(np.abs(Y), [*lay.y_offsets.values()], axis=1),
    ], axis=1)


GRADIENT_CHECK_STEP = 1e-6


def gradient_check(scenario: Scenario, dc: DecoupledConstraint, state: SystemState) -> float:
    """Max relative error of the analytic x-gradient of the Lagrangian
    against central finite differences of step `GRADIENT_CHECK_STEP`
    (`central_difference_error`; not finite is an infinite error)."""
    engine = FlowEngine(scenario, dc)
    x, z, lam = scenario.layout.parts(state.w)
    return central_difference_error(
        lambda v: engine.lagrangian_value(v, z, lam, state.t),
        lambda v: engine.lagrangian_gradient_x(v, lam, state.t)[0],
        x, GRADIENT_CHECK_STEP,
    )


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    primal: float
    dual_min: float
    comp_slack: float


def kkt_residual(scenario: Scenario, dc: DecoupledConstraint, state: SystemState) -> KKTResidual:
    """First-order optimality residuals of a system state, read from one call
    of the reference velocity `FlowEngine.rhs` (dx, dz, gap), which never
    reads the folded operator that affine runs step.

    Stationarity is max |(dx, dz)|: the x gradient of the Lagrangian and the
    z gradient (the Laplacian image of the multipliers); primal is the
    largest violation of the decoupled constraint, max(0, max gap);
    comp_slack is |lambda . gap|.
    """
    x, z, lam = scenario.layout.parts(state.w)
    dx, dz, gap = FlowEngine(scenario, dc).rhs(x, z, lam, state.t)
    return KKTResidual(
        stationarity=max(float(np.abs(dx).max(initial=0.0)), float(np.abs(dz).max())),
        primal=float(max(0.0, np.max(gap))),
        dual_min=float(np.min(lam)),
        comp_slack=float(abs(lam @ gap)),
    )
