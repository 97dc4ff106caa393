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
one sparse affine operator (`fold`, stepped by `FlowEngine.velocity`), from
the start or, with a schedule, from its settle time on, where the parameters
are the true ones:

    dx      = -g - H x - C^T lambda,   C = [a_bar ; b_bar S]
    dz      = -l_bar lambda
    gap     = C x + l_bar z + b_g,     b_g = [0 ; b_bar d] + c_split

where H and g come from the oracle's `reduce_stacked` of `scenario.stacked`,
so the flow and the oracle step one assembled problem. The velocity
is M w + b; M is graph-local, kept as row, column and value arrays of its
O(edges) nonzeros. Every other scenario takes its velocity from
`FlowEngine.rhs`, which reads the softplus rows and the schedules row by row
from the same stack, as the oracle reads S and d.

Projected Euler on the affine flow is piecewise affine, one piece per set S
of clamped multipliers (those at zero whose gap is <= 0, which the clamp
keeps at zero). While S stays fixed and every other multiplier positive, a
step is w <- w + dt D_S (M w + b), where D_S zeroes the rows of S, and the
realized velocity obeys v_{k+1} = A_S v_k with A_S = I + dt D_S M; S empty
gives A = I + dt M. `integrate` then takes CHUNK steps per matrix-vector
product: with P_S = [I; A_S; ...; A_S^(CHUNK-1)], V = (P_S v_k).reshape(CHUNK, N)
holds the next velocities and the running sums w_k + dt V_0 + ... the next
states W. The update norms are the row norms of V, not of the state
differences, which would multiply state roundoff by 1/dt; the saddle
distance, the sup-norm and the samples are read from the rows. A chunk is
taken only if every free multiplier in W is positive, every clamped gap
M_S w + b_S at a state it steps from is <= 0, max |W| is finite and every
update norm exceeds tolerance (1 + CHUNK_GUARD). Otherwise the next CHUNK
steps go singly, so a clamp change, the stopping step and a
`DivergenceError` are always decided by the single-step arithmetic.
The guard band is needed because near the crossing the update norm is known
only to roundoff, and it falls by only ~5e-5 relative per step: the final
update norms of chunked and single-step runs of crosscheck seeds 1-30
(tolerance 1e-10) differ by up to 2.5e-5 relative, and without the band a
chunk that ends at the stopping step is taken whenever roundoff puts its
norm above the tolerance.

The dense M (`dense_operator`, which the generator's stability check also
reads) and the unclamped P are built once per run of at least CHUNK steps.
A P_S for a nonempty S is built from that M only once S has held across two
chunk attempts in a row, into one buffer that the next such S reuses, so at
most two propagators are live; an attempt under an S without one is
skipped, not computed. Chunks pay N^2 multiply-adds per step and a sparse
step its nonzeros plus the numpy call overhead, so chunks are used only
when N^2 <= nnz(M) + STEP_OVERHEAD_ENTRIES, decided before any dense array
is allocated: the benchmark's 7-agent team chunks, a few hundred agents
keep the sparse step.

A run starts from `initial_state`, the scenario's (already checked) overrides
laid on zeros. Explicit finiteness checks decide divergence, so numpy's
overflow and invalid-value warnings are off while a run steps. `kkt_residual`
evaluates optimality residuals on the flow's own Lagrangian gradient.

The reference path is `FlowEngine.rhs` stepped by `_step_arrays`, one
projected Euler step on the stacked arrays. The per-agent rounds of `agents`
and the sparse operator are held to it, and both velocities give the same
trajectory to roundoff. The states at the sampled steps are kept during the
run and evaluated SAMPLE_BLOCK at a time in one stacked pass each; the
state-level functions in `metrics` are the reference the samples agree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import DivergenceError
from .human import logistic, softplus
from .model import Scenario
from .oracle import ReducedProgram, reduce_stacked
from .reformulation import DecoupledConstraint, build_decoupled, decoupled_residual
from .topology import lift_entries


@dataclass
class SystemState:
    """Phase point of the flow: per-agent primal, auxiliary and multiplier blocks.

    `x` is keyed by autonomous ids; `z` and `lam` by every vertex (each block
    has one entry per constraint row). Human responses are derived from x on
    demand, never stored.
    """

    x: dict[str, np.ndarray]
    z: dict[str, np.ndarray]
    lam: dict[str, np.ndarray]
    t: float = 0.0


def initial_state(scenario: Scenario) -> SystemState:
    """All-zero state with the scenario's `initial_state` overrides laid on
    top; `Scenario` checked them when it was built."""
    lay = scenario.layout
    x = {i: np.zeros(scenario.dims[i]) for i in lay.autonomous_ids}
    z = {a: np.zeros(lay.rows) for a in lay.node_order}
    lam = {a: np.zeros(lay.rows) for a in lay.node_order}
    doc = scenario.initial_state or {}
    for target, key in ((x, "x"), (z, "z"), (lam, "lambda")):
        for agent_id, raw in doc.get(key, {}).items():
            target[agent_id] = np.asarray(raw, dtype=float)
    return SystemState(x=x, z=z, lam=lam, t=0.0)


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

    def response(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Stacked human response and its pre-activation at time t."""
        S, d = self._params(t)
        pre = S @ x + d
        return self._activate(pre), pre

    # -- cost terms ----------------------------------------------------------

    def _grad_f(self, x: np.ndarray) -> np.ndarray:
        if self._quadratic:
            return 2.0 * (self.stacked.x_weight @ x)
        lay = self.layout
        out = np.empty(lay.x_dim)
        for i in lay.autonomous_ids:
            sl = lay.x_slice(i)
            out[sl] = self.scenario.costs[i].gradient(x[sl])
        return out

    def _grad_g(self, y: np.ndarray) -> np.ndarray:
        if self._quadratic:
            return 2.0 * (self.stacked.y_weight @ y)
        lay = self.layout
        out = np.empty(lay.y_dim)
        for k in lay.human_ids:
            sl = lay.y_slice(k)
            out[sl] = self.scenario.costs[k].gradient(y[sl])
        return out

    def objective_value(self, x: np.ndarray, y: np.ndarray) -> float:
        if self._quadratic:
            sp = self.stacked
            return float(x @ (sp.x_weight @ x) + y @ (sp.y_weight @ y))
        lay = self.layout
        total = 0.0
        for i in lay.autonomous_ids:
            total += self.scenario.costs[i].value(x[lay.x_slice(i)])
        for k in lay.human_ids:
            total += self.scenario.costs[k].value(y[lay.y_slice(k)])
        return total

    # -- flow ----------------------------------------------------------------

    def constraint_gap(self, x, y, z) -> np.ndarray:
        """Decoupled residual [a_bar x ; b_bar y] + l_bar z + c_split."""
        dc = self.dc
        return (
            np.concatenate([dc.a_bar @ x, dc.b_bar @ y])
            + dc.lift_apply(z) + dc.c_split
        )

    def lagrangian_gradient_x(self, x, lam, t) -> tuple[np.ndarray, np.ndarray]:
        """x-gradient of the Lagrangian, and the response y it was taken at."""
        S, d = self._params(t)
        pre = S @ x + d
        y = self._activate(pre)
        w = self._grad_g(y) + self.dc.b_bar.T @ lam[self._rm:]
        grad = self._grad_f(x) + S.T @ self._chain_scale(w, pre) \
            + self.dc.a_bar.T @ lam[:self._rm]
        return grad, y

    def rhs(self, x, z, lam, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dx, dz, raw multiplier gradient) at the given stacked state."""
        grad, y = self.lagrangian_gradient_x(x, lam, t)
        return -grad, -self.dc.lift_apply(lam), self.constraint_gap(x, y, z)

    def folded(self):
        """`fold` of the scenario's stack, reduced, on the first call; read
        only once the flow folds, which covers `reduce_program`'s checks."""
        if self._folded is None:
            rp = reduce_stacked(self.stacked, self.scenario.constraint.c)
            self._folded = fold(rp, self.dc)
        return self._folded

    def velocity(self, w: np.ndarray, t: float, out: np.ndarray) -> None:
        """Write (dx, dz, raw multiplier gradient) at w = [x, z, lambda] into out."""
        if t < self._fold_time:
            n, q = self.layout.x_dim, self.dc.block_dim
            out[:n], out[n:n + q], out[n + q:] = self.rhs(w[:n], w[n:n + q], w[n + q:], t)
            return
        rows, cols, vals, b = self.folded()
        np.add(np.bincount(rows, vals * w[cols], minlength=out.size), b, out=out)

    def lagrangian_value(self, x, z, lam, t) -> float:
        y, _ = self.response(x, t)
        return self.objective_value(x, y) + float(lam @ self.constraint_gap(x, y, z))

    # -- state conversion ------------------------------------------------------

    def stack_state(self, state: SystemState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lay = self.layout
        return (
            lay.stack_x(state.x),
            lay.stack_nodes(state.z),
            lay.stack_nodes(state.lam),
        )

    def unstack_state(self, x, z, lam, t) -> SystemState:
        lay = self.layout
        return SystemState(
            x=lay.unstack_x(x),
            z=lay.unstack_nodes(z),
            lam=lay.unstack_nodes(lam),
            t=t,
        )


def fold(rp: ReducedProgram, dc: DecoupledConstraint):
    """Nonzeros of M in row order (rows, cols, values) and b = [b_x ; 0 ; b_g]:
    M = [[-H, 0, -C^T], [0, 0, -l_bar], [C, l_bar, 0]], with H and
    b_x = -g from the reduced program and the l_bar blocks read from the node
    Laplacian, never from the dense lift."""
    n, q, rm = rp.H.shape[0], dc.block_dim, dc.a_bar.shape[0]
    C = np.vstack([dc.a_bar, dc.b_bar @ rp.S])
    hr, hc = np.nonzero(rp.H)
    cr, cc = np.nonzero(C)
    lr, lc, lv = lift_entries(dc.laplacian, dc.rows)
    rows = np.concatenate([hr, cc, n + lr, n + q + cr, n + q + lr])
    cols = np.concatenate([hc, n + q + cr, n + q + lc, cc, n + lc])
    vals = np.concatenate([-rp.H[hr, hc], -C[cr, cc], -lv, C[cr, cc], lv])
    order = np.lexsort((cols, rows))
    b = np.zeros(n + 2 * q)
    b[:n] = -rp.g
    b[n + q + rm:] = dc.b_bar @ rp.d
    b[n + q:] += dc.c_split
    return rows[order], cols[order], vals[order], b


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
    `failed_attempt` then names the step size that diverged.

    `reference` = (x*, y*) enables deviation recording; `saddle` = (eta, lam)
    enables distance-to-saddle recording, tracked at every step. The record's
    `chunked_steps` and `single_steps` count the steps taken in propagated
    chunks and one at a time, `rejected_chunks` the chunks computed and then
    stepped singly, and `propagator_builds` the dense propagators built.
    """
    opts = scenario.solver
    engine = FlowEngine(scenario, dc)
    state0 = initial_state(scenario)

    try:
        return _run_flow(engine, opts, opts.dt, state0, reference, saddle)
    except DivergenceError as exc:
        failed = metrics.FailedAttempt(dt=opts.dt, t=exc.t, max_entry=exc.max_entry)
    final, record = _run_flow(engine, opts, opts.dt / 2.0, state0, reference, saddle)
    record.failed_attempt = failed
    return final, record


# Euler steps per chunk of the affine propagator.
CHUNK = 64
# A chunk with an update norm within this relative band above the tolerance
# is stepped singly instead: there the stopping step depends on roundoff,
# so the single-step arithmetic decides it. 40x the largest gap measured
# between the final update norms of chunked and single-step runs.
CHUNK_GUARD = 1e-3
# The numpy call overhead of one sparse step, in dense multiply-adds: a
# chunk costs N^2 of them per step, a sparse step its nonzeros plus these.
# Measured on a 2-CPU machine, the two cost the same at N ~ 120.
STEP_OVERHEAD_ENTRIES = 16384
# Sampled states evaluated per stacked pass, which bounds the memory a run
# holds for states not yet evaluated.
SAMPLE_BLOCK = 256


def dense_operator(folded) -> np.ndarray:
    """The folded M as a dense (N, N) array, from `fold`'s nonzeros, each of
    which it lists once."""
    rows, cols, vals, b = folded
    M = np.zeros((b.size, b.size))
    M[rows, cols] = vals
    return M


def _propagator(M, dt, clamped=(), out=None):
    """P_S = [I; A_S; ...; A_S^(CHUNK-1)] stacked to (CHUNK N, N), with
    A_S = I + dt D_S M, where D_S zeroes the rows `clamped` (indices into w)
    of the clamped multipliers S; S = () gives the unclamped propagator.
    Built into `out`, a (CHUNK N, N) array, when one is given.
    """
    size, clamped = M.shape[0], np.asarray(clamped, dtype=int)
    step = np.eye(size)
    step += dt * M
    step[clamped] = 0.0
    step[clamped, clamped] = 1.0
    powers = np.empty((CHUNK, size, size)) if out is None else out.reshape(CHUNK, size, size)
    powers[0] = np.eye(size)
    for j in range(1, CHUNK):
        np.matmul(step, powers[j - 1], out=powers[j])
    return powers.reshape(CHUNK * size, size)


def _chunk(P, w, v, dt, lam_start, floor, clamp=None):
    """The next CHUNK Euler steps from w, whose realized velocity is v.

    While the clamped multipliers S stay at zero and every other one stays
    positive, v_{k+1} = A_S v_k, so the rows of V = (P_S v).reshape(CHUNK, N)
    are the next velocities and the running sums w + dt V_0 + ... + dt V_j,
    accumulated in the order single steps add them, the next states W.
    `clamp` = (M_S^T, b_S) holds the rows of M and b of S, whose entries of
    v must be zero; None when S is empty.

    Returns (W, the update norm of its last step, max |W|), or None when the
    chunk leaves its piece or cannot decide its steps: a free lambda of W is
    <= 0, a clamped gap M_S w + b_S at a state stepped from is > 0, max |W|
    is not finite, or an update norm (a row norm of V) is <= `floor`. The
    single steps decide those cases.
    """
    size = w.size
    V = (P @ v).reshape(CHUNK, size)
    W = np.empty((CHUNK + 1, size))
    W[0] = w
    np.multiply(V, dt, out=W[1:])
    np.add.accumulate(W, axis=0, out=W)
    W = W[1:]
    squares = np.einsum("ij,ij->i", V, V)
    sup = max(float(W.max()), -float(W.min()))
    n_free = size - lam_start
    if clamp is not None:
        n_free -= clamp[0].shape[1]
        # The clamp holds at every state the chunk steps from.
        if float((W[:-1] @ clamp[0] + clamp[1]).max()) > 0.0:
            return None
    if (math.sqrt(float(squares.min())) > floor and sup < math.inf
            and np.count_nonzero(W[:, lam_start:] > 0.0) == CHUNK * n_free):
        return W, math.sqrt(float(squares[-1])), sup
    return None


class _ChunkPlan:
    """The propagators of a run: the unclamped one, built at the start, and at
    most one for a nonempty clamp set S, built in one reused buffer once S has
    held across two chunk attempts in a row. An attempt under any other S is
    skipped, not computed. The dense M they are built from is made once, and
    only when the flow folds, the run's `n_steps` hold a chunk and N^2 <=
    nnz + STEP_OVERHEAD_ENTRIES; otherwise `free` is None and steps are sparse."""

    def __init__(self, engine, dt, n_steps):
        self.dt = dt
        self.free = self.M = None
        if engine._fold_time < math.inf and n_steps >= CHUNK:
            rows, _, _, b = folded = engine.folded()
            if b.size * b.size <= rows.size + STEP_OVERHEAD_ENTRIES:
                self.M, self.b = dense_operator(folded), b
                self.free = _propagator(self.M, dt)
        self.builds = int(self.free is not None)
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
            self.clamp = (np.ascontiguousarray(self.M[S].T), self.b[S])
            self.held = key
            self.builds += 1
        vel[S] = 0.0
        return self.clamped, self.clamp


def _run_flow(engine, opts, dt, state0, reference, saddle):
    lay = engine.layout
    n, q = lay.x_dim, engine.dc.block_dim
    # Two stacked states [x, z, lambda] that trade places every step, so the
    # pre-step state is still at hand when a step has to be checked.
    w = np.concatenate(engine.stack_state(state0))
    w_new, vel, scratch = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    n_steps = max(1, int(round(opts.max_time / dt)))
    stride = opts.record_stride
    plan = _ChunkPlan(engine, dt, n_steps)
    floor = opts.tolerance * (1.0 + CHUNK_GUARD)

    w_ref = None
    v_initial = v_max_inc = v_now = None
    if saddle is not None:
        w_ref = np.concatenate([np.asarray(saddle[0], float), np.asarray(saddle[1], float)])
        np.subtract(w, w_ref, out=scratch)
        v_now = v_initial = 0.5 * float(scratch @ scratch)
        v_max_inc = -math.inf

    # (step, state, saddle distance) of the samples not yet evaluated.
    samples, pending = [], []
    caller = np.geterr()  # the samples are evaluated under the caller's settings

    def keep(step, state, dist):
        pending.append((step, state.copy(), dist))
        if len(pending) == SAMPLE_BLOCK:
            with np.errstate(**caller):
                samples.extend(_samples(engine, pending, dt, reference))
            pending.clear()

    keep(0, w, v_now)
    termination = "max_time"
    k = chunked = rejected = single_until = 0
    update_norm = None
    sup_norm = float(np.max(np.abs(w)))
    # The explicit finiteness checks decide divergence, so the stepping
    # raises no numpy overflow or invalid-value warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            t = k * dt
            engine.velocity(w, t, vel)
            if (plan.free is not None and k >= single_until and k + CHUNK <= n_steps
                    and t >= engine._fold_time):
                chosen = plan.choose(n + q, w, vel)
                rows = None
                if chosen is not None:
                    P, clamp = chosen
                    rows = _chunk(P, w, vel, dt, n + q, floor, clamp)
                    rejected += rows is None
                if rows is None:
                    # The next CHUNK steps go singly.
                    single_until = k + CHUNK
                else:
                    W, update_norm, sup = rows
                    sup_norm = max(sup_norm, sup)
                    if w_ref is not None:
                        D = W - w_ref
                        twice = np.einsum("ij,ij->i", D, D)  # twice the distances
                        rise = max(float(twice[0]) - 2.0 * v_now,
                                   float(np.subtract(twice[1:], twice[:-1]).max()))
                        v_max_inc = max(v_max_inc, 0.5 * rise)
                        v_now = 0.5 * float(twice[-1])
                    end = k + CHUNK
                    for s in range((k // stride + 1) * stride, end + 1, stride):
                        j = s - k - 1
                        keep(s, W[j], None if w_ref is None else 0.5 * float(twice[j]))
                    if end == n_steps and n_steps % stride:
                        keep(end, W[-1], v_now)
                    w[:] = W[-1]
                    k = end
                    chunked += CHUNK
                    continue

            np.multiply(vel, dt, out=w_new)
            w_new += w
            lam, lam_new, dlam = w[n + q:], w_new[n + q:], vel[n + q:]
            np.maximum(lam_new, 0.0, out=lam_new)
            # The multiplier part of the update norm is the realized change.
            np.subtract(lam_new, lam, out=dlam)
            dlam /= dt
            update_norm = math.sqrt(vel @ vel)
            step_sup = float(np.abs(w_new, out=scratch).max())
            if not (math.isfinite(update_norm) and math.isfinite(step_sup)):
                # A non-finite velocity or state reaches one of the two; only
                # then are the blocks checked one by one.
                engine.velocity(w, t, vel)
                _check_finite(t, vel[:n], vel[n:n + q], vel[n + q:], w_new[:n], w_new[n:n + q])
            w, w_new = w_new, w
            k += 1
            sup_norm = max(sup_norm, step_sup)

            if w_ref is not None:
                v_prev = v_now
                np.subtract(w, w_ref, out=scratch)
                v_now = 0.5 * float(scratch @ scratch)
                v_max_inc = max(v_max_inc, v_now - v_prev)

            converged = update_norm <= opts.tolerance
            if converged or k == n_steps or k % stride == 0:
                keep(k, w, v_now)
            if converged:
                termination = "converged"
                break

    if pending:
        samples.extend(_samples(engine, pending, dt, reference))
    t = k * dt
    final = engine.unstack_state(w[:n], w[n:n + q], w[n + q:], t)
    record = metrics.TrajectoryRecord(
        agent_order=lay.node_order,
        samples=samples,
        termination=termination,
        final_t=t,
        steps=k,
        dt=dt,
        state_sup_norm=sup_norm,
        final_update_norm=update_norm,
        v_initial=v_initial,
        v_final=v_now,
        v_max_step_increase=v_max_inc,
        chunked_steps=chunked,
        single_steps=k - chunked,
        rejected_chunks=rejected,
        propagator_builds=plan.builds,
    )
    return final, record


def _samples(engine, sampled, dt, reference):
    """The trajectory samples of (step, stacked state, saddle distance)
    triples, evaluated in one stacked pass over the sampled states."""
    lay = engine.layout
    n, q = lay.x_dim, engine.dc.block_dim
    steps, states, dists = zip(*sampled)
    ts = [s * dt for s in steps]
    W = np.stack(states)
    X, Z, L = W[:, :n], W[:, n:n + q], W[:, n + q:]
    sp, dc = engine.stacked, engine.dc
    pre = X @ sp.S.T + sp.d
    for i in np.flatnonzero(np.asarray(ts) < engine._settle_time):
        S, d = engine._params(ts[i])  # a schedule still settling
        pre[i] = S @ X[i] + d
    Y = engine._activate(pre)

    deviation = [None] * len(ts)
    if reference is not None:
        dX = X - np.asarray(reference[0], float)
        dY = Y - np.asarray(reference[1], float)
        deviation = (np.einsum("ij,ij->i", dX, dX) + np.einsum("ij,ij->i", dY, dY)).tolist()
    if engine._quadratic:
        objective = (np.einsum("ij,ij->i", X @ sp.x_weight.T, X)
                     + np.einsum("ij,ij->i", Y @ sp.y_weight.T, Y))
    else:
        objective = np.array([engine.objective_value(x, y) for x, y in zip(X, Y)])
    lifted = (dc.laplacian @ Z.reshape(len(ts), -1, dc.rows)).reshape(Z.shape)
    gap = np.concatenate([X @ dc.a_bar.T, Y @ dc.b_bar.T], axis=1) + lifted + dc.c_split
    lagrangian = objective + np.einsum("ij,ij->i", L, gap)
    coupled = (X @ sp.a_cat.T + Y @ sp.b_cat.T + engine.scenario.constraint.c).max(axis=1)
    min_lam = L.min(axis=1) if q else np.zeros(len(ts))
    # Per-agent 1-norms: every block is nonempty, so reduceat sums each one.
    loads = np.concatenate([
        np.add.reduceat(np.abs(X), [*lay.x_offsets.values()], axis=1),
        np.add.reduceat(np.abs(Y), [*lay.y_offsets.values()], axis=1),
    ], axis=1).tolist()
    agents = (*lay.autonomous_ids, *lay.human_ids)
    return [
        metrics.TrajectorySample(
            t=t,
            deviation=dev,
            saddle_dist=dist,
            max_coupled_residual=res,
            min_multiplier=low,
            lagrangian=value,
            workloads=dict(zip(agents, row)),
        )
        for t, dev, dist, res, low, value, row in zip(
            ts, deviation, dists, coupled.tolist(), min_lam.tolist(),
            lagrangian.tolist(), loads)
    ]


GRADIENT_CHECK_STEP = 1e-6


def gradient_check(scenario: Scenario, dc: DecoupledConstraint, state: SystemState) -> float:
    """Max relative error of the analytic x-gradient of the Lagrangian
    against central finite differences of step `GRADIENT_CHECK_STEP`."""
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state)
    analytic, _ = engine.lagrangian_gradient_x(x, lam, state.t)
    worst = 0.0
    for idx in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[idx] = GRADIENT_CHECK_STEP
        hi = engine.lagrangian_value(x + bump, z, lam, state.t)
        lo = engine.lagrangian_value(x - bump, z, lam, state.t)
        numeric = (hi - lo) / (2.0 * GRADIENT_CHECK_STEP)
        denom = max(1.0, abs(analytic[idx]), abs(numeric))
        worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    primal: float
    dual_min: float
    comp_slack: float


def kkt_residual(scenario: Scenario, dc: DecoupledConstraint, state: SystemState) -> KKTResidual:
    """First-order optimality residuals of a system state.

    Stationarity covers both the x gradient of the Lagrangian and the z
    gradient (the Laplacian image of the multipliers); primal is the largest
    constraint violation; comp_slack is |lambda . residual|.
    """
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state)
    grad_x, y = engine.lagrangian_gradient_x(x, lam, state.t)
    resid = decoupled_residual(dc, x, y, z)
    station_x = float(np.max(np.abs(grad_x))) if grad_x.size else 0.0
    station_z = float(np.max(np.abs(dc.lift_apply(lam))))
    return KKTResidual(
        stationarity=max(station_x, station_z),
        primal=float(max(0.0, np.max(resid))),
        dual_min=float(np.min(lam)),
        comp_slack=float(abs(lam @ resid)),
    )
