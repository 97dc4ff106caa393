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
quadratic, every human affine and no schedule is still settling, the response
y = S x + d is folded into one sparse affine operator (`FlowEngine.velocity`):

    dx      = -g - H x - C^T lambda,   C = [a_bar ; b_bar S]
    dz      = -l_bar lambda
    gap     = C x + l_bar z + b_g,     b_g = [0 ; b_bar d] + c_split

where H and g come from the oracle's `reduce_program`, so the flow and the
oracle step one assembled problem. The velocity is M w + b; M is graph-local,
kept as row, column and value arrays of its O(edges) nonzeros. Every other
scenario takes its velocity from `FlowEngine.rhs`.

The reference path is `FlowEngine.rhs` stepped by `_step_arrays`, one
projected Euler step on the stacked arrays. The per-agent rounds of `agents`
and the sparse operator are held to it, and both velocities give the same
trajectory to roundoff. Samples are taken on the stacked state, from one
response evaluation each; the state-level functions in `metrics` are the
reference they agree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import DivergenceError
from .human import AFFINE, logistic, softplus
from .model import Scenario, stack_problem
from .oracle import reduce_program
from .reformulation import DecoupledConstraint, build_decoupled
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
    """All-zero state, with any scenario-file override applied on top."""
    lay = scenario.layout
    x = {i: np.zeros(scenario.dims[i]) for i in lay.autonomous_ids}
    z = {a: np.zeros(lay.rows) for a in lay.node_order}
    lam = {a: np.zeros(lay.rows) for a in lay.node_order}
    doc = scenario.initial_state or {}
    for target, key in ((x, "x"), (z, "z"), (lam, "lambda")):
        for agent_id, raw in doc.get(key, {}).items():
            if agent_id not in target:
                raise KeyError(f"initial_state.{key}: unknown agent '{agent_id}'")
            try:
                vec = np.asarray(raw, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"initial_state.{key}['{agent_id}'] is not a numeric vector"
                ) from exc
            if vec.shape != target[agent_id].shape:
                raise ValueError(
                    f"initial_state.{key}['{agent_id}'] has shape {vec.shape}, "
                    f"expected {target[agent_id].shape}"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"initial_state.{key}['{agent_id}'] is not finite")
            target[agent_id] = vec
    for agent_id, block in lam.items():
        if np.any(block < 0):
            raise ValueError(f"initial multiplier for '{agent_id}' is negative")
    return SystemState(x=x, z=z, lam=lam, t=0.0)


class FlowEngine:
    """Vectorized evaluator of the flow over stacked state vectors.

    Reads the stacked operators of `model.stack_problem` and adds only the
    schedule deltas and the softplus rows; the right-hand side is then a
    handful of mat-vecs, which is what makes long horizons cheap. `velocity`
    is what `integrate` steps with: the sparse affine operator where the
    scenario allows it, `rhs` otherwise. The approximation schedules are the
    scenario's own (`scenario.schedules`).
    """

    def __init__(self, scenario: Scenario, dc: DecoupledConstraint | None = None):
        self.scenario = scenario
        self.dc = dc if dc is not None else build_decoupled(scenario)
        lay = scenario.layout
        self.layout = lay
        self.stacked = sp = stack_problem(scenario)
        self._rm = self.dc.rows * len(lay.autonomous_ids)
        self._quadratic = sp.x_weight is not None
        if self._quadratic:
            self._fx2, self._gy2 = 2.0 * sp.x_weight, 2.0 * sp.y_weight

        self._soft_rows: list[tuple[slice, float]] = []
        sched_rows = []
        for k in lay.human_ids:
            model = scenario.human_models[k]
            rows = lay.y_slice(k)
            if model.family != AFFINE:
                self._soft_rows.append((rows, model.sharpness))
            sched = scenario.schedules.get(k)
            if sched is not None and sched.settle_time > 0:
                s_delta = np.zeros((model.dim, lay.x_dim))
                for j, delta in sched.gain_deltas.items():
                    s_delta[:, lay.x_slice(j)] = model.attitude * np.asarray(delta, float)
                sched_rows.append(
                    (rows, s_delta, np.asarray(sched.base_delta, float), sched)
                )
        self._sched_rows = sched_rows
        self._settle_time = max(
            (entry[3].settle_time for entry in sched_rows), default=0.0
        )
        # Folded on the first `velocity` call, so engines built only to
        # evaluate costs or residuals never pay for it.
        self._affine = self._quadratic and not self._soft_rows and not sched_rows
        self._folded = None

    # -- stacked parameter and response evaluation --------------------------

    def _params(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if not self._sched_rows or t >= self._settle_time:
            return self.stacked.S, self.stacked.d
        S = self.stacked.S.copy()
        d = self.stacked.d.copy()
        for rows, s_delta, d_delta, sched in self._sched_rows:
            phi = sched.blend(t)
            if phi > 0.0:
                S[rows] += phi * s_delta
                d[rows] += phi * d_delta
        return S, d

    def _activate(self, pre: np.ndarray) -> np.ndarray:
        if not self._soft_rows:
            return pre
        y = pre.copy()
        for rows, beta in self._soft_rows:
            y[rows] = softplus(pre[rows], beta)
        return y

    def _chain_scale(self, w: np.ndarray, pre: np.ndarray) -> np.ndarray:
        """Multiply by the activation derivative (identity for affine rows)."""
        if not self._soft_rows:
            return w
        out = w.copy()
        for rows, beta in self._soft_rows:
            out[rows] = logistic(pre[rows], beta) * w[rows]
        return out

    def response(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Stacked human response and its pre-activation at time t."""
        S, d = self._params(t)
        pre = S @ x + d
        return self._activate(pre), pre

    # -- cost terms ----------------------------------------------------------

    def _grad_f(self, x: np.ndarray) -> np.ndarray:
        if self._quadratic:
            return self._fx2 @ x
        lay = self.layout
        out = np.empty(lay.x_dim)
        for i in lay.autonomous_ids:
            sl = lay.x_slice(i)
            out[sl] = self.scenario.costs[i].gradient(x[sl])
        return out

    def _grad_g(self, y: np.ndarray) -> np.ndarray:
        if self._quadratic:
            return self._gy2 @ y
        lay = self.layout
        out = np.empty(lay.y_dim)
        for k in lay.human_ids:
            sl = lay.y_slice(k)
            out[sl] = self.scenario.costs[k].gradient(y[sl])
        return out

    def objective_value(self, x: np.ndarray, y: np.ndarray) -> float:
        if self._quadratic:
            return float(0.5 * x @ (self._fx2 @ x) + 0.5 * y @ (self._gy2 @ y))
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

    def coupled_gap(self, x, y) -> np.ndarray:
        sp = self.stacked
        return sp.a_cat @ x + sp.b_cat @ y + self.scenario.constraint.c

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

    def _fold(self):
        """Nonzeros of M in row order (rows, cols, values) and b = [b_x ; 0 ; b_g]:
        M = [[-H, 0, -C^T], [0, 0, -l_bar], [C, l_bar, 0]], with H and
        b_x = -g from the oracle's reduced program and the l_bar blocks read
        from the node Laplacian, never from the dense lift."""
        rp = reduce_program(self.scenario)
        dc = self.dc
        n, q = self.layout.x_dim, dc.block_dim
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
        b[n + q + self._rm:] = dc.b_bar @ rp.d
        b[n + q:] += dc.c_split
        return rows[order], cols[order], vals[order], b

    def velocity(self, w: np.ndarray, t: float, out: np.ndarray) -> None:
        """Write (dx, dz, raw multiplier gradient) at w = [x, z, lambda] into out."""
        if not self._affine:
            n, q = self.layout.x_dim, self.dc.block_dim
            out[:n], out[n:n + q], out[n + q:] = self.rhs(w[:n], w[n:n + q], w[n + q:], t)
            return
        if self._folded is None:
            self._folded = self._fold()
        rows, cols, vals, b = self._folded
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


def _finite_max(block: np.ndarray) -> float:
    """Largest finite |entry| of a block (inf when none is finite)."""
    finite = block[np.isfinite(block)]
    return float(np.max(np.abs(finite))) if finite.size else float("inf")


def _check_finite(t: float, *blocks: np.ndarray) -> None:
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
    enables distance-to-saddle recording, tracked at every step.
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


def _run_flow(engine, opts, dt, state0, reference, saddle):
    lay = engine.layout
    n, q = lay.x_dim, engine.dc.block_dim
    # Two stacked states [x, z, lambda] that trade places every step, so the
    # pre-step state is still at hand when a step has to be checked.
    w = np.concatenate(engine.stack_state(state0))
    w_new, vel, scratch = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    n_steps = max(1, int(round(opts.max_time / dt)))
    stride = opts.record_stride

    w_ref = None
    v_initial = v_max_inc = v_now = None
    if saddle is not None:
        w_ref = np.concatenate([np.asarray(saddle[0], float), np.asarray(saddle[1], float)])
        np.subtract(w, w_ref, out=scratch)
        v_now = v_initial = 0.5 * float(scratch @ scratch)
        v_max_inc = -math.inf

    if reference is not None:
        reference = (np.asarray(reference[0], float), np.asarray(reference[1], float))
    samples = [_sample(engine, w, 0.0, reference, v_now)]
    termination = "max_time"
    steps_done = 0
    t = 0.0
    update_norm = None
    sup_norm = float(np.max(np.abs(w)))
    for k in range(n_steps):
        t = k * dt
        engine.velocity(w, t, vel)
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
        steps_done = k + 1
        t = steps_done * dt
        sup_norm = max(sup_norm, step_sup)

        if w_ref is not None:
            v_prev = v_now
            np.subtract(w, w_ref, out=scratch)
            v_now = 0.5 * float(scratch @ scratch)
            v_max_inc = max(v_max_inc, v_now - v_prev)

        converged = update_norm <= opts.tolerance
        if converged or steps_done == n_steps or steps_done % stride == 0:
            samples.append(_sample(engine, w, t, reference, v_now))
        if converged:
            termination = "converged"
            break

    final = engine.unstack_state(w[:n], w[n:n + q], w[n + q:], t)
    record = metrics.TrajectoryRecord(
        agent_order=lay.node_order,
        samples=samples,
        termination=termination,
        final_t=t,
        steps=steps_done,
        dt=dt,
        state_sup_norm=sup_norm,
        final_update_norm=update_norm,
        v_initial=v_initial,
        v_final=v_now,
        v_max_step_increase=v_max_inc,
    )
    return final, record


def _sample(engine, w, t, reference, saddle_dist):
    """Trajectory sample at the stacked state w = [x, z, lambda], from one
    response evaluation; `saddle_dist` is the distance the loop tracks."""
    lay = engine.layout
    n, q = lay.x_dim, engine.dc.block_dim
    x, z, lam = w[:n], w[n:n + q], w[n + q:]
    y, _ = engine.response(x, t)
    deviation = None
    if reference is not None:
        dx, dy = x - reference[0], y - reference[1]
        deviation = float(dx @ dx + dy @ dy)
    # Per-agent 1-norms: every block is nonempty, so reduceat sums each one.
    workloads = {}
    for ids, v, offsets in ((lay.autonomous_ids, x, lay.x_offsets),
                            (lay.human_ids, y, lay.y_offsets)):
        workloads.update(zip(ids, np.add.reduceat(np.abs(v), [*offsets.values()]).tolist()))
    return metrics.TrajectorySample(
        t=t,
        deviation=deviation,
        saddle_dist=saddle_dist,
        max_coupled_residual=float(np.max(engine.coupled_gap(x, y))),
        min_multiplier=float(np.min(lam)) if lam.size else 0.0,
        lagrangian=engine.objective_value(x, y) + float(lam @ engine.constraint_gap(x, y, z)),
        workloads=workloads,
    )


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
