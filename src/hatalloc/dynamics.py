"""Projected saddle-point flow and its time integration.

The flow descends the Lagrangian in the primal variables (x, z) and ascends
in the multipliers, with a projection keeping every multiplier nonnegative:

    dx      = -( grad F + J^T grad G + [a_bar ; b_bar J]^T lambda )
    dz      = -( l_bar lambda )
    dlambda = [ [a_bar x ; b_bar y] + l_bar z + c_split ]^+_lambda

where y is the (derived, never integrated) human response and J its Jacobian
with respect to the autonomous states. Discretization is projected forward
Euler: the multiplier step is clamped at zero, which is the consistent
discrete counterpart of the projection.

`integrate` steps one stacked state w = [x, z, lambda]. When every cost is
quadratic, every human affine and no schedule is still settling, the response
y = S x + d is folded into the operators once (`FlowEngine.velocity`):

    dx      = b_x - H x - C^T lambda,   H = F'' + S^T G'' S,  C = [a_bar ; b_bar S]
    dz      = -l_bar lambda
    gap     = C x + l_bar z + b_g,      b_x = -S^T G'' d,  b_g = [0 ; b_bar d] + c_split

Every other scenario takes its velocity from `FlowEngine.rhs`, which is also
the reference that the per-agent rounds and `_step_arrays` use. Both
velocities give the same trajectory to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import DivergenceError
from .human import AFFINE, logistic, softplus
from .model import Scenario, QuadraticCost
from .reformulation import DecoupledConstraint, build_decoupled

PROJECTION_DOMAIN_TOL = 1e-12


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


@dataclass
class FlowDerivative:
    dx: dict[str, np.ndarray]
    dz: dict[str, np.ndarray]
    dlam: dict[str, np.ndarray]


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


def projection_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise projected value: a where b > 0, max(0, a) where b = 0.

    Negative b is a contract violation (multipliers never go negative).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if np.any(b < -PROJECTION_DOMAIN_TOL):
        raise ValueError(
            "projection evaluated at a negative base point; multiplier "
            "nonnegativity was broken upstream"
        )
    return np.where(b > 0, a, np.maximum(0.0, a))


class FlowEngine:
    """Vectorized evaluator of the flow over stacked state vectors.

    Assembles the stacked response gain once (per-block Jacobians remain the
    reference path, used by the per-agent rounds) and evaluates the right-hand
    side with a handful of mat-vecs, which is what makes long horizons cheap.
    `velocity` is what `integrate` steps with: the folded affine flow where
    the scenario allows it, `rhs` otherwise.
    """

    def __init__(
        self,
        scenario: Scenario,
        dc: DecoupledConstraint | None = None,
        schedules: dict | None = None,
    ):
        self.scenario = scenario
        self.dc = dc if dc is not None else build_decoupled(scenario)
        self.schedules = scenario.schedules if schedules is None else schedules
        lay = scenario.layout
        self.layout = lay
        self._rm = self.dc.rows * len(lay.autonomous_ids)
        self._A_bar = self.dc.a_bar
        self._B_bar = self.dc.b_bar
        self._L_bar = self.dc.l_bar
        self._C = self.dc.c_split

        # Coupled-constraint row view, used for recording only.
        con = scenario.constraint
        self._A_cat = (
            np.hstack([con.a_blocks[i] for i in lay.autonomous_ids])
            if lay.autonomous_ids else np.zeros((con.rows, 0))
        )
        self._B_cat = (
            np.hstack([con.b_blocks[k] for k in lay.human_ids])
            if lay.human_ids else np.zeros((con.rows, 0))
        )
        self._c = con.c

        self._quadratic = all(
            isinstance(scenario.costs[a], QuadraticCost) for a in lay.node_order
        )
        if self._quadratic:
            fx = np.zeros((lay.x_dim, lay.x_dim))
            for i in lay.autonomous_ids:
                sl = lay.x_slice(i)
                fx[sl, sl] = 2.0 * scenario.costs[i].weight
            gy = np.zeros((lay.y_dim, lay.y_dim))
            for k in lay.human_ids:
                sl = lay.y_slice(k)
                gy[sl, sl] = 2.0 * scenario.costs[k].weight
            self._fx2, self._gy2 = fx, gy

        # Stacked response parameters: pre-activation = S x + d per human row.
        S = np.zeros((lay.y_dim, lay.x_dim))
        d = np.zeros(lay.y_dim)
        self._soft_rows: list[tuple[slice, float]] = []
        sched_rows = []
        for k in lay.human_ids:
            model = scenario.human_models[k]
            rows = lay.y_slice(k)
            d[rows] = model.base
            for j in model.neighbor_ids:
                S[rows, lay.x_slice(j)] = model.attitude * model.gains[j]
            if model.family != AFFINE:
                self._soft_rows.append((rows, model.sharpness))
            sched = self.schedules.get(k)
            if sched is not None and sched.settle_time > 0:
                s_delta = np.zeros((model.dim, lay.x_dim))
                for j, delta in sched.gain_deltas.items():
                    s_delta[:, lay.x_slice(j)] = model.attitude * np.asarray(delta, float)
                sched_rows.append(
                    (rows, s_delta, np.asarray(sched.base_delta, float), sched)
                )
        self._S_true, self._d_true = S, d
        self._sched_rows = sched_rows
        self._settle_time = max(
            (entry[3].settle_time for entry in sched_rows), default=0.0
        )
        # Folded on the first `velocity` call, so engines built only to
        # evaluate costs or residuals never pay for it.
        self._affine = self._quadratic and not self._soft_rows and not sched_rows
        self._folded = None

    @property
    def uses_softplus(self) -> bool:
        return bool(self._soft_rows)

    # -- stacked parameter and response evaluation --------------------------

    def _params(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if not self._sched_rows or t >= self._settle_time:
            return self._S_true, self._d_true
        S = self._S_true.copy()
        d = self._d_true.copy()
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
        return (
            np.concatenate([self._A_bar @ x, self._B_bar @ y])
            + self._L_bar @ z + self._C
        )

    def coupled_gap(self, x, y) -> np.ndarray:
        return self._A_cat @ x + self._B_cat @ y + self._c

    def lagrangian_gradient_x(self, x, lam, t) -> np.ndarray:
        S, d = self._params(t)
        pre = S @ x + d
        y = self._activate(pre)
        w = self._grad_g(y) + self._B_bar.T @ lam[self._rm:]
        return self._grad_f(x) + S.T @ self._chain_scale(w, pre) \
            + self._A_bar.T @ lam[:self._rm]

    def rhs(self, x, z, lam, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dx, dz, raw multiplier gradient) at the given stacked state."""
        S, d = self._params(t)
        pre = S @ x + d
        y = self._activate(pre)
        w = self._grad_g(y) + self._B_bar.T @ lam[self._rm:]
        dx = -(
            self._grad_f(x) + S.T @ self._chain_scale(w, pre)
            + self._A_bar.T @ lam[:self._rm]
        )
        dz = -(self._L_bar @ lam)
        gap = (
            np.concatenate([self._A_bar @ x, self._B_bar @ y])
            + self._L_bar @ z + self._C
        )
        return dx, dz, gap

    def _fold(self):
        """K = [-H ; C], the constant velocity b = [b_x ; 0 ; b_g] and a
        scratch vector for K x."""
        S, d = self._S_true, self._d_true
        n, q = self.layout.x_dim, self.dc.block_dim
        K = np.empty((n + q, n))
        np.negative(self._fx2 + S.T @ self._gy2 @ S, out=K[:n])
        K[n:n + self._rm] = self._A_bar
        np.matmul(self._B_bar, S, out=K[n + self._rm:])
        b = np.zeros(n + 2 * q)
        b[:n] = -(S.T @ (self._gy2 @ d))
        b[n + q + self._rm:] = self._B_bar @ d
        b[n + q:] += self._C
        return K, b, np.empty(n + q)

    def velocity(self, w: np.ndarray, t: float, out: np.ndarray) -> None:
        """Write (dx, dz, raw multiplier gradient) at w = [x, z, lambda] into out."""
        n, q = self.layout.x_dim, self.dc.block_dim
        x, z, lam = w[:n], w[n:n + q], w[n + q:]
        if not self._affine:
            out[:n], out[n:n + q], out[n + q:] = self.rhs(x, z, lam, t)
            return
        if self._folded is None:
            self._folded = self._fold()
        K, b, kx = self._folded
        dx, dz, gap = out[:n], out[n:n + q], out[n + q:]
        np.matmul(K, x, out=kx)                  # [-H x ; C x]
        np.matmul(lam, K[n:], out=dx)            # C^T lambda
        np.subtract(kx[:n], dx, out=dx)
        # l_bar is used in place, never copied or stacked with the other
        # operators: at a few hundred agents it is most of the engine's memory.
        np.matmul(self._L_bar, lam, out=dz)
        np.negative(dz, out=dz)
        np.matmul(self._L_bar, z, out=gap)
        gap += kx[n:]
        out += b

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


def lagrangian(scenario: Scenario, dc: DecoupledConstraint, state: SystemState) -> float:
    """Lagrangian value F(x) + G(y) + lambda . (decoupled residual)."""
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state)
    return engine.lagrangian_value(x, z, lam, state.t)


def flow_rhs(scenario: Scenario, dc: DecoupledConstraint, state: SystemState) -> FlowDerivative:
    """Continuous-time right-hand side, multiplier part projected at lambda."""
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state)
    dx, dz, gap = engine.rhs(x, z, lam, state.t)
    dlam = projection_plus(gap, lam)
    lay = scenario.layout
    return FlowDerivative(
        dx=lay.unstack_x(dx),
        dz=lay.unstack_nodes(dz),
        dlam=lay.unstack_nodes(dlam),
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


def step(scenario: Scenario, dc: DecoupledConstraint, state: SystemState, dt: float) -> SystemState:
    """One projected forward-Euler step evaluated at the pre-step state."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state)
    x2, z2, lam2, _, _ = _step_arrays(engine, x, z, lam, state.t, dt)
    return engine.unstack_state(x2, z2, lam2, state.t + dt)


def integrate(
    scenario: Scenario,
    options=None,
    dc: DecoupledConstraint | None = None,
    reference: tuple[np.ndarray, np.ndarray] | None = None,
    saddle: tuple[np.ndarray, np.ndarray] | None = None,
    initial: SystemState | None = None,
    schedules: dict | None = None,
) -> tuple[SystemState, metrics.TrajectoryRecord]:
    """Run the flow until the update norm drops below tolerance or time runs out.

    The stopping rule is ||(dx, dz, d lambda)||_2 <= tolerance, with the
    multiplier part measured as the realized post-projection change per unit
    time. On divergence the step size is halved and the run restarted once;
    the record's `failed_attempt` then names the step size that diverged.

    `reference` = (x*, y*) enables deviation recording; `saddle` = (eta, lam)
    enables distance-to-saddle recording, tracked at every step.
    """
    opts = options if options is not None else scenario.solver
    if dc is None:
        dc = build_decoupled(scenario, opts.offset_split)
    engine = FlowEngine(scenario, dc, schedules)
    state0 = initial if initial is not None else initial_state(scenario)

    try:
        return _run_flow(engine, scenario, opts, opts.dt, state0, reference, saddle)
    except DivergenceError as exc:
        failed = metrics.FailedAttempt(dt=opts.dt, t=exc.t, max_entry=exc.max_entry)
    final, record = _run_flow(
        engine, scenario, opts, opts.dt / 2.0, state0, reference, saddle
    )
    record.failed_attempt = failed
    return final, record


def _run_flow(engine, scenario, opts, dt, state0, reference, saddle):
    lay = scenario.layout
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

    samples = [_sample(engine, scenario, w, 0.0, reference, saddle)]
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
            samples.append(_sample(engine, scenario, w, t, reference, saddle))
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


def _sample(engine, scenario, w, t, reference, saddle):
    n, q = engine.layout.x_dim, engine.dc.block_dim
    x, z, lam = w[:n], w[n:n + q], w[n + q:]
    state = engine.unstack_state(x, z, lam, t)
    deviation = None
    if reference is not None:
        deviation = metrics.squared_deviation(
            scenario, state, reference, schedules=engine.schedules
        )
    sdist = None
    if saddle is not None:
        sdist = metrics.saddle_distance(scenario, state, saddle)
    y, _ = engine.response(x, t)
    workloads = metrics.workload_report(
        scenario, state, schedules=engine.schedules
    ).by_agent
    return metrics.TrajectorySample(
        t=t,
        deviation=deviation,
        saddle_dist=sdist,
        max_coupled_residual=float(np.max(engine.coupled_gap(x, y))),
        min_multiplier=float(np.min(lam)) if lam.size else 0.0,
        lagrangian=engine.lagrangian_value(x, z, lam, t),
        workloads=workloads,
    )


def gradient_check(
    scenario: Scenario,
    dc: DecoupledConstraint,
    state: SystemState,
    fd_step: float = 1e-6,
) -> float:
    """Max relative error of the analytic x-gradient of the Lagrangian
    against central finite differences."""
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state)
    analytic = engine.lagrangian_gradient_x(x, lam, state.t)
    worst = 0.0
    for idx in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[idx] = fd_step
        hi = engine.lagrangian_value(x + bump, z, lam, state.t)
        lo = engine.lagrangian_value(x - bump, z, lam, state.t)
        numeric = (hi - lo) / (2.0 * fd_step)
        denom = max(1.0, abs(analytic[idx]), abs(numeric))
        worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst
