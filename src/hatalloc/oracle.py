"""Independent centralized solver for quadratic costs with affine humans.

Substituting the affine response map y = d + S x into the objective and the
shared constraint leaves a strictly convex QP in x alone, which is solved
exactly by enumerating active sets of the (few) constraint rows. The result
is used as ground truth against the distributed flow: same problem, entirely
different solution path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    ActiveSetEnumerationError,
    InfeasibleProblemError,
    SlaterConditionError,
    UnsupportedByOracleError,
)
from .human import AFFINE
from .model import QuadraticCost, Scenario, stack_problem
from .reformulation import (
    DecoupledConstraint,
    coupled_residual,
    decoupled_residual,
    stacked_terms,
)

MAX_ENUMERATION_ROWS = 12
ACCEPT_TOL = 1e-9


@dataclass(frozen=True)
class ReducedProgram:
    """min 0.5 x^T H x + g^T x + const  s.t.  G_c x + h_c <= 0."""

    H: np.ndarray
    g: np.ndarray
    const: float
    G_c: np.ndarray
    h_c: np.ndarray
    S: np.ndarray  # stacked response gain, y = S x + d
    d: np.ndarray

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.g @ x + self.const)

    def constraint(self, x: np.ndarray) -> np.ndarray:
        return self.G_c @ x + self.h_c


def reduce_program(scenario: Scenario) -> ReducedProgram:
    """Eliminate the human states, leaving a QP in the autonomous states."""
    for agent_id, cost in scenario.costs.items():
        if not isinstance(cost, QuadraticCost):
            raise UnsupportedByOracleError(
                f"cost for '{agent_id}' is not quadratic; outside oracle scope"
            )
    for k in scenario.layout.human_ids:
        model = scenario.human_models[k]
        if model.family != AFFINE:
            raise UnsupportedByOracleError(
                f"human '{k}' uses family '{model.family}'; the centralized "
                "solver handles affine responses only"
            )
    sp = stack_problem(scenario)
    S, d, gam_bar = sp.S, sp.d, sp.y_weight

    H = 2.0 * (sp.x_weight + S.T @ gam_bar @ S)
    H = 0.5 * (H + H.T)
    g = 2.0 * (S.T @ (gam_bar @ d))
    const = float(d @ gam_bar @ d)
    G_c = sp.a_cat + sp.b_cat @ S
    h_c = scenario.constraint.c + sp.b_cat @ d
    return ReducedProgram(H=H, g=g, const=const, G_c=G_c, h_c=h_c, S=S, d=d)


def solve_centralized(
    scenario: Scenario,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Exact solution (x*, y*, mu*, value) by active-set enumeration.

    Every subset of constraint rows is tried as the active set; a candidate
    is accepted when its inactive rows are satisfied and its multipliers are
    nonnegative (both up to 1e-9). Strict convexity makes the accepted
    solution unique.
    """
    rp = reduce_program(scenario)
    r = rp.h_c.shape[0]
    if r > MAX_ENUMERATION_ROWS:
        raise ActiveSetEnumerationError(
            f"{r} constraint rows exceed the enumeration bound "
            f"{MAX_ENUMERATION_ROWS}"
        )
    if rp.H.shape[0] == 0:
        # No controllable states: a constant problem, feasible or not.
        if np.max(rp.h_c) > ACCEPT_TOL:
            raise InfeasibleProblemError(
                "fixed human responses violate the shared constraint"
            )
        return np.zeros(0), rp.d.copy(), np.zeros(r), rp.const
    if np.min(np.linalg.eigvalsh(rp.H)) <= 0:
        raise UnsupportedByOracleError("reduced objective is not strictly convex")

    n = rp.H.shape[0]
    for size in range(r + 1):
        for active in combinations(range(r), size):
            idx = list(active)
            G_a = rp.G_c[idx]
            if size == 0:
                kkt = rp.H
                rhs = -rp.g
            else:
                kkt = np.block([
                    [rp.H, G_a.T],
                    [G_a, np.zeros((size, size))],
                ])
                rhs = np.concatenate([-rp.g, -rp.h_c[idx]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mu_active = sol[n:]
            if np.any(mu_active < -ACCEPT_TOL):
                continue
            inactive = [j for j in range(r) if j not in active]
            if inactive and np.max(rp.constraint(x)[inactive]) > ACCEPT_TOL:
                continue
            mu = np.zeros(r)
            mu[idx] = np.maximum(mu_active, 0.0)
            y = rp.S @ x + rp.d
            return x, y, mu, rp.objective(x)
    raise InfeasibleProblemError(
        "no active set admissible: instance is infeasible or degenerate"
    )


def strictly_feasible_point(
    scenario: Scenario, margin: float = 1e-3
) -> np.ndarray | None:
    """A point with G_c x + h_c < 0 strictly, or None if none was found.

    Probes least-squares shifts at a few margins; sufficient for full
    row-rank constraints, which covers the generated scenario class.
    """
    rp = reduce_program(scenario)
    pinv = np.linalg.pinv(rp.G_c)
    for scale in (margin, 1e-2, 1e-1, 1.0):
        x = -pinv @ (rp.h_c + scale)
        if np.max(rp.constraint(x)) < -ACCEPT_TOL:
            return x
    return None


def assert_slater(scenario: Scenario) -> None:
    """Raise unless a strictly feasible point is certified."""
    if strictly_feasible_point(scenario) is None:
        raise SlaterConditionError(
            "no strictly feasible point found; the shared constraint admits "
            "no interior after substituting the human responses"
        )


def lift_to_saddle(
    scenario: Scenario,
    dc: DecoupledConstraint,
    x_star: np.ndarray,
    mu_star: np.ndarray,
    active_tol: float = 1e-7,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lift the centralized solution into the decoupled space.

    Returns (z*, lambda*, eta*) where lambda* repeats mu* on every block (the
    Laplacian kernel forces consensus multipliers on a connected graph) and
    z* is recovered with slack placed only on inactive rows, so complementary
    slackness carries over and the flow is stationary at the lifted point.
    """
    rp = reduce_program(scenario)
    y_star = rp.S @ x_star + rp.d
    coupled = coupled_residual(scenario, x_star, y_star)
    if np.max(coupled) > 1e-6:
        raise InfeasibleProblemError(
            "cannot lift: the candidate point violates the coupled constraint"
        )
    slack_rows = np.minimum(coupled, 0.0)
    slack_rows[mu_star > active_tol] = 0.0

    terms = stacked_terms(dc, x_star, y_star)
    slack = np.zeros_like(terms)
    slack[:dc.rows] = -slack_rows
    rhs = -(terms + slack)
    z_star = dc.lift_solve(rhs)

    n_nodes = len(scenario.layout.node_order)
    lam_star = np.tile(mu_star, n_nodes)
    eta_star = np.concatenate([x_star, z_star])
    return z_star, lam_star, eta_star


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    primal: float
    dual_min: float
    comp_slack: float


def kkt_residual(scenario: Scenario, dc: DecoupledConstraint, state) -> KKTResidual:
    """First-order optimality residuals of a system state.

    Stationarity covers both the x gradient of the Lagrangian and the z
    gradient (the Laplacian image of the multipliers); primal is the largest
    constraint violation; comp_slack is |lambda . residual|.
    """
    from .dynamics import FlowEngine

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
