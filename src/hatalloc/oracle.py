"""Independent centralized solver for quadratic costs with affine humans.

Substituting the affine response map y = d + S x into the objective and the
shared constraint leaves a strictly convex QP in x alone, which is solved
exactly by enumerating active sets of the (few) constraint rows. The result
is used as ground truth against the distributed flow: same problem, entirely
different solution path. Reduce once, solve per offset: of the reduced
program only h_c = c + B d depends on the offset c, so
`ReducedProgram.with_offset` re-targets it to a new c without reassembly, and
`solve_program` / `interior_point` solve a reduced program as it stands.
`reduce_stacked` holds the reduction algebra, so a caller that already has
stacked operators reduces them the way `reduce_program` reduces
`scenario.stacked` (several attitude cells, of several draws, at once when
the operators carry leading cell and draw axes), from which `lift_to_saddle`
reads S and d: it reduces nothing. A program solves its offset-free part
(convexity, active sets and the free minimizer) once for all its offsets.
`load_scenario` reads scenario files, since a file may ask for the solver's
Slater certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .errors import (
    ActiveSetEnumerationError,
    InfeasibleProblemError,
    ScenarioFormatError,
    SlaterConditionError,
    UnsupportedByOracleError,
)
from .human import AFFINE
from .model import (
    QuadraticCost,
    Scenario,
    StackedProblem,
    scenario_from_document,
)
from .reformulation import (
    DecoupledConstraint,
    coupled_residual,
    find_certificate_z,
)

MAX_ENUMERATION_ROWS = 12
ACCEPT_TOL = 1e-9
ACTIVE_TOL = 1e-7  # a multiplier above this marks its row active in the lift
Solution = tuple[np.ndarray, np.ndarray, np.ndarray, float]  # (x*, y*, mu*, value)


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
    b_d: np.ndarray  # B d, the human part of h_c = c + B d
    # The part of a solve that h_c does not change (the convexity verdict, the
    # active sets and the free minimizer); built once, shared by `with_offset`.
    _offset_free: list = field(default_factory=list, init=False, repr=False, compare=False)

    def with_offset(self, c: np.ndarray) -> ReducedProgram:
        """The same program with the scenario's constraint offset set to c."""
        probe = replace(self, h_c=np.asarray(c, dtype=float) + self.b_d)
        object.__setattr__(probe, "_offset_free", self._offset_free)
        return probe

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
    rp = reduce_stacked(scenario.stacked, scenario.constraint.c)
    if not all(np.isfinite(a).all() for a in (rp.H, rp.g, rp.G_c, rp.h_c)):
        raise UnsupportedByOracleError("the reduced program is not finite")
    return rp


def reduce_stacked(sp: StackedProblem, c: np.ndarray) -> ReducedProgram:
    """The reduced program of stacked operators with quadratic costs and
    affine responses, at constraint offset c. `reduce_program` checks those
    conditions. The generator calls this on the attitude cells of a block of
    draws at once: operators with leading axes (S with a cell axis, and in a
    block every operator with a draw axis before it) give H, g, G_c, S, d,
    b_d, h_c and const with those axes broadcast, each cell's floats those
    of its own reduction. Entries that overflow become inf or nan without a
    warning; `reduce_program` refuses such a program."""
    S, d, gam_bar = sp.S, sp.d, sp.y_weight
    S_T = S.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        H = 2.0 * (sp.x_weight + S_T @ gam_bar @ S)
        H = 0.5 * (H + H.swapaxes(-1, -2))
        d_col = d[..., None]
        g = 2.0 * (S_T @ (gam_bar @ d_col))[..., 0]
        const = (d[..., None, :] @ gam_bar @ d_col)[..., 0, 0]
        G_c = sp.a_cat + sp.b_cat @ S
        b_d = (sp.b_cat @ d_col)[..., 0]
    return ReducedProgram(H=H, g=g, const=float(const) if const.ndim == 0 else const,
                          G_c=G_c, h_c=c + b_d, S=S, d=d, b_d=b_d)


def solve_centralized(scenario: Scenario) -> Solution:
    """Exact solution (x*, y*, mu*, value) of the scenario's reduced QP."""
    return solve_program(reduce_program(scenario))


def solve_program(rp: ReducedProgram) -> Solution:
    """Exact solution (x*, y*, mu*, value) by active-set enumeration.

    Every subset of constraint rows is tried as the active set; a candidate
    is accepted when its inactive rows are satisfied and its multipliers are
    nonnegative (both up to 1e-9). Strict convexity makes the accepted
    solution unique. The empty set's candidate, the free minimizer, does not
    depend on the offset, so a program and its `with_offset` copies solve
    for it once.
    """
    r = rp.h_c.shape[0]
    if r > MAX_ENUMERATION_ROWS:
        raise ActiveSetEnumerationError(
            f"{r} constraint rows exceed the enumeration bound "
            f"{MAX_ENUMERATION_ROWS}"
        )
    n = rp.H.shape[0]
    if n == 0:
        # No controllable states: a constant problem, feasible or not.
        if np.max(rp.h_c) > ACCEPT_TOL:
            raise InfeasibleProblemError(
                "fixed human responses violate the shared constraint"
            )
        return np.zeros(0), rp.d.copy(), np.zeros(r), rp.const
    if not rp._offset_free:
        # (active rows, inactive rows, their G_c rows) of every nonempty active set, in order.
        sets = [(list(a), [j for j in range(r) if j not in a], rp.G_c[list(a)])
                for size in range(1, r + 1) for a in combinations(range(r), size)]
        # Strictly convex when H has a Cholesky factor: a relative test, where
        # min(eigvalsh(H)) > 0 fails a large H by its eigenvalues' roundoff.
        try:
            np.linalg.cholesky(rp.H)
            convex = True
        except np.linalg.LinAlgError:
            convex = False
        # The empty set's candidate, the free minimizer, and its row levels G_c x.
        x_free = levels = None
        if convex:
            try:
                x_free = np.linalg.solve(rp.H, -rp.g)
            except np.linalg.LinAlgError:
                pass
            else:
                levels = rp.G_c @ x_free
        rp._offset_free.append((convex, sets, x_free, levels))
    convex, sets, x_free, levels = rp._offset_free[0]
    if not convex:
        raise UnsupportedByOracleError("reduced objective is not strictly convex")
    # No row active: accepted when every row holds at x_free, G_c x + h_c <= 0.
    if x_free is not None and not (r and (levels + rp.h_c).max() > ACCEPT_TOL):
        x = x_free.copy()
        return x, rp.S @ x + rp.d, np.zeros(r), rp.objective(x)

    kkt_buf = np.zeros((n + r, n + r))  # leading block: [[H, G_a^T], [G_a, 0]]
    kkt_buf[:n, :n] = rp.H
    rhs_buf = np.concatenate([-rp.g, np.empty(r)])
    for idx, inactive, G_a in sets:
        m = n + len(idx)
        kkt_buf[n:m, :n] = G_a
        kkt_buf[:n, n:m] = G_a.T
        rhs_buf[n:m] = -rp.h_c[idx]
        try:
            sol = np.linalg.solve(kkt_buf[:m, :m], rhs_buf[:m])
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        mu_active = sol[n:]
        if (mu_active < -ACCEPT_TOL).any():
            continue
        if inactive and rp.constraint(x)[inactive].max() > ACCEPT_TOL:
            continue
        mu = np.zeros(r)
        mu[idx] = np.maximum(mu_active, 0.0)
        y = rp.S @ x + rp.d
        return x, y, mu, rp.objective(x)
    raise InfeasibleProblemError(
        "no active set admissible: instance is infeasible or degenerate"
    )


def interior_point(rp: ReducedProgram) -> np.ndarray | None:
    """A point with G_c x + h_c < 0 strictly, or None if none was found.

    Probes least-squares shifts at a few margins; sufficient for full
    row-rank constraints, which covers the generated scenario class.
    """
    pinv = np.linalg.pinv(rp.G_c)
    for scale in (1e-3, 1e-2, 1e-1, 1.0):
        x = -pinv @ (rp.h_c + scale)
        if np.max(rp.constraint(x)) < -ACCEPT_TOL:
            return x
    return None


def assert_slater(scenario: Scenario) -> None:
    """Raise unless a strictly feasible point is certified."""
    if interior_point(reduce_program(scenario)) is None:
        raise SlaterConditionError(
            "no strictly feasible point found; the shared constraint admits "
            "no interior after substituting the human responses"
        )


def load_scenario(path_or_text) -> Scenario:
    """Load a scenario document from a file path, a file object or a JSON string.

    When the document sets `solver.check_slater`, a centralized pre-solve
    certifies strict feasibility (`assert_slater`).
    """
    try:
        if hasattr(path_or_text, "read"):
            doc = json.load(path_or_text)
        else:
            text = str(path_or_text)
            if text.lstrip().startswith("{"):
                doc = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"scenario is not valid JSON: {exc}") from exc
    scenario = scenario_from_document(doc)
    if scenario.solver.check_slater:
        assert_slater(scenario)
    return scenario


def lift_to_saddle(
    scenario: Scenario,
    dc: DecoupledConstraint,
    x_star: np.ndarray,
    mu_star: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lift the centralized solution into the decoupled space.

    Returns (z*, lambda*, eta*) where lambda* repeats mu* on every block (the
    Laplacian kernel forces consensus multipliers on a connected graph) and
    z* is recovered by `find_certificate_z` with slack placed only on inactive
    rows, so complementary slackness carries over and the flow is stationary
    at the lifted point. Raises `CertificateError` when the Laplacian solve
    for z* leaves a residual, i.e. the decoupled constraint is broken.
    """
    sp = scenario.stacked
    y_star = sp.S @ x_star + sp.d
    coupled = coupled_residual(scenario, x_star, y_star)
    if np.max(coupled) > 1e-6:
        raise InfeasibleProblemError(
            "cannot lift: the candidate point violates the coupled constraint"
        )
    slack_rows = np.minimum(coupled, 0.0)
    slack_rows[mu_star > ACTIVE_TOL] = 0.0
    z_star = find_certificate_z(dc, x_star, y_star, slack_rows)

    n_nodes = len(scenario.layout.node_order)
    lam_star = np.tile(mu_star, n_nodes)
    eta_star = np.concatenate([x_star, z_star])
    return z_star, lam_star, eta_star
