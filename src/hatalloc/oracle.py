"""Independent centralized solver for quadratic costs with affine humans.

Substituting the affine response map y = d + S x into the objective and the
shared constraint leaves a strictly convex QP in x alone, which is solved
exactly by enumerating active sets of the (few) constraint rows. The result
is used as ground truth against the distributed flow: same problem, entirely
different solution path. Reduce once per scenario, solve per offset:
`reduction` is the one place that reduces a scenario's own stack. It holds
the result, read-only and unchecked, by `Scenario.derive`, so the oracle's
solves, the flow's fold (`FlowEngine.folded`) and every `with_solver` copy
read one reduction; `reduce_program` checks the oracle's scope and the
reduction's finiteness on top of it. Of the reduced program only
h_c = c + B d depends on the offset c, so `ReducedProgram.with_offset`
re-targets it to a new c without reassembly. `reduce_stacked` holds the
reduction algebra and makes every reduced program: the generator, which
already has stacked operators, reduces them as `reduction` reduces
`scenario.stacked` (several attitude cells, of several draws, at once when
the operators carry leading draw and cell axes), and reduces a draw's cells
anew when it scales their bases d. `lift_to_saddle` reads S and d from the
stack: it reduces nothing.

`solve_programs` and `interior_points` solve a stack of programs (one
leading axis on every field) with one active-set enumeration:
each active set, in order, is solved for every program still undecided in
one `np.linalg.solve` call, and the enumeration stops once every program is
decided (Nocedal & Wright, *Numerical Optimization*, ch. 16). LAPACK and
BLAS treat a stack one matrix at a time, so with `np.linalg` and `@` each
program's floats are those it gets alone (`np.einsum`'s sums are not);
`solve_program` and `interior_point` are the same code on a stack of one.
What a solve reads of H and G_c alone (the Cholesky verdicts, each active
set's rows G_a of the KKT matrix [[H, G_a^T], [G_a, 0]], and pinv(G_c)) is
built once per stack and shared by its `with_offset` copies, and so are the
free minimizer and its row levels, which read g too. `load_scenario` reads
scenario files, since a file may ask for the solver's Slater certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

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
    """min 0.5 x^T H x + g^T x + const  s.t.  G_c x + h_c <= 0.

    A stack of programs carries the same leading axes on every field, const
    an array of them: one axis for a draw's attitude cells, two for a block
    of draws and their cells; `at` takes the first."""

    H: np.ndarray
    g: np.ndarray
    const: float
    G_c: np.ndarray
    h_c: np.ndarray
    S: np.ndarray  # stacked response gain, y = S x + d
    d: np.ndarray
    b_d: np.ndarray  # B d, the human part of h_c = c + B d
    # What a solve reads of H and G_c alone: the Cholesky verdicts, each
    # active set's rows G_a of the KKT matrix, and pinv(G_c). Built once,
    # shared by `with_offset` copies.
    _structure: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The free minimizer and its row levels G_c x, which read g too; shared
    # by `with_offset` copies.
    _free: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def with_offset(self, c: np.ndarray) -> ReducedProgram:
        """The same program with the scenario's constraint offset set to c."""
        probe = replace(self, h_c=np.asarray(c, dtype=float) + self.b_d)
        object.__setattr__(probe, "_structure", self._structure)
        object.__setattr__(probe, "_free", self._free)
        return probe

    def at(self, i: int) -> ReducedProgram:
        """Row i of the first axis of every field: program i of a stack of
        programs, or draw i's cells of a block. const is a float when one
        program results."""
        const = self.const[i]
        return ReducedProgram(H=self.H[i], g=self.g[i],
                              const=float(const) if const.ndim == 0 else const,
                              G_c=self.G_c[i], h_c=self.h_c[i], S=self.S[i], d=self.d[i],
                              b_d=self.b_d[i])


def reduce_program(scenario: Scenario) -> ReducedProgram:
    """Eliminate the human states, leaving a QP in the autonomous states:
    the scenario's `reduction`, once its costs and humans are in the
    oracle's scope and its H, g, G_c and h_c are finite."""
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
    rp = reduction(scenario)
    if not all(np.isfinite(a).all() for a in (rp.H, rp.g, rp.G_c, rp.h_c)):
        raise UnsupportedByOracleError("the reduced program is not finite")
    return rp


def reduction(scenario: Scenario) -> ReducedProgram:
    """`reduce_stacked` of the scenario's own stack at its offset c, held by
    `scenario.derive`: the scenario, its `with_solver` copies, the oracle and
    the flow share it. It is unchecked, so a reduction that is not finite
    still folds; every cost must be quadratic (`reduce_program` checks the
    rest of the oracle's scope)."""
    return scenario.derive(
        "reduction", lambda: reduce_stacked(scenario.stacked, scenario.constraint.c))


def reduce_stacked(sp: StackedProblem, c: np.ndarray) -> ReducedProgram:
    """The reduced program of stacked operators with quadratic costs and
    affine responses, at constraint offset c: the one maker of reduced
    programs. `reduce_program` checks those conditions. The generator calls
    this on the attitude cells of a block of draws at once, every operator
    with a leading draw axis and a cell axis after it, and on one draw's
    cells, a cell axis alone, with their bases d scaled. It gives H, g,
    G_c, S, d, b_d, h_c and const with those axes, each cell's floats those
    of its own reduction. Entries that overflow become inf or nan without a
    warning; `reduce_program` refuses such a program."""
    S, gam_bar, d_col = sp.S, sp.y_weight, sp.d[..., None]
    S_T = S.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        H = 2.0 * (sp.x_weight + S_T @ gam_bar @ S)
        H = 0.5 * (H + H.swapaxes(-1, -2))
        g = 2.0 * (S_T @ (gam_bar @ d_col))[..., 0]
        const = (sp.d[..., None, :] @ gam_bar @ d_col)[..., 0, 0]
        b_d = (sp.b_cat @ d_col)[..., 0]
        G_c = sp.a_cat + sp.b_cat @ S
    return ReducedProgram(H=H, g=g, const=float(const) if const.ndim == 0 else const,
                          G_c=G_c, h_c=c + b_d, S=S, d=sp.d, b_d=b_d)


def solve_centralized(scenario: Scenario) -> Solution:
    """Exact solution (x*, y*, mu*, value) of the scenario's reduced QP."""
    return solve_program(reduce_program(scenario))


def solve_program(rp: ReducedProgram) -> Solution:
    """Exact solution (x*, y*, mu*, value) of one program: `solve_programs`
    on a stack of one, raising its error."""
    solved = solve_programs(rp)
    if solved.error[0] is not None:
        raise solved.error[0]
    return solved.x[0], solved.y[0], solved.mu[0], float(solved.value[0])


class Solutions(NamedTuple):
    """`solve_programs` of a stack, one row per program: its x*, y* = S x* + d,
    mu* and objective value; nan where `error` holds the `HatallocError`
    that solving the program alone raises (None where it solved)."""

    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    value: np.ndarray
    error: list

    @property
    def solved(self) -> np.ndarray:
        return np.array([e is None for e in self.error])


def _stack(rp: ReducedProgram):
    """(H, g, G_c, h_c, S, d, const) with one leading stack axis: a single
    program's as a stack of one."""
    if rp.H.ndim == 3:
        return rp.H, rp.g, rp.G_c, rp.h_c, rp.S, rp.d, np.asarray(rp.const)
    return (rp.H[None], rp.g[None], rp.G_c[None], rp.h_c[None], rp.S[None], rp.d[None],
            np.array([rp.const]))


def _rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`a[rows]` for sorted distinct `rows` of a stack, without a copy when
    they are all of them. The copy it saves shows in memory: with `a[rows]`
    always, five `random_scenario(s, 200, 50, 3)` solves in a fresh process
    peaked at 46.7-47.3 MB `ru_maxrss` against 45.5-45.7 MB, and the
    large_team benchmark's peak is set in `solve`."""
    return a if len(rows) == len(a) else a[rows]


def per_matrix(func, a: np.ndarray, *args) -> tuple[np.ndarray, np.ndarray]:
    """`func(a, *args)` of a stack of matrices a (`np.linalg.solve`,
    `np.linalg.cholesky` or `np.linalg.inv`), and on which matrices it
    fails: one call, or when it raises, one call per matrix, so that a
    matrix fails only its own place (left 0)."""
    try:
        return func(a, *args), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        out, failed = np.zeros((args[0] if args else a).shape), np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                out[i] = func(a[i], *(arg[i] for arg in args))
            except np.linalg.LinAlgError:
                failed[i] = True
        return out, failed


@lru_cache(maxsize=None)
def _active_sets(r: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(active rows, inactive rows) of every nonempty active set of r
    constraint rows, in enumeration order: smallest first. The arrays are
    read-only, since every caller shares them."""
    sets = []
    for size in range(1, r + 1):
        for active in combinations(range(r), size):
            rows = np.array(active), np.array([j for j in range(r) if j not in active], dtype=int)
            for array in rows:
                array.flags.writeable = False
            sets.append(rows)
    return tuple(sets)


def solve_programs(rp: ReducedProgram) -> Solutions:
    """Exact solutions of a stack of programs (one program is a stack of
    one) by active-set enumeration.

    Every subset of constraint rows is tried as the active set, smallest
    first; a candidate is accepted when its inactive rows are satisfied and
    its multipliers are nonnegative (both up to 1e-9). Strict convexity
    makes the accepted solution unique. The empty set's candidate, the free
    minimizer, does not depend on the offset, so a stack and its
    `with_offset` copies solve for it once. Every other set is solved for
    every program still undecided in one `np.linalg.solve` call, and the
    enumeration stops once each program is decided. A program with no
    autonomous state (n = 0) is enumerated like any other: its 0x0 H has a
    Cholesky factor, its free minimizer is empty with levels 0, so it is
    accepted when h_c <= 0 holds, and every nonempty set's KKT matrix is
    singular otherwise; its y is d and its value const.
    """
    H, g, G_c, h_c, S, d, const = _stack(rp)
    k, r, n = G_c.shape
    error = [None] * k
    if r > MAX_ENUMERATION_ROWS:
        error = [ActiveSetEnumerationError(
            f"{r} constraint rows exceed the enumeration bound {MAX_ENUMERATION_ROWS}")] * k
        return _solutions(np.empty((k, n)), np.empty((k, r)), error, H, g, S, d, const)
    structure = rp._structure
    if "convex" not in structure:
        # Strictly convex when H has a Cholesky factor: a relative test, where
        # min(eigvalsh(H)) > 0 fails a large H by its eigenvalues' roundoff.
        structure.update(convex=~per_matrix(np.linalg.cholesky, H)[1],
                         G_a=[G_c[:, active] for active, _ in _active_sets(r)])
    convex = structure["convex"]
    for i in np.flatnonzero(~convex):
        error[i] = UnsupportedByOracleError("reduced objective is not strictly convex")
    free = rp._free
    if not free:
        # The empty set's candidate, the free minimizer, and its row levels G_c x.
        rows = np.flatnonzero(convex)
        x_free, failed = per_matrix(np.linalg.solve, _rows(H, rows), -_rows(g, rows)[..., None])
        rows, x_free = rows[~failed], x_free[~failed]
        free.update(rows=rows, x=x_free[..., 0], levels=(_rows(G_c, rows) @ x_free)[..., 0])
    # No row active: accepted when every row holds at x_free, G_c x + h_c <= 0.
    x, mu = np.empty((k, n)), np.zeros((k, r))
    rows = free["rows"]
    holds = ~((free["levels"] + _rows(h_c, rows)).max(axis=1) > ACCEPT_TOL)
    rows = rows[holds]
    x[rows] = free["x"][holds]
    pending = convex.copy()
    pending[rows] = False
    pending = np.flatnonzero(pending)
    if pending.size:
        pending = _nonempty_sets(H, g, G_c, h_c, structure["G_a"], pending, x, mu)
    for i in pending:
        error[i] = InfeasibleProblemError(
            "no active set admissible: instance is infeasible or degenerate")
    return _solutions(x, mu, error, H, g, S, d, const)


def _nonempty_sets(H, g, G_c, h_c, G_as, pending, x, mu) -> np.ndarray:
    """The nonempty active sets, in order, for the stack's programs
    `pending`: each set's KKT system is solved for the programs still
    undecided in one `np.linalg.solve` call, and an accepted program's x and
    mu rows are written. Returns the programs no set accepts."""
    k, r, n = G_c.shape
    kkt = np.zeros((k, n + r, n + r))  # leading block: [[H, G_a^T], [G_a, 0]]
    kkt[:, :n, :n] = H
    rhs = np.empty((k, n + r, 1))
    rhs[:, :n, 0] = -g
    neg_h = -h_c
    for (active, inactive), G_a in zip(_active_sets(r), G_as):
        m = n + len(active)
        kkt[:, n:m, :n] = G_a
        kkt[:, :n, n:m] = G_a.swapaxes(-1, -2)
        rhs[:, n:m, 0] = neg_h[:, active]
        sol, bad = per_matrix(np.linalg.solve, _rows(kkt, pending)[:, :m, :m],
                              _rows(rhs, pending)[:, :m])
        mu_a = sol[:, n:, 0]
        # Some multiplier below -ACCEPT_TOL (fmin passes over a nan).
        bad |= np.fmin.reduce(mu_a, axis=1) < -ACCEPT_TOL
        if inactive.size:
            levels = (_rows(G_c, pending) @ sol[:, :n])[..., 0] + _rows(h_c, pending)
            bad |= levels[:, inactive].max(axis=1) > ACCEPT_TOL
        if bad.all():
            continue
        decided = pending
        if bad.any():
            decided, sol, mu_a, pending = pending[~bad], sol[~bad], mu_a[~bad], pending[bad]
        else:
            pending = pending[:0]
        x[decided] = sol[:, :n, 0]
        mu[decided[:, None], active] = np.maximum(mu_a, 0.0)
        if not pending.size:
            break
    return pending


def _solutions(x, mu, error, H, g, S, d, const) -> Solutions:
    """The `Solutions` of a stack from its points x and multipliers mu. A
    program whose objective value is not finite, which may overflow at a
    finite x, fails with `UnsupportedByOracleError`."""
    x_col = x[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        y = (S @ x_col)[..., 0] + d
        value = ((0.5 * x[:, None, :] @ H) @ x_col)[:, 0, 0] + (
            g[:, None, :] @ x_col)[:, 0, 0] + const
    for i in np.flatnonzero(~np.isfinite(value)):
        error[i] = error[i] or UnsupportedByOracleError("the objective value is not finite")
    failed = [i for i, e in enumerate(error) if e is not None]
    x[failed], y[failed], mu[failed], value[failed] = np.nan, np.nan, np.nan, np.nan
    return Solutions(x, y, mu, value, error)


def interior_point(rp: ReducedProgram) -> np.ndarray | None:
    """A point with G_c x + h_c < 0 strictly, or None if none was found:
    `interior_points` on a stack of one."""
    return interior_points(rp)[0]


def interior_points(rp: ReducedProgram) -> list[np.ndarray | None]:
    """Per program of a stack, a point with G_c x + h_c < 0 strictly, or
    None if none was found.

    Probes least-squares shifts at a few margins; sufficient for full
    row-rank constraints, which covers the generated scenario class.
    pinv(G_c) is computed once per stack.
    """
    _, _, G_c, h_c, _, _, _ = _stack(rp)
    if "pinv" not in rp._structure:
        rp._structure["pinv"] = np.linalg.pinv(G_c)
    pinv = rp._structure["pinv"]
    points = [None] * len(G_c)
    for scale in (1e-3, 1e-2, 1e-1, 1.0):
        x = -pinv @ (h_c + scale)[..., None]
        strict = np.max((G_c @ x)[..., 0] + h_c, axis=1) < -ACCEPT_TOL
        for i in np.flatnonzero(strict):
            if points[i] is None:
                points[i] = x[i, :, 0]
        if all(point is not None for point in points):
            break
    return points


def assert_slater(scenario: Scenario) -> None:
    """Raise unless a strictly feasible point is certified."""
    if interior_point(reduce_program(scenario)) is None:
        raise SlaterConditionError(
            "no strictly feasible point found; the shared constraint admits "
            "no interior after substituting the human responses"
        )


def load_scenario(source) -> Scenario:
    """Load a scenario document from a file object, or from the file at a
    path (a string or path object, whatever its name).

    When the document sets `solver.check_slater`, a centralized pre-solve
    certifies strict feasibility (`assert_slater`).
    """
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(str(source), "r", encoding="utf-8") as handle:
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
    at the lifted point. Raises `InfeasibleProblemError` when the point's
    coupled residual exceeds 1e-6 or is not a number, and `CertificateError`
    when the Laplacian solve for z* leaves a residual, i.e. the decoupled
    constraint is broken.
    """
    sp = scenario.stacked
    y_star = sp.S @ x_star + sp.d
    coupled = coupled_residual(scenario, x_star, y_star)
    if not np.max(coupled) <= 1e-6:
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
