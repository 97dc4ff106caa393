"""The one stacked assembly that the flow, the oracle and the generator read,
and the dense Laplacian lift that none of them needs."""

from dataclasses import replace

import numpy as np
import pytest

from hatalloc import (
    build_decoupled,
    coupled_residual,
    find_certificate_z,
    integrate,
    kkt_residual,
    lift_to_saddle,
    reduce_program,
    solve_centralized,
)
from hatalloc import reformulation, topology
from hatalloc.cli import _sample_feasible_pair
from hatalloc.dynamics import FlowEngine
from hatalloc.errors import UnsupportedByOracleError
from hatalloc.experiments import (
    _stability_margins,
    crosscheck_scenario,
    random_scenario,
    team_scenario,
)
from hatalloc.human import AFFINE, logistic, softplus
from hatalloc.model import stack_problem

from conftest import with_schedules


def _refuse_lift(*args, **kwargs):
    raise AssertionError("the dense Laplacian lift was built")


@pytest.mark.parametrize("family", ["affine", "softplus_affine"])
def test_pipeline_never_builds_the_dense_lift(monkeypatch, family):
    monkeypatch.setattr(topology, "laplacian_lift", _refuse_lift)
    monkeypatch.setattr(reformulation, "laplacian_lift", _refuse_lift)
    scenario = random_scenario(
        4, n_autonomous=4, n_human=2, rows=2, families=(family,)
    ).with_solver(tolerance=0.0, max_time=0.3)

    dc = build_decoupled(scenario)
    tracking = {}
    if family == "affine":
        x_star, y_star, mu_star, _ = solve_centralized(scenario)
        _, lam_star, eta_star = lift_to_saddle(scenario, dc, x_star, mu_star)
        tracking = {"reference": (x_star, y_star), "saddle": (eta_star, lam_star)}
    else:
        with pytest.raises(UnsupportedByOracleError):
            solve_centralized(scenario)
    final, record = integrate(scenario, dc=dc, **tracking)
    assert (record.steps, record.termination) == (300, "max_time")
    residuals = kkt_residual(scenario, dc, final)
    assert np.isfinite(residuals.stationarity)

    a_pinv = np.linalg.pinv(stack_problem(scenario).a_cat)
    x, y = _sample_feasible_pair(scenario, a_pinv, np.random.default_rng(0))
    z = find_certificate_z(dc, x, y, coupled_residual(scenario, x, y))
    assert z is not None

    if family == "affine":
        abscissa, radius = _stability_margins(reduce_program(scenario), dc, scenario.solver.dt)
        assert np.isfinite(abscissa) and np.isfinite(radius)
    else:
        with pytest.raises(UnsupportedByOracleError):
            _stability_margins(reduce_program(scenario), dc, scenario.solver.dt)


def _block_jacobian(scenario):
    """The flow's all-active linearization, assembled block by block from the
    reduced program and the dense lift."""
    rp = reduce_program(scenario)
    dc = build_decoupled(scenario)
    n = scenario.layout.x_dim
    q = dc.block_dim
    coupling = np.vstack([dc.a_bar, dc.b_bar @ rp.S])
    jac = np.zeros((n + 2 * q, n + 2 * q))
    jac[:n, :n] = -rp.H
    jac[:n, n + q:] = -coupling.T
    jac[n:n + q, n + q:] = -dc.l_bar
    jac[n + q:, :n] = coupling
    jac[n + q:, n:n + q] = dc.l_bar
    return jac


@pytest.mark.parametrize("make", [
    pytest.param(lambda: team_scenario(1), id="team-1"),
    *[pytest.param(lambda s=s: crosscheck_scenario(s), id=f"crosscheck-{s}")
      for s in (1, 2, 3)],
    *[pytest.param(lambda s=s: random_scenario(s), id=f"random-{s}")
      for s in (0, 1, 2, 5, 11)],
])
def test_stability_operator_equals_block_assembly(monkeypatch, make):
    scenario = make()
    seen = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a.copy()) or eigvals(a))
    rp, dc = reduce_program(scenario), build_decoupled(scenario)
    _stability_margins(rp, dc, scenario.solver.dt)
    assert len(seen) == 1
    assert np.array_equal(seen[0], _block_jacobian(scenario))


def _per_human_response(scenario, t, pre, w):
    """(S, d) at time t, the activation of `pre` and `w` scaled by its
    derivative, laid out human by human with the arithmetic of the stacked
    expressions: the loops that the stacked layout replaced."""
    lay, sp = scenario.layout, stack_problem(scenario)
    S, d, y, scaled = sp.S.copy(), sp.d.copy(), pre.copy(), w.copy()
    for k in lay.human_ids:
        model, rows = scenario.human_models[k], lay.y_slice(k)
        sched = scenario.schedules.get(k)
        phi = 0.0 if sched is None else sched.blend(t)
        if phi > 0.0:
            s_delta = np.zeros((model.dim, lay.x_dim))
            for j, delta in sched.gain_deltas.items():
                s_delta[:, lay.x_slice(j)] = model.attitude * delta
            S[rows] += phi * s_delta
            d[rows] += phi * sched.base_delta
        if model.family != AFFINE:
            y[rows] = softplus(pre[rows], model.sharpness)
            scaled[rows] = logistic(pre[rows], model.sharpness) * w[rows]
    return S, d, y, scaled


@pytest.mark.parametrize("seed", [4, 6, 9])
def test_response_map_equals_per_human_layout(seed):
    """Three humans of both families, two of them with schedules that
    settle at different times: at every time, with some rows exact while
    others still blend, `FlowEngine` reads the same S, d and activation from
    the stacked layout, bit for bit."""
    rng = np.random.default_rng(seed)
    scenario = random_scenario(seed, n_human=3, families=(AFFINE, "softplus_affine"))
    scenario = with_schedules(scenario, rng)
    first = scenario.layout.human_ids[0]
    scenario = replace(scenario, schedules={
        k: sched for k, sched in scenario.schedules.items() if k != first})
    settle = sorted(sched.settle_time for sched in scenario.schedules.values())
    engine = FlowEngine(scenario)
    for t in [0.0, *settle, *np.linspace(0.0, 1.2 * settle[-1], 25)]:
        pre, w = rng.normal(scale=2.0, size=(2, scenario.layout.y_dim))
        want = _per_human_response(scenario, t, pre, w)
        got = (*engine._params(t), engine._activate(pre), engine._chain_scale(w, pre))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
