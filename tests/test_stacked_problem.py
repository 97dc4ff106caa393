"""The one stacked assembly that the flow, the oracle and the generator read,
and the dense Laplacian lift that none of them needs."""

import gc
import weakref
from dataclasses import fields, replace
from itertools import combinations

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
from hatalloc import reformulation
from hatalloc.cli import _sample_feasible_pair
from hatalloc.dynamics import FlowEngine, folded_offset
from hatalloc.errors import UnsupportedByOracleError
from hatalloc.experiments import (
    _stability_margins,
    attitude_cells,
    crosscheck_scenario,
    random_scenario,
    team_scenario,
    with_attitudes,
)
from hatalloc.human import AFFINE, logistic, softplus
from hatalloc.model import QuadraticCost, StackedProblem, stack_problem
from hatalloc.oracle import ReducedProgram, reduce_stacked, reduction

from conftest import reference_fold, with_schedules


def _refuse_lift(*args, **kwargs):
    raise AssertionError("the dense Laplacian lift was built")


@pytest.mark.parametrize("family", ["affine", "softplus_affine"])
def test_pipeline_never_builds_the_dense_lift(monkeypatch, family):
    monkeypatch.setattr(reformulation.DecoupledConstraint, "l_bar", property(_refuse_lift))
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


def _scheduled_mixed_scenario():
    """Three humans of both families, every one scheduled: every array of
    its stack is nonempty."""
    scenario = random_scenario(4, n_human=3, families=(AFFINE, "softplus_affine"))
    return with_schedules(scenario, np.random.default_rng(4))


def test_engine_and_oracle_read_the_scenario_stack():
    scenario = crosscheck_scenario(2)
    assert FlowEngine(scenario).stacked is scenario.stacked
    assert reduce_program(scenario).S is scenario.stacked.S


def test_the_scenario_stack_is_read_only():
    """Every array of `Scenario.stacked` refuses writes, so no consumer can
    change the stack the others read."""
    scenario = _scheduled_mixed_scenario()
    arrays = [getattr(scenario.stacked, f.name) for f in fields(StackedProblem)]
    assert all(isinstance(a, np.ndarray) and a.size for a in arrays)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert stack_problem(scenario).S.flags.writeable  # only the shared one is frozen


def _doubled(value):
    """2 value, for an array or for each array of a map."""
    return {k: 2.0 * v for k, v in value.items()} if isinstance(value, dict) else 2.0 * value


def _doubled_models(scenario, name):
    """Every human model with its `base` or its `gains` doubled."""
    models = {k: replace(m, **{name: _doubled(getattr(m, name))})
              for k, m in scenario.human_models.items()}
    return replace(scenario, human_models=models)


def _doubled_blocks(scenario, name):
    con = scenario.constraint
    return replace(scenario, constraint=replace(con, **{name: _doubled(getattr(con, name))}))


def _extra_edge(scenario):
    """One more edge between two autonomous agents; every human keeps its
    neighbors."""
    topo = scenario.topology
    edge = next(pair for pair in combinations(topo.autonomous_ids, 2)
                if pair not in topo.edges)
    return replace(scenario, topology=replace(topo, edges=topo.edges | {edge}))


SOLVER_CHANGES = {"dt": 5e-4, "max_time": 1.0, "tolerance": 1e-9,
                  "offset_split": "uniform", "record_stride": 7, "check_slater": True}
SHARING = {name: lambda s, kw={name: value}: s.with_solver(**kw)
           for name, value in SOLVER_CHANGES.items()}
REBUILDING = {
    "replace": lambda s: replace(s),
    "offset": lambda s: replace(s, constraint=replace(s.constraint, c=2.0 * s.constraint.c)),
    "with_attitudes": lambda s: with_attitudes(s, {"h1": ("risk_averse", 1.0)}),
    "bases": lambda s: _doubled_models(s, "base"),
    "gains": lambda s: _doubled_models(s, "gains"),
    "costs": lambda s: replace(s, costs={a: QuadraticCost(2.0 * c.weight)
                                         for a, c in s.costs.items()}),
    "schedules": lambda s: with_schedules(s, np.random.default_rng(1)),
    "a_blocks": lambda s: _doubled_blocks(s, "a_blocks"),
    "b_blocks": lambda s: _doubled_blocks(s, "b_blocks"),
    "topology": _extra_edge,
}


@pytest.mark.parametrize("change, shares", [
    *[pytest.param(change, True, id=name) for name, change in SHARING.items()],
    *[pytest.param(change, False, id=name) for name, change in REBUILDING.items()],
])
def test_which_copies_share_the_stack(change, shares):
    """Once a scenario's stack is built, a `with_solver` copy (one per
    solver option) holds that stack itself, since `stack_problem` does not
    read the solver options; every other copy, a new offset c too, builds
    its own. Either way the copy's stack is, byte for byte, the one
    `stack_problem` lays out from the copy's own fields. The same copies
    share the scenario's reduction and the triplets of its folded M, which
    the engine of any `build_decoupled` of the copy reads; the others reduce
    and fold their own. Either way they equal, byte for byte, a fresh
    reduction of the copy's stack and the reference fold of it."""
    base = team_scenario(1)
    built = base.stacked
    rp = reduction(base)
    held = FlowEngine(base, build_decoupled(base)).folded()
    copy = change(base)
    assert (copy.stacked is built) == shares
    fresh = stack_problem(copy)
    for f in fields(StackedProblem):
        assert getattr(copy.stacked, f.name).tobytes() == getattr(fresh, f.name).tobytes()

    assert (reduction(copy) is rp) == shares
    fresh = reduce_stacked(copy.stacked, copy.constraint.c)
    for f in fields(ReducedProgram):
        if not f.name.startswith("_"):
            got = np.asarray(getattr(reduction(copy), f.name))
            assert got.tobytes() == np.asarray(getattr(fresh, f.name)).tobytes()
    dc = build_decoupled(copy)
    folded = FlowEngine(copy, dc).folded()
    assert [a is b for a, b in zip(folded[:3], held[:3])] == [shares] * 3
    for got, expected in zip(folded, reference_fold(fresh, dc)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_an_offset_split_copy_shares_m_and_takes_its_own_b():
    """b reads c_split: a `with_solver(offset_split="uniform")` copy folds
    with the scenario's M and its own b."""
    base = team_scenario(1)
    held = FlowEngine(base, build_decoupled(base)).folded()
    copy = base.with_solver(offset_split="uniform")
    dc = build_decoupled(copy)
    folded = FlowEngine(copy, dc).folded()
    assert all(a is b for a, b in zip(folded[:3], held[:3]))
    assert folded[3].tobytes() == folded_offset(reduction(copy), dc).tobytes()
    assert not np.array_equal(folded[3], held[3])


def test_an_engine_with_other_blocks_folds_its_own():
    """An engine whose decoupled constraint holds blocks other than the
    scenario's folds its own M from them, the reference fold's bytes, and
    leaves the scenario's held M as it was."""
    base = team_scenario(1)
    dc = build_decoupled(base)
    held = FlowEngine(base, dc).folded()
    for other in (replace(dc, a_bar=dc.a_bar.copy()), replace(dc, laplacian=2.0 * dc.laplacian)):
        folded = FlowEngine(base, other).folded()
        assert not any(a is b for a, b in zip(folded[:3], held[:3]))
        for got, expected in zip(folded, reference_fold(reduction(base), other)):
            assert got.tobytes() == expected.tobytes()
    assert all(a is b for a, b in zip(FlowEngine(base, dc).folded()[:3], held[:3]))


def test_a_dropped_scenario_frees_its_reduction_and_fold():
    """The reduction and the folded M live as long as the last of a scenario
    and its `with_solver` copies that hold them."""
    scenario = replace(crosscheck_scenario(2)).with_solver(max_time=0.1)
    integrate(scenario)
    copy = scenario.with_solver(tolerance=0.0)
    refs = [weakref.ref(reduction(copy)), weakref.ref(FlowEngine(copy).folded()[0])]
    del scenario
    gc.collect()
    assert all(ref() is not None for ref in refs)
    del copy
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_flipped_cell_stacks_its_own_attitudes():
    base = team_scenario(1)
    for key, cell in attitude_cells(base).items():
        assert np.array_equal(cell.stacked.S, stack_problem(cell).S)
        own = key == ("risk_seeking", "risk_averse")  # team 1's attitudes
        assert np.array_equal(cell.stacked.S, base.stacked.S) == own
