"""The folded affine velocity against the reference `FlowEngine.rhs` path.

`integrate` takes the folded step for quadratic costs with affine,
unscheduled humans and `FlowEngine.rhs` otherwise; `_step_arrays` is the
reference both are held to.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import build_decoupled, initial_state, integrate
from hatalloc.dynamics import FlowEngine, _step_arrays
from hatalloc.experiments import random_scenario
from hatalloc.human import ApproximationSchedule

from conftest import path_scenario

STEPS = 300
AFFINE_SEEDS = (0, 1, 2, 5, 11)


def _with_random_start(scenario, seed):
    """The scenario started from a random state with about half of the
    multipliers at zero, so the clamp acts from the first step."""
    rng = np.random.default_rng(seed)
    lay = scenario.layout
    lam = rng.uniform(0.0, 1.0, size=lay.block_dim)
    lam[rng.random(lay.block_dim) < 0.5] = 0.0
    start = {
        "x": {i: rng.normal(size=scenario.dims[i]).tolist() for i in lay.autonomous_ids},
        "z": {a: rng.normal(size=lay.rows).tolist() for a in lay.node_order},
        "lambda": {a: lam[lay.node_slice(a)].tolist() for a in lay.node_order},
    }
    return replace(scenario, initial_state=start)


def _scheduled():
    scenario = path_scenario(attitude=-0.7)
    model = scenario.human_models["k1"]
    schedules = {"k1": ApproximationSchedule(
        gain_deltas={j: 0.5 * g for j, g in model.gains.items()},
        base_delta=np.array([0.3]),
        settle_time=0.1,  # settles inside the run
    )}
    return scenario, schedules


def _cases():
    cases = [
        pytest.param(random_scenario(s), None, True, id=f"affine-{s}")
        for s in AFFINE_SEEDS
    ]
    cases.append(pytest.param(
        path_scenario(attitude=-0.8, family="softplus_affine", beta=5.0),
        None, False, id="softplus",
    ))
    cases.append(pytest.param(*_scheduled(), False, id="scheduled"))
    return cases


def _reference_run(scenario, schedules, w_ref):
    """STEPS reference steps with the bookkeeping `integrate` records."""
    engine = FlowEngine(scenario, build_decoupled(scenario), schedules)
    x, z, lam = engine.stack_state(initial_state(scenario))
    dt = scenario.solver.dt

    def stacked():
        return np.concatenate([x, z, lam])

    def distance(w):
        n_eta = x.size + z.size
        d_eta, d_lam = w[:n_eta] - w_ref[:n_eta], w[n_eta:] - w_ref[n_eta:]
        return 0.5 * (d_eta @ d_eta) + 0.5 * (d_lam @ d_lam)

    sup = float(np.max(np.abs(stacked())))
    v = distance(stacked())
    v_max_inc = -np.inf
    for k in range(STEPS):
        x, z, lam, _, _ = _step_arrays(engine, x, z, lam, k * dt, dt)
        w = stacked()
        sup = max(sup, float(np.max(np.abs(w))))
        v_new = distance(w)
        v_max_inc = max(v_max_inc, v_new - v)
        v = v_new
    return stacked(), sup, v_max_inc


@pytest.mark.parametrize("scenario, schedules, folded", _cases())
def test_integrate_matches_reference_steps(scenario, schedules, folded):
    assert FlowEngine(scenario, schedules=schedules)._affine is folded
    scenario = _with_random_start(scenario, 7).with_solver(
        tolerance=0.0, max_time=STEPS * 1e-3
    )
    lay = scenario.layout
    n_eta = lay.x_dim + lay.block_dim
    w_ref = np.random.default_rng(8).normal(size=n_eta + lay.block_dim)
    w_ref[n_eta:] = np.abs(w_ref[n_eta:])

    final, record = integrate(
        scenario, schedules=schedules, saddle=(w_ref[:n_eta], w_ref[n_eta:])
    )
    expected, sup, v_max_inc = _reference_run(scenario, schedules, w_ref)

    assert (record.steps, record.termination) == (STEPS, "max_time")
    got = np.concatenate([
        lay.stack_x(final.x), lay.stack_nodes(final.z), lay.stack_nodes(final.lam)
    ])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    assert record.state_sup_norm == pytest.approx(sup, rel=1e-12)
    assert record.v_max_step_increase == pytest.approx(v_max_inc, rel=1e-12)


AFFINE_ENGINES = [FlowEngine(random_scenario(s)) for s in AFFINE_SEEDS]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_folded_velocity_equals_rhs(data):
    engine = data.draw(st.sampled_from(AFFINE_ENGINES))
    n, q = engine.layout.x_dim, engine.dc.block_dim
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    x = data.draw(arrays(float, n, elements=entries))
    z = data.draw(arrays(float, q, elements=entries))
    lam = data.draw(arrays(float, q, elements=st.just(0.0) | st.floats(0.0, 10.0)))
    w = np.concatenate([x, z, lam])

    out = np.empty_like(w)
    engine.velocity(w, 0.0, out)
    expected = np.concatenate(engine.rhs(x, z, lam, 0.0))
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * scale)
