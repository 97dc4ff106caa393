"""The sparse affine velocity M w + b and the chunked propagator against the
reference `FlowEngine.rhs`.

`integrate` takes the sparse step for quadratic costs with affine humans
whose schedule (if any) has settled, and `FlowEngine.rhs` otherwise; on small
affine systems it takes CHUNK steps at a time while no multiplier clamps.
`_step_arrays` is the reference all of them are held to.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import build_decoupled, initial_state, integrate
from hatalloc.dynamics import CHUNK, FlowEngine, _step_arrays
from hatalloc.experiments import crosscheck_scenario, random_scenario
from hatalloc.human import ApproximationSchedule

from conftest import path_scenario

STEPS = 300
AFFINE_SEEDS = (0, 1, 2, 5, 11)
# 100 agents: a sparse graph whose operator is mostly structural zeros.
LARGE_TEAM = random_scenario(3, n_autonomous=80, n_human=20, rows=3)


def _with_random_start(scenario, seed, clamped=True):
    """The scenario started from a random state. With `clamped`, about half
    of the multipliers start at zero, so the clamp acts from the first step;
    otherwise every multiplier starts well above zero, so chunks run."""
    rng = np.random.default_rng(seed)
    lay = scenario.layout
    lam = rng.uniform(0.0, 1.0, size=lay.block_dim)
    if clamped:
        lam[rng.random(lay.block_dim) < 0.5] = 0.0
    else:
        lam += 5.0
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
        base_delta=np.array([0.3, 0.3]),
        settle_time=0.1,  # settles inside the run
    )}
    return replace(scenario, schedules=schedules)


def _cases():
    """(scenario, folded from the start, chunks once no multiplier clamps)
    with an id; each case runs from a clamped start and, under
    `<id>-positive`, from positive multipliers."""
    named = [(random_scenario(s), True, True, f"affine-{s}") for s in AFFINE_SEEDS]
    named += [
        # the cost rule keeps the sparse step for a few hundred entries
        (LARGE_TEAM, True, False, "affine-100-agents"),
        (path_scenario(attitude=-0.8, family="softplus_affine", beta=5.0),
         False, False, "softplus"),
        # folds, and so chunks, once the schedule has settled
        (_scheduled(), False, True, "scheduled"),
    ]
    return [
        pytest.param(scenario, folded, chunks, clamped,
                     id=name if clamped else f"{name}-positive")
        for clamped in (True, False)
        for scenario, folded, chunks, name in named
    ]


def _reference_run(scenario, w_ref, steps=STEPS):
    """`steps` reference steps with the bookkeeping `integrate` records."""
    engine = FlowEngine(scenario, build_decoupled(scenario))
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
    for k in range(steps):
        x, z, lam, _, _ = _step_arrays(engine, x, z, lam, k * dt, dt)
        w = stacked()
        sup = max(sup, float(np.max(np.abs(w))))
        v_new = distance(w)
        v_max_inc = max(v_max_inc, v_new - v)
        v = v_new
    return stacked(), sup, v_max_inc


def _stacked(scenario, state):
    lay = scenario.layout
    return np.concatenate([
        lay.stack_x(state.x), lay.stack_nodes(state.z), lay.stack_nodes(state.lam)
    ])


def _check_against_reference(scenario, steps):
    """`integrate` over `steps` steps from the scenario's start equals the
    reference steps: final state, sup-norm and largest saddle-distance
    increase. Returns the run's record."""
    scenario = scenario.with_solver(tolerance=0.0, max_time=steps * 1e-3)
    lay = scenario.layout
    n_eta = lay.x_dim + lay.block_dim
    w_ref = np.random.default_rng(8).normal(size=n_eta + lay.block_dim)
    w_ref[n_eta:] = np.abs(w_ref[n_eta:])

    final, record = integrate(scenario, saddle=(w_ref[:n_eta], w_ref[n_eta:]))
    expected, sup, v_max_inc = _reference_run(scenario, w_ref, steps)

    assert (record.steps, record.termination) == (steps, "max_time")
    assert record.chunked_steps + record.single_steps == steps
    np.testing.assert_allclose(_stacked(scenario, final), expected, rtol=0, atol=1e-12)
    assert record.state_sup_norm == pytest.approx(sup, rel=1e-12)
    assert record.v_max_step_increase == pytest.approx(v_max_inc, rel=1e-12)
    return record


@pytest.mark.parametrize("scenario, folded, chunks, clamped", _cases())
def test_integrate_matches_reference_steps(scenario, folded, chunks, clamped):
    assert (FlowEngine(scenario)._fold_time == 0.0) is folded
    record = _check_against_reference(_with_random_start(scenario, 7, clamped), STEPS)
    assert (record.chunked_steps > 0) is (chunks and not clamped)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.sampled_from(AFFINE_SEEDS),
    start=st.integers(0, 2**32 - 1),
    n_chunks=st.integers(0, 6),
    rest=st.integers(1, CHUNK - 1),
)
def test_random_starts_and_budgets_match_reference_steps(seed, start, n_chunks, rest):
    scenario = _with_random_start(random_scenario(seed), start, clamped=False)
    _check_against_reference(scenario, n_chunks * CHUNK + rest)


@pytest.mark.parametrize("seed, steps", [(2, 80482), (6, 166874)])
def test_roundoff_sensitive_stops_match_reference(seed, steps):
    """Crosscheck seeds whose stopping step depends on roundoff: near the
    tolerance the update norm falls by only ~5e-5 relative per step."""
    scenario = crosscheck_scenario(seed).with_solver(tolerance=1e-10, max_time=600.0)
    final, record = integrate(scenario)
    assert (record.steps, record.termination) == (steps, "converged")
    assert record.chunked_steps > 0.9 * steps

    engine = FlowEngine(scenario)
    x, z, lam = engine.stack_state(initial_state(scenario))
    dt, tol = scenario.solver.dt, scenario.solver.tolerance
    for k in range(record.steps):
        lam_old = lam
        x, z, lam, dx, dz = _step_arrays(engine, x, z, lam, k * dt, dt)
        dlam = (lam - lam_old) / dt
        norm = np.sqrt(dx @ dx + dz @ dz + dlam @ dlam)
        assert (norm <= tol) == (k + 1 == steps)
    np.testing.assert_allclose(
        _stacked(scenario, final), np.concatenate([x, z, lam]), rtol=0, atol=1e-12
    )


AFFINE_ENGINES = [FlowEngine(random_scenario(s)) for s in AFFINE_SEEDS] + [
    FlowEngine(LARGE_TEAM)
]


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
    assert engine._fold_time == 0.0  # the sparse operator, not the rhs fallback
    expected = np.concatenate(engine.rhs(x, z, lam, 0.0))
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * scale)
