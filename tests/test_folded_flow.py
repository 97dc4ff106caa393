"""The sparse affine velocity M w + b and the chunked propagator against the
reference `FlowEngine.rhs`.

`integrate` takes the sparse step for quadratic costs with affine humans
whose schedule (if any) has settled, and `FlowEngine.rhs` otherwise; on small
affine systems it takes up to CHUNKS_PER_PRODUCT chunks of CHUNK steps per
matrix product while the set of clamped multipliers stays fixed.
`_step_arrays` is the reference all of them are held to.
"""

import hashlib
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import (
    build_decoupled, dynamics, initial_state, integrate, lift_to_saddle, model, oracle,
    solve_centralized,
)
from hatalloc.dynamics import (
    CHUNK, CHUNKS_PER_PRODUCT, FlowEngine, SystemState, _chunk, _ChunkPlan, _propagator,
    _step_arrays, dense_operator, euler_spectrum,
)
from hatalloc.experiments import crosscheck_scenario, random_scenario, team_scenario
from hatalloc.human import ApproximationSchedule

from conftest import (
    assert_rows_ascend,
    path_scenario,
    record_calls,
    reference_fold,
    row_ordered,
    with_schedules,
)

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


def _started_at(scenario, w):
    """The scenario started from the stacked state w = [x, z, lambda]."""
    state = SystemState(scenario.layout, w)
    start = {
        key: {agent: block.tolist() for agent, block in blocks.items()}
        for key, blocks in (("x", state.x), ("z", state.z), ("lambda", state.lam))
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
    """(scenario, folded from the start, chunks where it folds) with an id;
    each case runs from a clamped start and, under `<id>-positive`, from
    positive multipliers."""
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


def _random_saddle(scenario):
    """A random saddle (eta, lambda) to track, its multipliers nonnegative."""
    lay = scenario.layout
    n_eta = lay.x_dim + lay.block_dim
    w_ref = np.random.default_rng(8).normal(size=n_eta + lay.block_dim)
    return w_ref[:n_eta], np.abs(w_ref[n_eta:])


def _check_against_reference(scenario, steps):
    """`integrate` over `steps` steps from the scenario's start equals the
    reference steps: final state, sup-norm and largest saddle-distance
    increase. Returns the run's record."""
    scenario = scenario.with_solver(tolerance=0.0, max_time=steps * 1e-3)
    saddle = _random_saddle(scenario)
    w_ref = np.concatenate(saddle)

    final, record = integrate(scenario, saddle=saddle)
    expected, sup, v_max_inc = _reference_run(scenario, w_ref, steps)

    assert (record.steps, record.termination) == (steps, "max_time")
    assert record.chunked_steps + record.single_steps == steps
    np.testing.assert_allclose(final.w, expected, rtol=0, atol=1e-12)
    assert record.state_sup_norm == pytest.approx(sup, rel=1e-12)
    assert record.v_max_step_increase == pytest.approx(v_max_inc, rel=1e-12)
    return record


@pytest.mark.parametrize("scenario, folded, chunks, clamped", _cases())
def test_integrate_matches_reference_steps(scenario, folded, chunks, clamped):
    assert (FlowEngine(scenario)._fold_time == 0.0) is folded
    record = _check_against_reference(_with_random_start(scenario, 7, clamped), STEPS)
    # Chunks run under a clamp set that holds, and a clamped start holds one
    # long enough for its propagator to be built.
    assert (record.chunked_steps > 0) is chunks
    assert (record.propagator_builds > 1) is (chunks and clamped)


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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.sampled_from(AFFINE_SEEDS),
    start=st.integers(0, 2**32 - 1),
    n_chunks=st.integers(2, 6),
    rest=st.integers(1, CHUNK - 1),
)
def test_clamped_starts_match_reference_steps(seed, start, n_chunks, rest):
    scenario = _with_random_start(random_scenario(seed), start, clamped=True)
    record = _check_against_reference(scenario, n_chunks * CHUNK + rest)
    # Only runs that built a clamped propagator count as examples.
    assume(record.propagator_builds > 1)


def _oracle_tracking(scenario):
    """The oracle's solution and its lifted saddle, tracked as `hatalloc run`
    tracks them."""
    dc = build_decoupled(scenario)
    x, y, mu, _ = solve_centralized(scenario)
    _, lam, eta = lift_to_saddle(scenario, dc, x, mu)
    return {"dc": dc, "reference": (x, y), "saddle": (eta, lam)}


# sha256 of a run's final w, its samples and every other record field.
RUN_SHA256 = {
    # chunks and 1,840 single steps, across clamp changes
    "random-0": "865c53eb3185adf88695494bffb9fea0aeb60ab150e501df9a3cb249b3aca699",
    # single steps of the rhs only
    "softplus": "cca70c4c67345dd19445b1e77c386f16b8144a28fed6d7a2ccb330e290dbca22",
    # the rhs, then chunks once the schedule has settled
    "scheduled": "40d220ce572ae11a8362c939adcf18eab6697384f11b364e684e7f44db784aba",
}
RUNS = {
    "random-0": lambda: random_scenario(0).with_solver(max_time=30.0),
    "softplus": lambda: _with_random_start(
        path_scenario(attitude=-0.8, family="softplus_affine", beta=5.0), 7
    ).with_solver(max_time=2.0, record_stride=7),
    "scheduled": lambda: _scheduled().with_solver(max_time=5.0, record_stride=33),
}


@pytest.mark.parametrize("name", sorted(RUN_SHA256))
def test_tracked_runs_are_pinned_bit_for_bit(name):
    """The loop's bookkeeping is pinned to the bit: the saddle distances a
    single step takes with `@`, a chunk's with one einsum, the samples and
    the counts. The oracle's saddle is tracked where the oracle applies, a
    random one for softplus humans."""
    scenario = RUNS[name]()
    tracking = ({"saddle": _random_saddle(scenario)} if name == "softplus"
                else _oracle_tracking(scenario))
    final, record = integrate(scenario, **tracking)
    digest = hashlib.sha256(final.w.tobytes())
    digest.update(repr(record.samples.dtype.names).encode())
    digest.update(record.samples.tobytes())
    digest.update(repr([(f.name, getattr(record, f.name))
                        for f in fields(record) if f.name != "samples"]).encode())
    assert digest.hexdigest() == RUN_SHA256[name]


@settings(max_examples=60, deadline=None)
@given(
    stride=st.integers(1, 200),
    n_chunks=st.integers(0, 6),
    rest=st.integers(0, CHUNK - 1),
    clamped=st.booleans(),
    stop_at=st.none() | st.floats(0.0, 1.0),
)
# a stride that does not divide a budget ending in a chunk
@example(stride=37, n_chunks=3, rest=0, clamped=False, stop_at=None)
def test_samples_are_step_0_the_stride_steps_and_the_stop(stride, n_chunks, rest, clamped,
                                                          stop_at):
    """The sampled steps are 0, every multiple of the stride up to the stop,
    and the stop step, each once: at the budget with tolerance 0, and mid-run
    with the update norm a run ended with at a drawn step of the budget as
    the tolerance, whether chunks or single steps end the run."""
    scenario = _with_random_start(random_scenario(0), 7, clamped)
    dt = scenario.solver.dt
    n_steps = max(1, n_chunks * CHUNK + rest)
    tolerance = 0.0
    if stop_at is not None:
        at = max(1, round(stop_at * n_steps))
        _, probe = integrate(scenario.with_solver(tolerance=0.0, max_time=at * dt))
        tolerance = probe.final_update_norm
    _, record = integrate(scenario.with_solver(
        tolerance=tolerance, max_time=n_steps * dt, record_stride=stride))
    stop = record.steps
    if stop_at is None:
        assert (stop, record.termination) == (n_steps, "max_time")
    assert stop <= n_steps
    sampled = np.rint(record.samples.t / dt).astype(int).tolist()
    assert sampled == sorted({*range(0, stop + 1, stride), stop})


def _attempts(engine, plan):
    """`choose` of the engine's plan at a state whose listed multipliers are
    clamped."""
    size = plan.M.shape[0]
    lam_at = size - engine.dc.block_dim

    def attempt(clamped):
        w = np.ones(size)
        w[lam_at + np.asarray(clamped, dtype=int)] = 0.0
        return plan.choose(lam_at, w, -np.ones(size))

    return attempt


def test_clamp_set_seen_once_builds_no_propagator():
    engine = FlowEngine(random_scenario(2))
    plan = _ChunkPlan(engine, 1e-3, CHUNK)
    attempt = _attempts(engine, plan)

    assert attempt([])[0] is plan.free
    # Each clamp set is seen once: every attempt is skipped, nothing built.
    assert attempt([0]) is None and attempt([1]) is None and attempt([0]) is None
    assert plan.builds == 1 and plan.clamped is None
    # Seen twice in a row, the set gets its propagator ...
    first = attempt([0])[0]
    assert plan.builds == 2
    assert attempt([0])[0] is first and plan.builds == 2
    # ... and the next one that holds is built into the same buffer.
    assert attempt([2]) is None
    assert np.shares_memory(attempt([2])[0], first) and plan.builds == 3


def test_propagators_hold_one_chunk_of_powers():
    """On the benchmark's team a propagator is the CHUNK + 1 powers, not one
    per chunk of a product, and a clamped build reuses its buffer."""
    engine = FlowEngine(team_scenario(1))
    plan = _ChunkPlan(engine, 1e-3, CHUNKS_PER_PRODUCT * CHUNK)
    size = plan.M.shape[0]
    assert plan.free.nbytes == (CHUNK + 1) * size * size * 8
    attempt = _attempts(engine, plan)
    assert attempt([0]) is None
    first = attempt([0])[0]
    assert first.nbytes == plan.free.nbytes
    assert attempt([1]) is None
    assert np.shares_memory(attempt([1])[0], first) and plan.builds == 3


@pytest.mark.parametrize("make", [lambda: team_scenario(1), lambda: random_scenario(2)],
                         ids=["team-1", "random-2"])
@pytest.mark.parametrize("picks", [(0,), (0, 1, -1)], ids=["one", "three"])
def test_clamped_propagator_is_the_powers_of_its_step(make, picks):
    """A clamped propagator is bit for bit the powers of A_S = I + dt M with
    the rows of S zeroed and 1 on their diagonal."""
    engine = FlowEngine(make())
    rows, cols, vals, b = engine.folded()
    M, dt = dense_operator(rows, cols, vals, b.size), 1e-3
    lam = np.arange(b.size - engine.dc.block_dim, b.size)
    S = lam[list(picks)]
    step = np.eye(b.size) + dt * M
    step[S] = 0.0
    step[S, S] = 1.0
    powers = [np.eye(b.size)]
    for _ in range(CHUNK):
        powers.append(step @ powers[-1])
    assert _propagator(M, dt, S).tobytes() == np.stack(powers).tobytes()


def test_euler_spectrum_of_a_damped_rotation():
    """M = [[-a, -w], [w, 0]] has mu = -a/2 +- i sqrt(w^2 - a^2/4), so at
    a = 0.5, w = 2 and dt = 0.1, |1 + dt mu|^2 = 0.975^2 + 0.01 * 3.9375."""
    M = np.array([[-0.5, -2.0], [2.0, 0.0]])
    assert euler_spectrum(M, 0.1) == pytest.approx((-0.25, math.sqrt(0.99)), rel=1e-12)


@pytest.mark.parametrize("make, rate", [
    (lambda: random_scenario(1), 4.49998e-6),
    (lambda: team_scenario(1), -8.3336e-5),
    (lambda: crosscheck_scenario(1), -1.5302e-4),
], ids=["random-1", "team-1", "crosscheck-1"])
def test_all_active_euler_rate(make, rate):
    """rho = log radius of the all-active M at the scenario's dt: Euler
    amplifies `random_scenario(1)`'s slowest mode and damps the others."""
    scenario = make()
    rows, cols, vals, b = FlowEngine(scenario).folded()
    _, radius = euler_spectrum(dense_operator(rows, cols, vals, b.size), scenario.solver.dt)
    assert math.log(radius) == pytest.approx(rate, rel=1e-2)


def test_clamp_set_whose_powers_overflow_is_skipped():
    """Powers that overflow give no propagator, and building them raises no
    numpy warning (the suite turns warnings into errors)."""
    engine = FlowEngine(random_scenario(2))
    plan = _ChunkPlan(engine, 1e-3, CHUNK)
    attempt = _attempts(engine, plan)
    plan.M = plan.M * 1e200
    assert attempt([0]) is None and attempt([0]) is None and plan.builds == 2
    # The set stays held: its later attempts are skipped without a build.
    assert attempt([0]) is None and plan.builds == 2
    assert attempt([])[0] is plan.free


@pytest.mark.parametrize("seed", AFFINE_SEEDS)
def test_one_product_equals_one_product_per_chunk(seed):
    """A product of CHUNKS_PER_PRODUCT chunks equals one-chunk products, each
    from `velocity` at its chunk's start."""
    scenario = _with_random_start(random_scenario(seed), 7, clamped=False)
    engine, dt = FlowEngine(scenario), scenario.solver.dt
    plan = _ChunkPlan(engine, dt, CHUNKS_PER_PRODUCT * CHUNK)
    w = initial_state(scenario).w
    lam_at = w.size - engine.dc.block_dim
    vel = np.empty_like(w)
    engine.velocity(w, 0.0, vel)
    W, norm, sup = _chunk(plan.free, w, vel, dt, lam_at, 0.0, CHUNKS_PER_PRODUCT)
    assert W.shape == (CHUNKS_PER_PRODUCT * CHUNK, w.size)
    sups = []
    for rows in np.split(W, CHUNKS_PER_PRODUCT):
        engine.velocity(w, 0.0, vel)
        one, one_norm, one_sup = _chunk(plan.free, w, vel, dt, lam_at, 0.0, 1)
        np.testing.assert_allclose(rows, one, rtol=0, atol=1e-12)
        w = one[-1]
        sups.append(one_sup)
    assert norm == pytest.approx(one_norm, rel=1e-12)
    assert sup == pytest.approx(max(sups), rel=1e-12)


def _before_a_crossing(scenario, steps):
    """The reference state `steps` steps before the first step at which a
    multiplier reaches zero, from a random start with every multiplier
    positive; every multiplier is positive at it."""
    lay = scenario.layout
    rng = np.random.default_rng(0)
    x, z = rng.normal(size=lay.x_dim), rng.normal(size=lay.block_dim)
    lam = rng.uniform(0.1, 1.0, size=lay.block_dim)
    engine, dt = FlowEngine(scenario), scenario.solver.dt
    states = [np.concatenate([x, z, lam])]
    while lam.min() > 0.0:
        x, z, lam, _, _ = _step_arrays(engine, x, z, lam, 0.0, dt)
        states.append(np.concatenate([x, z, lam]))
    assert len(states) > steps + 1
    return states[-1 - steps]


def test_product_takes_the_chunks_before_a_crossing():
    """A free multiplier that reaches zero in the third chunk of a product:
    the product returns the first two chunks, and `integrate` steps the
    third singly, as one rejected chunk."""
    scenario = random_scenario(2)
    w = _before_a_crossing(scenario, 2 * CHUNK + 22)
    scenario = _started_at(scenario, w)
    engine, dt = FlowEngine(scenario), scenario.solver.dt
    plan = _ChunkPlan(engine, dt, CHUNKS_PER_PRODUCT * CHUNK)
    vel = np.empty_like(w)
    engine.velocity(w, 0.0, vel)
    rows = _chunk(plan.free, w, vel, dt, w.size - engine.dc.block_dim, 0.0, CHUNKS_PER_PRODUCT)
    assert len(rows[0]) == 2 * CHUNK
    # Three chunks fit in the run, and no attempt follows the third.
    record = _check_against_reference(scenario, 3 * CHUNK + 10)
    assert (record.chunked_steps, record.rejected_chunks) == (2 * CHUNK, 1)


def _singly(scenario):
    """`integrate` with every step taken singly: at a step overhead of -inf
    entries a sparse step is always the cheaper one, so no propagator is
    built."""
    with mock.patch.object(dynamics, "STEP_OVERHEAD_ENTRIES", -math.inf):
        return integrate(scenario)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.sampled_from(AFFINE_SEEDS),
    start=st.integers(0, 2**32 - 1),
    clamped=st.booleans(),
    offset=st.sampled_from([CHUNK, CHUNK - 1]) | st.integers(1, CHUNK),
    scale=st.sampled_from([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]),
)
def test_stop_inside_a_chunk_is_decided_by_single_steps(seed, start, clamped, offset, scale):
    """The tolerance is set at a single-step update norm inside the first
    chunk the run computes: at the start, or one CHUNK later when the start
    has a clamp set, whose first attempt is skipped. That chunk's update
    norm there equals the tolerance to roundoff, so the guard band steps it
    singly, and the run stops where single steps stop, in the same state.
    Without the band (CHUNK_GUARD = 0) a chunk that ends at the stop is
    taken whenever roundoff puts its norm above the tolerance."""
    scenario = _with_random_start(random_scenario(seed), start, clamped)
    dt = scenario.solver.dt
    engine = FlowEngine(scenario)
    w = initial_state(scenario).w
    vel = np.empty_like(w)
    engine.velocity(w, 0.0, vel)
    n_steps = 2 * CHUNK + 40
    plan = _ChunkPlan(engine, dt, n_steps)
    skipped = plan.choose(w.size - engine.dc.block_dim, w, vel) is None
    at = offset + (CHUNK if skipped else 0)
    _, probe = _singly(scenario.with_solver(tolerance=0.0, max_time=at * dt))
    scenario = scenario.with_solver(tolerance=probe.final_update_norm * scale,
                                    max_time=n_steps * dt)
    expected, single = _singly(scenario)
    final, record = integrate(scenario)
    assert (record.steps, record.termination) == (single.steps, single.termination)
    np.testing.assert_array_equal(final.w, expected.w)


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
        final.w, np.concatenate([x, z, lam]), rtol=0, atol=1e-12
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


def test_integrate_stacks_once_and_folds_its_own_stack(monkeypatch):
    """`integrate` assembles one stack, its engine's, and folds the reduction
    of that stack; it reduces no scenario, since the engine has already
    decided the flow folds. The run is on a fresh copy of the cached
    scenario, whose stack a `with_solver` copy would share once built."""
    scenario = replace(crosscheck_scenario(2)).with_solver(max_time=1.0)
    log = []
    record_calls(monkeypatch, log, model.stack_problem, oracle.reduce_program,
                 oracle.reduce_stacked)
    _, record = integrate(scenario)
    assert [name for name, _, _ in log] == ["stack_problem", "reduce_stacked"]
    assert log[1][1][0] is log[0][2]
    assert record.chunked_steps > 0


FOLD_CASES = {
    "team": lambda: [team_scenario(seed) for seed in range(1, 10)],
    "crosscheck": lambda: [crosscheck_scenario(seed) for seed in range(1, 31)],
    "random": lambda: [random_scenario(seed) for seed in range(40)],
    "large_team": lambda: [random_scenario(1, n_autonomous=200, n_human=50, rows=3)],
    "scheduled": lambda: [with_schedules(team_scenario(1), np.random.default_rng(3))],
}


@pytest.mark.parametrize("make", [lambda: team_scenario(1), lambda: LARGE_TEAM],
                         ids=["team", "large_team"])
def test_velocity_is_the_row_ordered_sum_bit_for_bit(make):
    """The sparse velocity at random states is `bincount` over the reference
    fold's row-ordered triplets plus b, bit for bit: the column order
    changes which bins consecutive adds land on, not any sum."""
    scenario = make()
    dc = build_decoupled(scenario)
    engine = FlowEngine(scenario, dc)
    rows, cols, vals, b = reference_fold(oracle.reduction(scenario), dc)
    rng = np.random.default_rng(5)
    out = np.empty(b.size)
    for _ in range(5):
        w = rng.normal(size=b.size) * rng.choice([1e-6, 1.0, 1e6], size=b.size)
        engine.velocity(w, 0.0, out)
        expected = np.bincount(rows, vals * w[cols], minlength=b.size) + b
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", FOLD_CASES)
def test_fold_equals_the_reference_fold(kind):
    """The engine's M and b, folded from flat scans of H and C sorted by
    their flat indices into M^T, are, sorted stably by row, the reference
    fold's (2-D scans and a `lexsort` by row and column) byte for byte, on
    the reduction of the scenario's own stack; within each row the engine
    lists its entries in ascending column order. A scheduled scenario folds
    its settled stack, and steps it from its settle time."""
    for scenario in FOLD_CASES[kind]():
        dc = build_decoupled(scenario)
        engine = FlowEngine(scenario, dc)
        expected = reference_fold(oracle.reduce_stacked(scenario.stacked,
                                                        scenario.constraint.c), dc)
        assert_rows_ascend(engine.folded())
        for got, want in zip(row_ordered(engine.folded()), expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if scenario.schedules:
            assert engine._fold_time > 0.0
            w = np.random.default_rng(0).normal(size=expected[3].size)
            out = np.empty_like(w)
            engine.velocity(w, engine._fold_time, out)
            rows, cols, vals, b = expected
            assert out.tobytes() == (np.bincount(rows, vals * w[cols], minlength=b.size)
                                     + b).tobytes()
