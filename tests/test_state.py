"""A `SystemState` is one stacked w = [x, z, lambda]: its per-agent blocks
are views into w, and a state owns its w."""

import dataclasses

import numpy as np
import pytest

from hatalloc import (
    DistributedRunner,
    SystemState,
    build_decoupled,
    initial_state,
    integrate,
    kkt_residual,
    saddle_distance,
)
from hatalloc.dynamics import FlowEngine, gradient_check
from hatalloc.errors import DimensionMismatchError

from conftest import path_scenario


def random_state(scenario, seed=0):
    rng = np.random.default_rng(seed)
    state = initial_state(scenario)
    state.w[:] = rng.uniform(0.1, 1.0, size=state.w.size)
    return state


@pytest.fixture
def scenario():
    return path_scenario().with_solver(max_time=0.5)


def test_integrate_returns_a_fresh_w_each_call(scenario):
    first, _ = integrate(scenario)
    before = first.w.tobytes()
    second, _ = integrate(scenario)
    assert first.w.tobytes() == before == second.w.tobytes()
    assert not np.shares_memory(first.w, second.w)
    start = initial_state(scenario)
    assert not np.shares_memory(first.w, start.w)
    assert not np.shares_memory(start.w, initial_state(scenario).w)


def _saddle_distance(scenario, dc, state):
    lam = scenario.layout.parts(state.w)[2]
    return saddle_distance(scenario, state, (np.ones(state.w.size - lam.size), np.ones(lam.size)))


@pytest.mark.parametrize("read", [kkt_residual, gradient_check, _saddle_distance])
def test_readers_leave_the_callers_w_unchanged(scenario, read):
    state = random_state(scenario)
    before = state.w.tobytes()
    read(scenario, build_decoupled(scenario), state)
    assert state.w.tobytes() == before


def test_runner_copies_the_state_it_starts_from(scenario):
    state = random_state(scenario)
    before = state.w.tobytes()
    runner = DistributedRunner(scenario, state=state)
    assert state.w.flags.writeable and not np.shares_memory(runner.state().w, state.w)
    for _ in range(5):
        runner.sweep(scenario.solver.dt)
    assert state.w.tobytes() == before
    first, second = runner.state(), runner.state()
    assert first.w.tobytes() == second.w.tobytes() != before
    assert not np.shares_memory(first.w, state.w)
    assert not np.shares_memory(first.w, second.w)
    first.x["a1"] = [9.0, 9.0]  # the runner's own w is not the returned one
    assert runner.state().w.tobytes() == second.w.tobytes()


def test_stack_state_returns_views_of_w(scenario):
    state = random_state(scenario)
    parts = FlowEngine(scenario).stack_state(state)
    assert all(np.shares_memory(part, state.w) for part in parts)
    np.testing.assert_array_equal(np.concatenate(parts), state.w)


def test_blocks_are_views_and_assignment_writes_into_w(scenario):
    state = initial_state(scenario)
    lay = scenario.layout
    state.x["a2"] = [1.0, 2.0]
    state.z["k1"] = [3.0, 4.0]
    state.lam["a1"] = [5.0, 6.0]
    z, lam = state.w[lay.x_dim:lay.x_dim + lay.block_dim], state.w[lay.x_dim + lay.block_dim:]
    np.testing.assert_array_equal(state.w[lay.x_slice("a2")], [1.0, 2.0])
    np.testing.assert_array_equal(z[lay.node_slice("k1")], [3.0, 4.0])
    np.testing.assert_array_equal(lam[lay.node_slice("a1")], [5.0, 6.0])
    assert np.shares_memory(state.x["a2"], state.w)
    state.w[lay.x_slice("a2")] = 0.0
    np.testing.assert_array_equal(state.x["a2"], [0.0, 0.0])
    assert list(state.x) == list(lay.autonomous_ids)
    assert list(state.z) == list(state.lam) == list(lay.node_order)


def test_blocks_cannot_change_shape_be_deleted_or_rebound(scenario):
    state = initial_state(scenario)
    with pytest.raises(DimensionMismatchError):
        state.x["a1"] = [1.0, 2.0, 3.0]
    with pytest.raises(DimensionMismatchError):
        state.lam["a1"] = [[1.0, 2.0]]
    with pytest.raises(TypeError):
        del state.x["a1"]
    with pytest.raises(KeyError):
        state.x["k1"] = [1.0, 2.0]  # a human has no x block
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.x = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.w = np.zeros_like(state.w)
    assert not state.w.any()
    with pytest.raises(DimensionMismatchError):
        SystemState(scenario.layout, np.zeros(state.w.size + 1))
    with pytest.raises(DimensionMismatchError):
        SystemState(scenario.layout, np.zeros(state.w.size, dtype=int))
