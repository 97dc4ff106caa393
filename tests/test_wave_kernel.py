"""`DistributedRunner`'s stacked wave kernel against the per-agent rounds.

`conftest.ReferenceRunner` steps every agent's view with `agent_round`; the
kernel must reproduce its states, views and mailbox bit for bit.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatalloc import build_decoupled, initial_state
from hatalloc.agents import DistributedRunner
from hatalloc.experiments import random_scenario, team_scenario
from hatalloc.model import CouplingConstraint, QuadraticCost

from conftest import (
    ReferenceRunner,
    human_only_edge_scenario,
    single_agent_scenario,
    with_callback_costs,
    with_schedules,
)

DT = 1e-3
FAMILY_SETS = [("affine",), ("softplus_affine",), ("affine", "softplus_affine")]


def with_fortran_blocks(scenario):
    """The scenario rebuilt from Fortran-ordered copies of every matrix: the
    value objects store them C-ordered, so that the per-agent products and
    the batched ones run the same BLAS calls."""
    F, con = np.asfortranarray, scenario.constraint
    return replace(
        scenario,
        costs={a: QuadraticCost(F(cost.weight)) for a, cost in scenario.costs.items()},
        constraint=CouplingConstraint({i: F(m) for i, m in con.a_blocks.items()},
                                      {k: F(m) for k, m in con.b_blocks.items()}, con.c),
        human_models={k: replace(m, gains={j: F(g) for j, g in m.gains.items()})
                      for k, m in scenario.human_models.items()},
    )


SCENARIOS = {
    "random": lambda seed, families, rng: random_scenario(seed, families=families),
    "scheduled": lambda seed, families, rng: with_schedules(
        random_scenario(seed, families=families), rng),
    "callback": lambda seed, families, rng: with_callback_costs(
        random_scenario(seed, families=families), quartic=1.0),
    "fortran_blocks": lambda seed, families, rng: with_fortran_blocks(
        random_scenario(seed, families=families)),
    "human_only_edges": lambda seed, families, rng: human_only_edge_scenario(),
    "single_agent": lambda seed, families, rng: single_agent_scenario(),
}


def random_state(scenario, rng):
    """Normal x and z; uniform multipliers with about a third at the clamp."""
    state = initial_state(scenario)
    for i in scenario.layout.autonomous_ids:
        state.x[i] = rng.normal(size=scenario.dims[i])
    for a in scenario.layout.node_order:
        state.z[a] = rng.normal(size=scenario.constraint.rows)
        lam = rng.uniform(0, 1, size=scenario.constraint.rows)
        lam[rng.random(lam.size) < 1 / 3] = 0.0
        state.lam[a] = lam
    return state


def same_bytes(got, want):
    if want is None:
        return got is None
    return got is not None and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_bitwise_equal(runner, reference):
    """State, views and every mailbox message of the two runners agree bit
    for bit, with the mailbox's edges in the same order."""
    got, want = runner.state(), reference.state()
    assert got.t == want.t
    for part in ("x", "z", "lam"):
        blocks, expected = getattr(got, part), getattr(want, part)
        assert list(blocks) == list(expected)
        assert all(same_bytes(blocks[a], expected[a]) for a in expected), part
    mail, expected = runner.mailbox, reference.mailbox
    assert list(mail) == list(expected)
    for edge, msg in expected.items():
        assert (mail[edge].sender, mail[edge].receiver) == edge
        for field in ("z", "lam", "x", "coupling"):
            assert same_bytes(getattr(mail[edge], field), getattr(msg, field)), (edge, field)
    assert list(runner.views) == list(reference.views)
    for a, view in reference.views.items():
        mine = runner.views[a]
        assert type(mine) is type(view) and mine.t == view.t
        for field in ("x", "z", "lam", "c_block"):
            assert same_bytes(getattr(mine, field, None), getattr(view, field, None))
        assert list(getattr(mine, "snapshot", {})) == list(getattr(view, "snapshot", {}))
        assert [msg.sender for msg in runner._inbox(a)] == list(reference._by_receiver[a])


def run_both(scenario, state, sweeps, rng=None):
    dc = build_decoupled(scenario)
    runner = DistributedRunner(scenario, dc, state=state)
    reference = ReferenceRunner(scenario, dc, state=state)
    assert_bitwise_equal(runner, reference)
    order = list(scenario.layout.node_order)
    for _ in range(sweeps):
        if rng is not None:
            rng.shuffle(order)
        runner.sweep(DT)
        reference.sweep(DT, order=None if rng is None else order)
    assert_bitwise_equal(runner, reference)
    return runner


class TestMatchesReferenceRounds:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(SCENARIOS)),
        seed=st.integers(0, 10_000),
        families=st.sampled_from(FAMILY_SETS),
        state_seed=st.integers(0, 2**32 - 1),
        sweeps=st.integers(0, 50),
        shuffle=st.booleans(),
    )
    def test_random_instances(self, kind, seed, families, state_seed, sweeps, shuffle):
        rng = np.random.default_rng(state_seed)
        scenario = SCENARIOS[kind](seed, families, rng)
        state = random_state(scenario, rng)
        run_both(scenario, state, sweeps, rng if shuffle else None)

    @pytest.mark.parametrize("kind", sorted(SCENARIOS))
    def test_each_kind_from_the_initial_state(self, kind):
        rng = np.random.default_rng(11)
        scenario = SCENARIOS[kind](11, FAMILY_SETS[2], rng)
        run_both(scenario, initial_state(scenario), 50)

    def test_schedule_crossing_its_settle_time(self):
        rng = np.random.default_rng(5)
        scenario = with_schedules(random_scenario(8, n_human=3, families=FAMILY_SETS[2]), rng)
        settle = [s.settle_time for s in scenario.schedules.values()]
        assert 0 < min(settle) and max(settle) < 50 * DT
        run_both(scenario, random_state(scenario, rng), 50)

    def test_large_instance(self):
        scenario = random_scenario(1, n_autonomous=200, n_human=50, rows=3)
        run_both(scenario, initial_state(scenario), 40)


def _refuse(*args, **kwargs):
    raise AssertionError("the wave kernel must not call this")


class TestKernelGuards:
    def test_no_stacked_problem_or_flow_engine(self, monkeypatch):
        """The kernel keeps its own per-block build. Each stacked builder is
        refused under every name a module of the package could call it by,
        including a name `agents` would bind with `from ... import`;
        `test_dependencies` also keeps the names out of `agents`' source."""
        scenario = random_scenario(3, families=FAMILY_SETS[2])
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "hatalloc"]
        for module in modules:
            for name in ("FlowEngine", "reduce_program", "stack_problem"):
                monkeypatch.setattr(module, name, _refuse, raising=False)
        runner = DistributedRunner(scenario)
        for _ in range(40):
            runner.sweep(DT)
        assert runner.state().t == pytest.approx(40 * DT)

    def test_quadratic_sweep_makes_no_per_agent_call(self, monkeypatch):
        scenario = team_scenario(1)
        dc = build_decoupled(scenario)
        reference = ReferenceRunner(scenario, dc)
        reference.sweep(DT)
        monkeypatch.setattr("hatalloc.agents.agent_round", _refuse)
        monkeypatch.setattr(QuadraticCost, "gradient", _refuse)
        runner = DistributedRunner(scenario, dc)
        runner.sweep(DT)
        monkeypatch.undo()
        assert_bitwise_equal(runner, reference)
