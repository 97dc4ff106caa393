from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatalloc import build_decoupled, initial_state
from hatalloc.agents import DistributedRunner, Message, agent_round
from hatalloc.dynamics import (
    CHUNKS_PER_PRODUCT, FlowEngine, SystemState, _chunk, _propagator, _step_arrays,
    dense_operator,
)
from hatalloc.errors import MessageProtocolError
from hatalloc.experiments import random_scenario
from hatalloc.human import ApproximationSchedule

from conftest import ReferenceRunner, path_scenario, single_agent_scenario, with_schedules

DT = 1e-3


def random_system_state(scenario, rng):
    state = initial_state(scenario)
    for i in scenario.topology.autonomous_ids:
        state.x[i] = rng.normal(size=scenario.dims[i])
    for a in scenario.topology.node_order:
        state.z[a] = rng.normal(size=scenario.constraint.rows)
        state.lam[a] = rng.uniform(0, 1, size=scenario.constraint.rows)
    return state


def max_state_diff(scenario, a, b):
    worst = 0.0
    for i in scenario.topology.autonomous_ids:
        worst = max(worst, float(np.max(np.abs(a.x[i] - b.x[i]))))
    for node in scenario.topology.node_order:
        worst = max(worst, float(np.max(np.abs(a.z[node] - b.z[node]))))
        worst = max(worst, float(np.max(np.abs(a.lam[node] - b.lam[node]))))
    return worst


FAMILY_SETS = [("affine",), ("softplus_affine",), ("affine", "softplus_affine")]


STARTS = ("uniform", "clamped", "lifted")


def check_one_sweep(seed, families, state_seed, start):
    """One sweep = one `_step_arrays` step = one `velocity` step = the first
    row of a propagated chunk. Returns whether the chunk was taken.

    `start` sets the multipliers: uniform in [0, 1] (`uniform`), the same
    with about half of them at the clamp (`clamped`), or uniform in [5, 6]
    (`lifted`), so that no step of a chunk clamps."""
    scenario = random_scenario(seed, families=families)
    dc = build_decoupled(scenario)
    rng = np.random.default_rng(state_seed)
    state = random_system_state(scenario, rng)
    for block in state.lam.values():
        if start == "clamped":
            block[rng.random(block.size) < 0.5] = 0.0
        elif start == "lifted":
            block += 5.0
    runner = DistributedRunner(scenario, dc, state=state)
    runner.sweep(DT)
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state)
    stepped = np.concatenate(_step_arrays(engine, x, z, lam, 0.0, DT)[:3])
    swept = np.concatenate(engine.stack_state(runner.state()))
    assert np.max(np.abs(swept - stepped)) <= 1e-12
    if engine._fold_time == 0.0:
        # the folded operator, stepped and clamped as `integrate` does
        w = np.concatenate([x, z, lam])
        vel = np.empty_like(w)
        engine.velocity(w, 0.0, vel)
        folded = w + DT * vel
        np.maximum(folded[x.size + z.size:], 0.0, out=folded[x.size + z.size:])
        assert np.max(np.abs(folded - stepped)) <= 1e-12
        # the chunks, taken only while no multiplier clamps
        *entries, b = engine.folded()
        powers = _propagator(dense_operator(*entries, b.size), DT)
        rows = _chunk(powers, w, vel, DT, x.size + z.size, 0.0, CHUNKS_PER_PRODUCT)
        if rows is not None:
            assert np.max(np.abs(rows[0][0] - stepped)) <= 1e-12
            return True
    return False


class TestSweepEquivalence:
    @pytest.mark.parametrize("seed", [3, 8, 15])
    def test_one_sweep_matches_compact_step(self, seed):
        check_one_sweep(seed, FAMILY_SETS[2], seed, "uniform")
        assert check_one_sweep(seed, FAMILY_SETS[0], seed, "lifted")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        families=st.sampled_from(FAMILY_SETS),
        state_seed=st.integers(0, 2**32 - 1),
        start=st.sampled_from(STARTS),
    )
    def test_random_sweep_matches_compact_step(self, seed, families, state_seed, start):
        check_one_sweep(seed, families, state_seed, start)

    def test_thousand_sweeps_match_compact_trajectory(self):
        scenario = random_scenario(3, families=("affine", "softplus_affine"))
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(0)
        state = random_system_state(scenario, rng)

        runner = DistributedRunner(scenario, dc, state=state)
        engine = FlowEngine(scenario, dc)
        x, z, lam = engine.stack_state(state)
        t = 0.0
        for _ in range(1000):
            runner.sweep(DT)
            x, z, lam, _, _ = _step_arrays(engine, x, z, lam, t, DT)
            t += DT
        compact = SystemState(scenario.layout, np.concatenate([x, z, lam]), t)
        assert max_state_diff(scenario, runner.state(), compact) <= 1e-10

    def test_scheduled_models_still_match(self):
        """Two cases, checked at every sweep: one human whose schedule
        settles inside the run, and three humans of both families whose
        schedules settle at three different times, so that between the first
        and the last of them some rows are exact while others still blend."""
        path = path_scenario(attitude=-0.7)
        path = replace(path, schedules={"k1": ApproximationSchedule(
            gain_deltas={j: 0.5 * g for j, g in path.human_models["k1"].gains.items()},
            base_delta=np.array([0.3, 0.3]),
            settle_time=0.4,
        )})
        team = with_schedules(random_scenario(6, n_human=3, families=FAMILY_SETS[2]),
                              np.random.default_rng(5))
        settle = sorted(s.settle_time for s in team.schedules.values())
        assert {m.family for m in team.human_models.values()} == set(FAMILY_SETS[2])
        assert len(team.schedules) == 3 and settle[0] + DT < settle[1] < settle[2] - DT
        for scenario, sweeps in ((path, 600), (team, 60)):  # each crosses every settle time
            dc = build_decoupled(scenario)
            rng = np.random.default_rng(4)
            state = random_system_state(scenario, rng)
            runner = DistributedRunner(scenario, dc, state=state)
            engine = FlowEngine(scenario, dc)
            x, z, lam = engine.stack_state(state)
            t = 0.0
            for _ in range(sweeps):
                runner.sweep(DT)
                x, z, lam, _, _ = _step_arrays(engine, x, z, lam, t, DT)
                t += DT
                compact = SystemState(scenario.layout, np.concatenate([x, z, lam]), t)
                assert max_state_diff(scenario, runner.state(), compact) <= 1e-11
            assert t > max(s.settle_time for s in scenario.schedules.values())

    def test_agent_without_neighbors(self):
        scenario = single_agent_scenario()
        dc = build_decoupled(scenario)
        state = random_system_state(scenario, np.random.default_rng(6))
        runner = DistributedRunner(scenario, dc, state=state)
        assert runner.mailbox == {}
        runner.sweep(DT)
        engine = FlowEngine(scenario, dc)
        x, z, lam = engine.stack_state(state)
        stepped = np.concatenate(_step_arrays(engine, x, z, lam, 0.0, DT)[:3])
        swept = np.concatenate(engine.stack_state(runner.state()))
        assert np.max(np.abs(swept - stepped)) <= 1e-12
        assert np.max(np.abs(swept - np.concatenate([x, z, lam]))) > 0.0


class TestLocality:
    def test_rounds_ignore_non_neighbor_garbage(self):
        scenario = random_scenario(5)
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(1)
        state = random_system_state(scenario, rng)
        runner = ReferenceRunner(scenario, dc, state=state)
        rows = scenario.constraint.rows

        for agent_id, view in runner.views.items():
            inbox = runner.inbox(agent_id)
            clean_view, clean_out = agent_round(view, list(inbox), DT)
            neighbor_set = set(view.auto_neighbors) | set(view.human_neighbors)
            strangers = [a for a in scenario.topology.node_order
                         if a != agent_id and a not in neighbor_set]
            if not strangers:
                continue
            garbage = [
                Message(sender=s, receiver=agent_id,
                        z=rng.normal(size=rows) * 1e6,
                        lam=rng.normal(size=rows) * 1e6,
                        x=rng.normal(size=3) * 1e6,
                        coupling=rng.normal(size=3) * 1e6)
                for s in strangers
            ]
            dirty_view, dirty_out = agent_round(view, list(inbox) + garbage, DT)
            assert dirty_view.z.tobytes() == clean_view.z.tobytes()
            assert dirty_view.lam.tobytes() == clean_view.lam.tobytes()
            if hasattr(clean_view, "x"):
                assert dirty_view.x.tobytes() == clean_view.x.tobytes()
            for a, b in zip(clean_out, dirty_out):
                assert a.z.tobytes() == b.z.tobytes()
                assert a.lam.tobytes() == b.lam.tobytes()

    def test_missing_neighbor_message_is_protocol_error(self):
        scenario = path_scenario()
        dc = build_decoupled(scenario)
        runner = ReferenceRunner(scenario, dc)
        view = runner.views["k1"]
        inbox = [m for m in runner.inbox("k1") if m.sender != "a1"]
        with pytest.raises(MessageProtocolError, match="a1"):
            agent_round(view, inbox, DT)

    def test_missing_state_block_is_protocol_error(self):
        runner = ReferenceRunner(path_scenario(), build_decoupled(path_scenario()))
        inbox = [replace(m, x=None) if m.sender == "a1" else m for m in runner.inbox("k1")]
        with pytest.raises(MessageProtocolError, match="'a1' -> 'k1' lacks the state block"):
            agent_round(runner.views["k1"], inbox, DT)

    def test_agent_round_refuses_a_non_view(self):
        with pytest.raises(TypeError, match="not an agent view"):
            agent_round(object(), [], DT)

    def test_missing_coupling_term_is_protocol_error(self):
        scenario = path_scenario()
        dc = build_decoupled(scenario)
        runner = ReferenceRunner(scenario, dc)
        view = runner.views["a1"]
        inbox = []
        for msg in runner.inbox("a1"):
            if msg.sender == "k1":
                inbox.append(Message(sender="k1", receiver="a1",
                                     z=msg.z, lam=msg.lam))
            else:
                inbox.append(msg)
        with pytest.raises(MessageProtocolError, match="coupling"):
            agent_round(view, inbox, DT)
