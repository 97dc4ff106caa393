import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from hatalloc import (
    ApproximationSchedule,
    CouplingConstraint,
    NetworkTopology,
    QuadraticCost,
    Scenario,
    SystemState,
    build_decoupled,
    coupled_residual,
    initial_state,
    integrate,
    lift_to_saddle,
    saddle_distance,
    solve_centralized,
    squared_deviation,
    workload_report,
)
from hatalloc.dynamics import SAMPLE_BLOCK, FlowEngine
from hatalloc.experiments import crosscheck_scenario, random_scenario, team_scenario

from conftest import path_scenario, resummed_lagrangian


def _sampled_scenarios():
    """An affine, a softplus and a still-settling scheduled scenario."""
    scheduled = path_scenario(attitude=-0.7)
    model = scheduled.human_models["k1"]
    schedule = ApproximationSchedule(
        gain_deltas={j: 0.5 * g for j, g in model.gains.items()},
        base_delta=np.array([0.3, -0.2]),
        settle_time=2.0,  # still settling when the run ends
    )
    return [
        path_scenario(),
        path_scenario(attitude=-0.8, family="softplus_affine", beta=5.0),
        replace(scheduled, schedules={"k1": schedule}),
    ]


class TestSquaredDeviation:
    def test_zero_at_reference(self, path_team):
        x_star, y_star, _, _ = solve_centralized(path_team)
        state = initial_state(path_team)
        state.w[:path_team.layout.x_dim] = x_star
        assert squared_deviation(path_team, state, (x_star, y_star)) \
            == pytest.approx(0.0, abs=1e-24)

    def test_scalar_offset_squares(self, single_agent):
        state = initial_state(single_agent)
        state.x["a1"] = np.array([2.0])
        ref = (np.array([0.0]), np.zeros(0))
        assert squared_deviation(single_agent, state, ref) == pytest.approx(4.0)

    def test_matches_blockwise_resummation(self, path_team):
        rng = np.random.default_rng(0)
        lay = path_team.layout
        state = initial_state(path_team)
        for i in lay.autonomous_ids:
            state.x[i] = rng.normal(size=path_team.dims[i])
        x_ref = rng.normal(size=lay.x_dim)
        y_ref = rng.normal(size=lay.y_dim)
        value = squared_deviation(path_team, state, (x_ref, y_ref))

        engine = FlowEngine(path_team)
        x, _, _ = lay.parts(state.w)
        y, _ = engine.response(x, 0.0)
        manual = float(np.sum((x - x_ref) ** 2) + np.sum((y - y_ref) ** 2))
        assert value == pytest.approx(manual, rel=1e-12)


class TestSaddleDistance:
    def test_zero_at_saddle(self, path_team):
        dc = build_decoupled(path_team)
        x_star, _, mu_star, _ = solve_centralized(path_team)
        z_star, lam_star, eta_star = lift_to_saddle(path_team, dc, x_star, mu_star)
        state = SystemState(path_team.layout, np.concatenate([x_star, z_star, lam_star]))
        assert saddle_distance(path_team, state, (eta_star, lam_star)) \
            == pytest.approx(0.0, abs=1e-20)

    def test_unit_multiplier_offset_is_half(self, path_team):
        lay = path_team.layout
        state = initial_state(path_team)
        eta_ref = np.zeros(lay.x_dim + 2 * len(lay.node_order))
        lam_ref = np.zeros(2 * len(lay.node_order))
        lam_ref[0] = 1.0
        assert saddle_distance(path_team, state, (eta_ref, lam_ref)) \
            == pytest.approx(0.5)

    @pytest.mark.parametrize("kind, seed", [
        *(("fig4", s) for s in (1, 7)),
        *(("crosscheck", s) for s in (1, 2, 3)),
        *(("random", s) for s in range(12)),
    ])
    def test_a_tracked_runs_distances_are_its_saddle_distance(self, kind, seed):
        # The run takes the distance as `saddle_distance` does, one dot
        # product over the stacked w: at the start, and at a converged
        # run's stop, which is always a single step.
        scenario = {
            "fig4": lambda: team_scenario(seed),
            "crosscheck": lambda: crosscheck_scenario(seed).with_solver(tolerance=1e-10),
            "random": lambda: random_scenario(seed).with_solver(max_time=5.0),
        }[kind]()
        dc = build_decoupled(scenario)
        x_star, y_star, mu_star, _ = solve_centralized(scenario)
        _, lam_star, eta_star = lift_to_saddle(scenario, dc, x_star, mu_star)
        saddle = (eta_star, lam_star)
        final, rec = integrate(scenario, dc=dc, reference=(x_star, y_star), saddle=saddle)
        assert rec.v_initial == saddle_distance(scenario, initial_state(scenario), saddle)
        assert (rec.termination == "converged") == (kind != "random")
        if rec.termination == "converged":
            assert rec.v_final == saddle_distance(scenario, final, saddle)
            assert rec.samples[-1].saddle_dist == rec.v_final


class TestWorkloads:
    def test_zero_states(self, path_team):
        state = initial_state(path_team)
        report = workload_report(path_team, state)
        assert report.by_agent["a1"] == 0.0
        # the human responds from its base even at zero autonomous activity
        assert report.by_agent["k1"] == pytest.approx(1.8)

    def test_one_norm(self, path_team):
        state = initial_state(path_team)
        state.x["a1"] = np.array([1.0, -2.0])
        report = workload_report(path_team, state)
        assert report.by_agent["a1"] == pytest.approx(3.0)
        assert report.autonomous_total == pytest.approx(3.0)


class TestTrajectoryRecord:
    def test_csv_columns_and_reproducibility(self, path_team):
        scenario = path_team.with_solver(max_time=0.5, record_stride=100)
        dc = build_decoupled(scenario)
        x_star, y_star, mu_star, _ = solve_centralized(scenario)
        _, lam_star, eta_star = lift_to_saddle(scenario, dc, x_star, mu_star)
        _, rec1 = integrate(scenario, dc=dc, reference=(x_star, y_star),
                            saddle=(eta_star, lam_star))
        _, rec2 = integrate(scenario, dc=dc, reference=(x_star, y_star),
                            saddle=(eta_star, lam_star))
        text1, text2 = rec1.to_csv(), rec2.to_csv()
        assert text1 == text2  # byte-identical reruns
        header = text1.splitlines()[0].split(",")
        assert header[:6] == ["t", "deviation", "saddle_dist",
                              "max_coupled_residual", "min_multiplier",
                              "lagrangian"]
        assert header[6:] == [f"workload_{a}" for a in scenario.layout.node_order]
        assert list(rec1.samples.dtype.names) == header

    def test_ids_with_commas_and_quotes_stay_one_cell(self):
        """An agent id holding `,` or `"` is one quoted header cell (RFC
        4180), so `csv.reader` reads every line at the header's length."""
        ids = ("r,1", 'r"2')
        scenario = Scenario(
            topology=NetworkTopology(ids, (), frozenset({ids})),
            dims={i: 1 for i in ids},
            costs={i: QuadraticCost(np.array([[1.0]])) for i in ids},
            constraint=CouplingConstraint({i: np.array([[1.0]]) for i in ids}, {},
                                          np.array([-1.0])),
            human_models={},
        ).with_solver(max_time=0.01)
        _, rec = integrate(scenario)
        header, *rows = csv.reader(io.StringIO(rec.to_csv()))
        assert header == list(rec.samples.dtype.names)
        assert sorted(header[-2:]) == ['workload_r"2', "workload_r,1"]
        assert rows and {len(row) for row in rows} == {len(header)}

    def test_reference_free_record_omits_columns(self, path_team):
        scenario = path_team.with_solver(max_time=0.2)
        _, rec = integrate(scenario)
        header = rec.to_csv().splitlines()[0].split(",")
        assert "deviation" not in header
        assert "saddle_dist" not in header
        assert list(rec.samples.dtype.names) == header

    def test_final_sample_matches_returned_state(self):
        # The sample is computed on the stacked state; the state-level API
        # and the per-agent resummation below are the independent references
        # it must agree with.
        for scenario in _sampled_scenarios():
            scenario = scenario.with_solver(max_time=1.0, record_stride=77)
            lay = scenario.layout
            rng = np.random.default_rng(3)
            reference = (rng.normal(size=lay.x_dim), rng.normal(size=lay.y_dim))
            saddle = (rng.normal(size=lay.x_dim + lay.block_dim),
                      rng.uniform(size=lay.block_dim))
            dc = build_decoupled(scenario)
            final, rec = integrate(scenario, dc=dc, reference=reference, saddle=saddle)
            last = rec.samples[-1]
            assert last.t == final.t
            assert abs(last.deviation - squared_deviation(scenario, final, reference)) <= 1e-12
            assert abs(last.saddle_dist - saddle_distance(scenario, final, saddle)) <= 1e-12
            assert abs(last.lagrangian - resummed_lagrangian(scenario, dc, final)) <= 1e-12
            report = workload_report(scenario, final)
            loads = [name for name in rec.samples.dtype.names if name.startswith("workload_")]
            assert loads == [f"workload_{a}" for a in report.by_agent]
            for agent, value in report.by_agent.items():
                assert abs(last[f"workload_{agent}"] - value) <= 1e-12
            y = np.concatenate([np.zeros(0), *(scenario.human_response(k, final.x, final.t)
                                              for k in lay.human_ids)])
            coupled = coupled_residual(scenario, lay.parts(final.w)[0], y)
            assert abs(last.max_coupled_residual - np.max(coupled)) <= 1e-12

    def test_time_strictly_increasing(self, path_team):
        scenario = path_team.with_solver(max_time=1.0, record_stride=50)
        _, rec = integrate(scenario)
        times = [s.t for s in rec.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_every_step_sampled_across_evaluation_blocks(self, path_team):
        # Samples are evaluated SAMPLE_BLOCK at a time; the sample at step s
        # equals the last sample of a run stopped at s.
        scenario = path_team.with_solver(max_time=0.7, record_stride=1, tolerance=0.0)
        lay = scenario.layout
        # Multipliers well above zero, so that chunks run.
        start = {"lambda": {a: [5.0] * lay.rows for a in lay.node_order}}
        scenario = replace(scenario, initial_state=start)
        dt = scenario.solver.dt
        _, rec = integrate(scenario)
        assert rec.chunked_steps > 0
        assert [s.t for s in rec.samples] == [k * dt for k in range(rec.steps + 1)]
        for steps in (SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 1):
            _, short = integrate(scenario.with_solver(max_time=steps * dt))
            a, b = rec.samples[steps], short.samples[-1]
            assert a.t == b.t
            for key in ("max_coupled_residual", "min_multiplier", "lagrangian",
                        *(f"workload_{a}" for a in lay.node_order)):
                assert abs(a[key] - b[key]) <= 1e-12
