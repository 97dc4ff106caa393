import math
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from hatalloc import (
    build_decoupled,
    gradient_check,
    initial_state,
    integrate,
    kkt_residual,
    lift_to_saddle,
    solve_centralized,
)
from hatalloc.dynamics import FlowEngine, _check_finite, _finite_max, _step_arrays
from hatalloc.errors import DivergenceError, ScenarioFormatError
from hatalloc.experiments import crosscheck_scenario, random_scenario, team_scenario
from hatalloc.model import CouplingConstraint

from conftest import (
    free_multiplier_scenario,
    human_only_edge_scenario,
    path_scenario,
    resummed_lagrangian,
    single_agent_scenario,
    with_callback_costs,
)


def random_state(scenario, rng, lam_scale=1.0):
    state = initial_state(scenario)
    for i in scenario.topology.autonomous_ids:
        state.x[i] = rng.normal(size=scenario.dims[i])
    for a in scenario.topology.node_order:
        state.z[a] = rng.normal(size=scenario.constraint.rows)
        state.lam[a] = rng.uniform(0, lam_scale, size=scenario.constraint.rows)
    return state


def single_agent_arrays(x, lam=(0.0,), c=(-1.0,)):
    """`single_agent_scenario` with one x-weighted row per entry of c, its
    engine, and the stacked state (x, z = 0, lam). A single vertex has a zero
    Laplacian, so the raw multiplier gradient is x + c."""
    scenario = replace(
        single_agent_scenario(),
        constraint=CouplingConstraint(
            {"a1": np.ones((len(c), 1))}, {}, np.array(c, dtype=float)
        ),
    )
    engine = FlowEngine(scenario, build_decoupled(scenario))
    lam = np.array(lam, dtype=float)
    return engine, np.array(x, dtype=float), np.zeros_like(lam), lam


class TestProjection:
    """The clamp of `_step_arrays`: lambda <- max(0, lambda + dt * gap)."""

    def test_clamps_at_zero_base(self):
        engine, x, z, lam = single_agent_arrays([0.0], lam=[0.0])  # gap = -1
        _, _, lam_new, _, _ = _step_arrays(engine, x, z, lam, 0.0, 0.1)
        np.testing.assert_array_equal(lam_new, [0.0])

    def test_passes_through_at_positive_base(self):
        engine, x, z, lam = single_agent_arrays([0.0], lam=[0.5])  # gap = -1
        _, _, lam_new, _, _ = _step_arrays(engine, x, z, lam, 0.0, 0.1)
        np.testing.assert_array_equal(lam_new, [0.5 + 0.1 * -1.0])

    def test_componentwise(self):
        engine, x, z, lam = single_agent_arrays(
            [0.0], lam=[0.0, 1.0, 0.0], c=[2.0, -3.0, -1.0]
        )
        _, _, lam_new, _, _ = _step_arrays(engine, x, z, lam, 0.0, 0.1)
        np.testing.assert_array_equal(lam_new, [0.1 * 2.0, 1.0 + 0.1 * -3.0, 0.0])


class TestLagrangian:
    def test_multiplier_free_is_objective(self, path_team):
        engine = FlowEngine(path_team, build_decoupled(path_team))
        state = initial_state(path_team)
        state.x["a1"] = np.array([1.0, 0.0])
        x, z, lam = engine.stack_state(state)
        y, _ = engine.response(x, 0.0)
        assert engine.lagrangian_value(x, z, lam, 0.0) == pytest.approx(
            engine.objective_value(x, y)
        )

    def test_single_agent_arithmetic(self):
        engine, x, z, lam = single_agent_arrays([2.0], lam=[1.0])
        assert engine.lagrangian_value(x, z, lam, 0.0) == pytest.approx(5.0)

    def test_equals_per_agent_resummation(self, path_team):
        dc = build_decoupled(path_team)
        state = random_state(path_team, np.random.default_rng(0))
        engine = FlowEngine(path_team, dc)
        value = engine.lagrangian_value(*engine.stack_state(state), state.t)
        assert value == pytest.approx(
            resummed_lagrangian(path_team, dc, state), abs=1e-10
        )


class TestFlowRhs:
    def test_zero_at_lifted_saddle(self, path_team):
        dc = build_decoupled(path_team)
        x_star, y_star, mu_star, _ = solve_centralized(path_team)
        z_star, lam_star, _ = lift_to_saddle(path_team, dc, x_star, mu_star)
        engine = FlowEngine(path_team, dc)
        dx, dz, _ = engine.rhs(x_star, z_star, lam_star, 0.0)
        assert np.max(np.abs(dx)) <= 1e-6
        assert np.max(np.abs(dz)) <= 1e-6
        # the projected multiplier velocity: the clamped step's change per dt
        dt = 1e-3
        _, _, lam_new, _, _ = _step_arrays(engine, x_star, z_star, lam_star, 0.0, dt)
        assert np.max(np.abs(lam_new - lam_star)) / dt <= 1e-6

    def test_clamp_at_zero_multiplier_interior(self):
        engine, x, z, lam = single_agent_arrays([0.0])  # gap = -1 < 0, lam = 0
        _, _, gap = engine.rhs(x, z, lam, 0.0)
        np.testing.assert_array_equal(gap, [-1.0])
        _, _, lam_new, _, _ = _step_arrays(engine, x, z, lam, 0.0, 1e-3)
        np.testing.assert_array_equal(lam_new, lam)

    def test_no_humans_matches_hand_assembly(self):
        scenario = random_scenario(31, n_human=0, n_autonomous=3, rows=2)
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(1)
        engine = FlowEngine(scenario, dc)
        x, z, lam = engine.stack_state(random_state(scenario, rng))
        dx, _, _ = engine.rhs(x, z, lam, 0.0)

        lay = scenario.layout
        lam_bar = np.zeros((lay.x_dim, lay.x_dim))
        for i in lay.autonomous_ids:
            sl = lay.x_slice(i)
            lam_bar[sl, sl] = scenario.costs[i].weight
        expected = -(2.0 * lam_bar @ x + dc.a_bar.T @ lam)
        np.testing.assert_allclose(dx, expected, atol=1e-12)


class TestStep:
    """`_step_arrays`, the reference projected Euler step."""

    def test_zero_derivative_only_advances_time(self, single_agent):
        x_star, _, mu_star, _ = solve_centralized(single_agent)
        engine, x, z, lam = single_agent_arrays(x_star, lam=mu_star)
        x_new, z_new, lam_new, _, _ = _step_arrays(engine, x, z, lam, 0.0, 0.5)
        # the state stays put; only the caller's clock moves on
        np.testing.assert_allclose(x_new, x_star, atol=1e-12)
        np.testing.assert_array_equal(z_new, z)
        np.testing.assert_array_equal(lam_new, mu_star)

    def test_multiplier_clamped(self):
        engine, x, z, lam = single_agent_arrays([-4.0])  # residual = -5
        _, _, lam_new, _, _ = _step_arrays(engine, x, z, lam, 0.0, 0.3)
        np.testing.assert_array_equal(lam_new, [0.0])

    def test_arithmetic_from_rhs_example(self):
        engine, x, z, lam = single_agent_arrays([2.0], lam=[1.0])
        x_new, _, _, dx, _ = _step_arrays(engine, x, z, lam, 0.0, 0.1)
        np.testing.assert_allclose(dx, [-5.0])  # -(2 x + lambda)
        np.testing.assert_allclose(x_new, [1.5])


class TestCheckFinite:
    """`_check_finite` tests all blocks with one reduction and names the
    first non-finite block, as the per-block loop does."""

    BLOCKS = (np.array([0.5, -2.0, 3.0]), np.array([-7.0]), np.array([1.0, 4.0]),
              np.zeros(0), np.array([-0.25, 6.0, 0.0, 9.5]))

    @staticmethod
    def per_block(t, *blocks):
        for block in blocks:
            if not np.all(np.isfinite(block)):
                raise DivergenceError(t, _finite_max(block))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("index", [0, 1, 2, 4])
    def test_names_the_block_the_loop_names(self, index, bad):
        blocks = [b.copy() for b in self.BLOCKS]
        blocks[index][0] = bad
        blocks[-1][-1] = np.nan  # a later bad block is not the one named
        with pytest.raises(DivergenceError) as expected:
            self.per_block(2.5, *blocks)
        with pytest.raises(DivergenceError) as got:
            _check_finite(2.5, *blocks)
        assert got.value.t == expected.value.t == 2.5
        assert got.value.max_entry == expected.value.max_entry
        assert str(got.value) == str(expected.value)

    def test_block_without_a_finite_entry_reports_inf(self):
        with pytest.raises(DivergenceError) as info:
            _check_finite(0.0, self.BLOCKS[0], np.array([np.inf, np.nan]))
        assert info.value.max_entry == np.inf

    def test_finite_blocks_whose_sum_overflows_pass(self):
        big = np.array([1.5e308, 1.7e308])
        _check_finite(1.0, big, -big[::-1], big)
        _check_finite(1.0, *self.BLOCKS)


class TestIntegrate:
    def test_interior_optimum(self, single_agent):
        final, record = integrate(single_agent)
        assert record.termination == "converged"
        assert record.failed_attempt is None
        np.testing.assert_allclose(final.x["a1"], [0.0], atol=1e-5)
        np.testing.assert_allclose(final.lam["a1"], [0.0], atol=1e-5)

    def test_active_constraint_reaches_kkt_point(self):
        scenario = single_agent_scenario(c=(1.0,))
        final, record = integrate(scenario)
        assert record.termination == "converged"
        assert 0.0 < record.final_update_norm <= scenario.solver.tolerance
        np.testing.assert_allclose(final.x["a1"], [-1.0], atol=1e-4)
        np.testing.assert_allclose(final.lam["a1"], [2.0], atol=1e-4)

    def test_multipliers_never_negative(self, path_team):
        scenario = path_team.with_solver(max_time=5.0, record_stride=10)
        _, record = integrate(scenario)
        for sample in record.samples:
            assert sample.min_multiplier >= -1e-15

    def test_converged_state_satisfies_kkt(self, path_team):
        scenario = path_team.with_solver(tolerance=1e-8, max_time=400.0)
        dc = build_decoupled(scenario)
        final, record = integrate(scenario, dc=dc)
        assert record.termination == "converged"
        res = kkt_residual(scenario, dc, final)
        tol = scenario.solver.tolerance
        assert res.stationarity <= 10 * tol
        assert res.primal <= 10 * tol
        assert res.dual_min >= -1e-15
        assert res.comp_slack <= 10 * tol

    @pytest.mark.parametrize("make", [
        lambda: team_scenario(1), lambda: team_scenario(7),
        *(lambda seed=seed: crosscheck_scenario(seed).with_solver(tolerance=1e-10,
                                                                   max_time=600.0)
          for seed in (1, 2, 3)),
    ], ids=["fig4-seed1", "fig4-seed7", "crosscheck1", "crosscheck2", "crosscheck3"])
    def test_kkt_residual_is_one_reference_velocity(self, make):
        """The KKT read-out of a final state is one `rhs` call's, bit for bit:
        max |(dx, dz)|, max(0, max gap), min lambda and |lambda . gap|. These
        runs step the folded operator, which `rhs` does not read."""
        scenario = make()
        dc = build_decoupled(scenario)
        final, _ = integrate(scenario, dc=dc)
        x, z, lam = scenario.layout.parts(final.w)
        dx, dz, gap = FlowEngine(scenario, dc).rhs(x, z, lam, final.t)
        assert asdict(kkt_residual(scenario, dc, final)) == {
            "stationarity": max(np.max(np.abs(dx)), np.max(np.abs(dz))),
            "primal": max(0.0, np.max(gap)),
            "dual_min": np.min(lam),
            "comp_slack": abs(lam @ gap),
        }

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_halves_dt_once_then_raises(self):
        # diverges at dt = 2.5 and still at the halved 1.25
        with pytest.raises(DivergenceError) as info:
            integrate(free_multiplier_scenario(2.5))
        assert [attempt.dt for attempt in info.value.attempts] == [2.5, 1.25]
        assert info.value.attempts[1].t == info.value.t

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_retry_succeeds_on_borderline_dt(self):
        # dt = 1.2 diverges (|1 - 2 dt| = 1.4 > 1), the halved 0.6 contracts
        final, record = integrate(free_multiplier_scenario(1.2))
        assert record.dt == pytest.approx(0.6)
        np.testing.assert_allclose(final.x["a1"], [0.0], atol=1e-5)
        failed = record.failed_attempt
        assert failed is not None and failed.dt == 1.2
        # |x| grows by 1.4 per step until the update norm |dx| = 2 |x|
        # overflows when squared, past sqrt(9e307) ~ 1.3e154, while every
        # entry is still finite: the largest, |dx|, is reported.
        assert 1.2 * 1000 < failed.t < 1.2 * 1100
        assert math.sqrt(sys.float_info.max) < failed.max_entry < 1.4 * math.sqrt(
            sys.float_info.max)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_the_state_block_that_overflowed(self):
        # From x = (1e150, 1), the velocity (-2e150, -1) has a finite norm,
        # but the step of dt = 1e160 (and of the halved 5e159) overflows x1;
        # the largest finite entry left in x is |x2| = |1 - dt|, dt itself.
        # The multipliers stay at zero.
        from dataclasses import replace

        from hatalloc.model import CouplingConstraint, QuadraticCost

        base = single_agent_scenario().with_solver(dt=1e160, max_time=1e161)
        scenario = replace(
            base,
            dims={"a1": 2},
            costs={"a1": QuadraticCost(np.diag([1.0, 0.5]))},
            constraint=CouplingConstraint(
                {"a1": np.zeros((1, 2))}, {}, np.array([-1.0])
            ),
            initial_state={"x": {"a1": [1e150, 1.0]}},
        )
        with pytest.raises(DivergenceError) as info:
            integrate(scenario)
        assert [a.max_entry for a in info.value.attempts] == [1e160, 1e160 / 2.0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_an_update_norm_that_overflows_diverges(self):
        """Every entry of the velocity and of the state stays finite, but the
        squares of the update norm overflow: the step diverges, at either
        step size, and reports the update's largest entry. A norm that
        overflows inside a chunk fails the chunk, so the single steps decide
        it (this scenario chunks)."""
        scenario = single_agent_scenario().with_solver(dt=0.05, max_time=50.0)
        huge = 1e155  # its square overflows, ten of them do too
        scenario = replace(scenario, initial_state={"x": {"a1": [huge]}})
        with pytest.raises(DivergenceError) as info:
            integrate(scenario)
        assert [a.t for a in info.value.attempts] == [0.0, 0.0]
        for attempt in info.value.attempts:
            assert math.isfinite(attempt.max_entry) and attempt.max_entry >= huge

    def test_a_saddle_distance_that_overflows_diverges(self):
        """From x = 1e308 the squared distance to the saddle overflows: it
        is inf, with no numpy warning (the suite makes one an error), and
        the flow diverges at t = 0 at both step sizes."""
        scenario = replace(single_agent_scenario(), initial_state={"x": {"a1": [1e308]}})
        q = scenario.layout.block_dim
        with pytest.raises(DivergenceError) as info:
            integrate(scenario, saddle=(np.zeros(1 + q), np.zeros(q)))
        assert [a.t for a in info.value.attempts] == [0.0, 0.0]

    def test_initial_state_override(self):
        scenario = replace(single_agent_scenario(),
                           initial_state={"x": {"a1": [0.7]}, "lambda": {"a1": [0.2]}})
        state = initial_state(scenario)
        np.testing.assert_array_equal(state.x["a1"], [0.7])
        np.testing.assert_array_equal(state.lam["a1"], [0.2])

    def test_negative_initial_multiplier_rejected(self):
        with pytest.raises(ScenarioFormatError, match="initial multiplier for 'a1'"):
            replace(single_agent_scenario(), initial_state={"lambda": {"a1": [-0.1]}})


class TestGradientCheck:
    def test_quadratic_affine(self, path_team):
        dc = build_decoupled(path_team)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            worst = max(worst, gradient_check(
                path_team, dc, random_state(path_team, rng)
            ))
        assert worst <= 1e-5

    def test_zero_multiplier_checks_objective_only(self, path_team):
        dc = build_decoupled(path_team)
        rng = np.random.default_rng(6)
        state = random_state(path_team, rng, lam_scale=0.0)
        assert gradient_check(path_team, dc, state) <= 1e-5

    def test_softplus_humans(self):
        scenario = path_scenario(attitude=-0.8, family="softplus_affine", beta=5.0)
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            worst = max(worst, gradient_check(
                scenario, dc, random_state(scenario, rng)
            ))
        assert worst <= 1e-4


class TestCallbackCosts:
    """The engine's per-agent cost loops, taken when any cost is a callback."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_quadratic_callbacks_match_stacked_weights(self, seed):
        scenario = random_scenario(seed)
        dc = build_decoupled(scenario)
        quadratic = FlowEngine(scenario, dc)
        callback = FlowEngine(with_callback_costs(scenario), dc)
        assert quadratic._quadratic and not callback._quadratic
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x, z, lam = quadratic.stack_state(random_state(scenario, rng))
            for got, want in zip(callback.rhs(x, z, lam, 0.0), quadratic.rhs(x, z, lam, 0.0)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            y, _ = quadratic.response(x, 0.0)
            assert callback.objective_value(x, y) == pytest.approx(
                quadratic.objective_value(x, y), rel=0, abs=1e-12
            )

    def test_quartic_costs_converge_to_kkt_point(self):
        scenario = with_callback_costs(crosscheck_scenario(4), quartic=1.0)
        dc = build_decoupled(scenario)
        final, record = integrate(scenario, dc=dc)
        assert record.termination == "converged"
        kkt = kkt_residual(scenario, dc, final)
        assert kkt.stationarity <= 1e-6 and kkt.primal <= 1e-6
        assert gradient_check(scenario, dc, final) <= 1e-5


class TestHumanOnlyEdges:
    def test_human_human_edge_runs(self):
        # a human connected to another human exchanges only auxiliary blocks
        from hatalloc.agents import DistributedRunner

        scenario = human_only_edge_scenario()
        dc = build_decoupled(scenario)
        state = initial_state(scenario)
        runner = DistributedRunner(scenario, dc, state=state)
        runner.sweep(1e-3)
        engine = FlowEngine(scenario, dc)
        x, z, lam = engine.stack_state(state)
        _, _, lam_new, _, _ = _step_arrays(engine, x, z, lam, 0.0, 1e-3)
        _, _, lam_swept = engine.stack_state(runner.state())
        np.testing.assert_allclose(lam_swept, lam_new, atol=1e-14)


class TestSaddleDescent:
    def test_short_run_descends_within_step_budget(self, path_team):
        scenario = path_team.with_solver(max_time=5.0)
        dc = build_decoupled(scenario)
        x_star, y_star, mu_star, _ = solve_centralized(scenario)
        _, lam_star, eta_star = lift_to_saddle(scenario, dc, x_star, mu_star)
        _, rec = integrate(scenario, dc=dc, saddle=(eta_star, lam_star))
        assert rec.v_max_step_increase <= 10.0 * rec.dt ** 2
        assert rec.v_final < rec.v_initial
