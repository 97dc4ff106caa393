from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import (
    build_decoupled,
    initial_state,
    kkt_residual,
    lift_to_saddle,
    reduce_program,
    solve_centralized,
)
from hatalloc.errors import (
    ActiveSetEnumerationError,
    CertificateError,
    HatallocError,
    InfeasibleProblemError,
    UnsupportedByOracleError,
)
from hatalloc.experiments import crosscheck_scenario, random_scenario, team_scenario
from hatalloc.model import QuadraticCost
from hatalloc.oracle import assert_slater, interior_point, solve_program
from hatalloc.dynamics import FlowEngine

from conftest import path_scenario, single_agent_scenario


class TestReduce:
    def test_no_humans_hessian_is_doubled_weights(self):
        scenario = random_scenario(21, n_human=0, n_autonomous=3, rows=2)
        rp = reduce_program(scenario)
        lay = scenario.layout
        expected = np.zeros((lay.x_dim, lay.x_dim))
        for i in lay.autonomous_ids:
            sl = lay.x_slice(i)
            expected[sl, sl] = 2.0 * scenario.costs[i].weight
        np.testing.assert_allclose(rp.H, expected, atol=1e-14)
        np.testing.assert_array_equal(rp.g, np.zeros(lay.x_dim))
        np.testing.assert_array_equal(rp.h_c, scenario.constraint.c)

    def test_zero_gain_humans_shift_offset(self):
        scenario = path_scenario(attitude=0.0)
        rp = reduce_program(scenario)
        con = scenario.constraint
        expected = con.c + con.b_blocks["k1"] @ scenario.human_models["k1"].base
        np.testing.assert_allclose(rp.h_c, expected, atol=1e-14)

    def test_objective_equals_direct_evaluation(self, path_team):
        rp = reduce_program(path_team)
        engine = FlowEngine(path_team)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=path_team.layout.x_dim)
            y, _ = engine.response(x, 0.0)
            direct = engine.objective_value(x, y)
            assert rp.objective(x) == pytest.approx(direct, abs=1e-10)

    def test_softplus_rejected(self):
        scenario = path_scenario(family="softplus_affine")
        with pytest.raises(UnsupportedByOracleError):
            reduce_program(scenario)


class TestSolve:
    def test_interior_minimum(self, single_agent):
        x, y, mu, value = solve_centralized(single_agent)
        np.testing.assert_allclose(x, [0.0], atol=1e-12)
        np.testing.assert_array_equal(mu, [0.0])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_boundary_minimum_hand_kkt(self):
        scenario = single_agent_scenario(c=(1.0,))
        x, y, mu, value = solve_centralized(scenario)
        np.testing.assert_allclose(x, [-1.0], atol=1e-12)
        np.testing.assert_allclose(mu, [2.0], atol=1e-12)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_detected(self):
        # x + 1 <= 0 and -x + 1 <= 0 cannot both hold.
        scenario = single_agent_scenario(c=(1.0,))
        from dataclasses import replace

        from hatalloc.model import CouplingConstraint

        con = CouplingConstraint(
            {"a1": np.array([[1.0], [-1.0]])}, {}, np.array([1.0, 1.0])
        )
        bad = replace(scenario, constraint=con)
        with pytest.raises(InfeasibleProblemError):
            solve_centralized(bad)

    def test_enumeration_bound(self):
        scenario = single_agent_scenario()
        from dataclasses import replace

        from hatalloc.model import CouplingConstraint

        rows = 13
        con = CouplingConstraint(
            {"a1": np.ones((rows, 1))}, {}, -np.ones(rows)
        )
        wide = replace(scenario, constraint=con)
        with pytest.raises(ActiveSetEnumerationError):
            solve_centralized(wide)

    def test_local_optimality_under_feasible_perturbations(self, path_team):
        x_star, y_star, mu_star, value = solve_centralized(path_team)
        rp = reduce_program(path_team)
        rng = np.random.default_rng(1)
        accepted = 0
        for _ in range(200):
            direction = rng.normal(size=x_star.shape[0])
            direction /= np.linalg.norm(direction)
            candidate = x_star + 1e-3 * direction
            if np.max(rp.constraint(candidate)) > 0:
                continue
            accepted += 1
            assert rp.objective(candidate) >= value - 1e-9
            if accepted >= 50:
                break
        assert accepted >= 20

    def test_weak_duality_sanity(self, path_team):
        x_star, _, mu_star, _ = solve_centralized(path_team)
        rp = reduce_program(path_team)
        assert np.all(mu_star >= 0.0)
        assert abs(mu_star @ rp.constraint(x_star)) <= 1e-8

    def test_convexity_holds_at_any_scale(self):
        """r1's cost weight scaled by 1e160: H stays positive definite, and
        the program solves (its eigenvalues carry a roundoff of about
        eps |H|, larger than the smallest of them). An indefinite H raises."""
        base = team_scenario(1)
        costs = {**base.costs, "r1": QuadraticCost(base.costs["r1"].weight * 1e160)}
        rp = reduce_program(replace(base, costs=costs))
        x, _, mu, _ = solve_program(rp)
        assert np.isfinite(x).all() and (mu >= 0).all()
        assert rp.constraint(x).max() <= 1e-9
        unscaled = reduce_program(base)
        H = unscaled.H.copy()
        H[0, 0] = -H[0, 0]
        with pytest.raises(UnsupportedByOracleError, match="not strictly convex"):
            solve_program(replace(unscaled, H=H))


class TestSlater:
    def test_strict_point_found(self, path_team):
        point = interior_point(reduce_program(path_team))
        assert point is not None
        rp = reduce_program(path_team)
        assert np.max(rp.constraint(point)) < 0

    def test_assert_slater_raises_on_empty_interior(self):
        from dataclasses import replace

        from hatalloc.model import CouplingConstraint

        scenario = single_agent_scenario()
        con = CouplingConstraint(
            {"a1": np.array([[1.0], [-1.0]])}, {}, np.array([0.0, 0.0])
        )
        pinched = replace(scenario, constraint=con)
        from hatalloc.errors import SlaterConditionError

        with pytest.raises(SlaterConditionError):
            assert_slater(pinched)


class TestSaddleLift:
    def test_lift_is_flow_equilibrium(self):
        for seed in (1, 2, 3):
            scenario = crosscheck_scenario(seed)
            dc = build_decoupled(scenario)
            x_star, y_star, mu_star, _ = solve_centralized(scenario)
            z_star, lam_star, eta_star = lift_to_saddle(scenario, dc, x_star, mu_star)
            lay = scenario.layout
            state = initial_state(scenario)
            state.x = lay.unstack_x(x_star)
            state.z = lay.unstack_nodes(z_star)
            state.lam = lay.unstack_nodes(lam_star)
            res = kkt_residual(scenario, dc, state)
            assert res.stationarity <= 1e-6
            assert res.primal <= 1e-6
            assert res.dual_min >= 0.0
            assert res.comp_slack <= 1e-6

    def test_broken_laplacian_raises_certificate_error(self, path_team):
        # The lift solves for z* with `find_certificate_z`, which refuses a
        # z* that does not solve its own Laplacian system.
        dc = build_decoupled(path_team)
        x_star, _, mu_star, _ = solve_centralized(path_team)
        broken = replace(dc, laplacian=np.zeros_like(dc.laplacian))
        with pytest.raises(CertificateError):
            lift_to_saddle(path_team, broken, x_star, mu_star)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lift_is_stationary_at_rescaled_offsets(self, data):
        base = crosscheck_scenario(data.draw(st.sampled_from((1, 2, 3))))
        scale = data.draw(arrays(float, base.constraint.rows,
                                 elements=st.floats(0.25, 4.0)))
        c = base.constraint.c * scale
        try:
            x_star, _, mu_star, _ = solve_program(reduce_program(base).with_offset(c))
        except HatallocError:
            assume(False)
        scenario = replace(base, constraint=replace(base.constraint, c=c))
        dc = build_decoupled(scenario)
        z_star, lam_star, _ = lift_to_saddle(scenario, dc, x_star, mu_star)
        lay = scenario.layout
        state = initial_state(scenario)
        state.x = lay.unstack_x(x_star)
        state.z = lay.unstack_nodes(z_star)
        state.lam = lay.unstack_nodes(lam_star)
        res = kkt_residual(scenario, dc, state)
        assert res.stationarity <= 1e-6
        assert res.primal <= 1e-6
        assert res.comp_slack <= 1e-6
        assert res.dual_min >= 0.0

    def test_multiplier_lift_is_consensus(self, path_team):
        dc = build_decoupled(path_team)
        x_star, _, mu_star, _ = solve_centralized(path_team)
        _, lam_star, _ = lift_to_saddle(path_team, dc, x_star, mu_star)
        n_nodes = len(path_team.layout.node_order)
        np.testing.assert_array_equal(lam_star, np.tile(mu_star, n_nodes))


class TestKKTResidual:
    def test_interior_zero_multiplier_state(self, single_agent):
        dc = build_decoupled(single_agent)
        state = initial_state(single_agent)
        state.x["a1"] = np.array([0.5])  # gradient 1.0, strictly feasible
        res = kkt_residual(single_agent, dc, state)
        assert res.comp_slack == 0.0
        assert res.stationarity > 0.0
        assert res.primal == 0.0

    def test_infeasible_point_has_positive_primal(self, single_agent):
        dc = build_decoupled(single_agent)
        state = initial_state(single_agent)
        state.x["a1"] = np.array([3.0])
        res = kkt_residual(single_agent, dc, state)
        assert res.primal > 0.0


class TestDegenerateInstances:
    def test_humans_only_constant_problem(self):
        import numpy as np

        from hatalloc import NetworkTopology, Scenario, integrate, solve_centralized
        from hatalloc.human import HumanResponseModel
        from hatalloc.model import CouplingConstraint, QuadraticCost

        topo = NetworkTopology((), ("k1", "k2"), frozenset({("k1", "k2")}))
        models = {
            "k1": HumanResponseModel("k1", (), {}, np.array([0.5]), 0.5),
            "k2": HumanResponseModel("k2", (), {}, np.array([0.3]), 0.5),
        }
        scenario = Scenario(
            topo, {"k1": 1, "k2": 1},
            {"k1": QuadraticCost(np.array([[1.0]])),
             "k2": QuadraticCost(np.array([[2.0]]))},
            CouplingConstraint(
                {}, {"k1": np.array([[1.0]]), "k2": np.array([[1.0]])},
                np.array([-2.0]),
            ),
            models,
        )
        x, y, mu, value = solve_centralized(scenario)
        assert x.shape == (0,)
        np.testing.assert_allclose(y, [0.5, 0.3])
        np.testing.assert_array_equal(mu, [0.0])
        assert value == 0.5 ** 2 * 1.0 + 0.3 ** 2 * 2.0
        final, record = integrate(scenario.with_solver(max_time=20.0))
        assert record.termination == "converged"

    def test_humans_only_infeasible(self):
        import numpy as np

        from hatalloc import NetworkTopology, Scenario, solve_centralized
        from hatalloc.errors import InfeasibleProblemError
        from hatalloc.human import HumanResponseModel
        from hatalloc.model import CouplingConstraint, QuadraticCost

        topo = NetworkTopology((), ("k1",), frozenset())
        scenario = Scenario(
            topo, {"k1": 1},
            {"k1": QuadraticCost(np.array([[1.0]]))},
            CouplingConstraint({}, {"k1": np.array([[1.0]])}, np.array([0.5])),
            {"k1": HumanResponseModel("k1", (), {}, np.array([0.2]), 0.5)},
        )
        with pytest.raises(InfeasibleProblemError):
            solve_centralized(scenario)
