from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import (
    SystemState,
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
from hatalloc.model import CustomCost, QuadraticCost
from hatalloc.oracle import (
    ACCEPT_TOL,
    MAX_ENUMERATION_ROWS,
    ReducedProgram,
    assert_slater,
    interior_point,
    interior_points,
    solve_program,
    solve_programs,
)
from hatalloc.dynamics import FlowEngine

from conftest import path_scenario, reduced_constraint, reduced_objective, single_agent_scenario


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
            assert reduced_objective(rp, x) == pytest.approx(direct, abs=1e-10)

    def test_callback_cost_rejected(self, path_team):
        cost = CustomCost(2, lambda v: float(v @ v), lambda v: 2.0 * v)
        scenario = replace(path_team, costs={**path_team.costs, "a2": cost})
        with pytest.raises(UnsupportedByOracleError, match="cost for 'a2' is not quadratic"):
            reduce_program(scenario)

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
            if np.max(reduced_constraint(rp, candidate)) > 0:
                continue
            accepted += 1
            assert reduced_objective(rp, candidate) >= value - 1e-9
            if accepted >= 50:
                break
        assert accepted >= 20

    def test_weak_duality_sanity(self, path_team):
        x_star, _, mu_star, _ = solve_centralized(path_team)
        rp = reduce_program(path_team)
        assert np.all(mu_star >= 0.0)
        assert abs(mu_star @ reduced_constraint(rp, x_star)) <= 1e-8

    def test_convexity_holds_at_any_scale(self):
        """r1's cost weight scaled by 1e160: H stays positive definite, and
        the program solves (its eigenvalues carry a roundoff of about
        eps |H|, larger than the smallest of them). An indefinite H raises."""
        base = team_scenario(1)
        costs = {**base.costs, "r1": QuadraticCost(base.costs["r1"].weight * 1e160)}
        rp = reduce_program(replace(base, costs=costs))
        x, _, mu, _ = solve_program(rp)
        assert np.isfinite(x).all() and (mu >= 0).all()
        assert reduced_constraint(rp, x).max() <= 1e-9
        unscaled = reduce_program(base)
        H = unscaled.H.copy()
        H[0, 0] = -H[0, 0]
        with pytest.raises(UnsupportedByOracleError, match="not strictly convex"):
            solve_program(replace(unscaled, H=H))


def _reference_solve(rp):
    """One program solved by the active-set loop that `solve_programs`
    replaced: a Cholesky test, the free minimizer, then each active set in
    order, one `np.linalg.solve` each, stopping at the first accepted."""
    r, n = rp.G_c.shape
    if r > MAX_ENUMERATION_ROWS:
        raise ActiveSetEnumerationError("too many rows")
    try:
        np.linalg.cholesky(rp.H)
    except np.linalg.LinAlgError:
        raise UnsupportedByOracleError("not strictly convex") from None
    try:
        x = np.linalg.solve(rp.H, -rp.g)
    except np.linalg.LinAlgError:
        pass
    else:
        if not (rp.G_c @ x + rp.h_c).max() > ACCEPT_TOL:
            return x, rp.S @ x + rp.d, np.zeros(r), reduced_objective(rp, x)
    for size in range(1, r + 1):
        for active in map(list, combinations(range(r), size)):
            inactive = [j for j in range(r) if j not in active]
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n], kkt[n:, :n], kkt[:n, n:] = rp.H, rp.G_c[active], rp.G_c[active].T
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-rp.g, -rp.h_c[active]]))
            except np.linalg.LinAlgError:
                continue
            x, mu_active = sol[:n], sol[n:]
            if (mu_active < -ACCEPT_TOL).any():
                continue
            if inactive and reduced_constraint(rp, x)[inactive].max() > ACCEPT_TOL:
                continue
            mu = np.zeros(r)
            mu[active] = np.maximum(mu_active, 0.0)
            return x, rp.S @ x + rp.d, mu, reduced_objective(rp, x)
    raise InfeasibleProblemError("no active set admissible")


def _outcome(solve):
    """The solution's bytes, or the type of the package error it raised."""
    try:
        return tuple(np.asarray(part).tobytes() for part in solve())
    except HatallocError as exc:
        return type(exc)


# Each program of a stack: a convex one, one whose H is not positive
# definite, one with two equal constraint rows (a singular KKT matrix for the
# set holding both), or one whose first two rows cannot both hold.
KINDS = ("convex", "not convex", "twin rows", "infeasible")


@st.composite
def program_stacks(draw):
    """A stack of 1-4 random programs of one shape, with r <= 3 rows."""
    n, r, m = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = len(kinds)
    A = rng.normal(size=(k, n, n))
    H = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(n)
    G_c, h_c = rng.normal(size=(k, r, n)), rng.normal(size=(k, r)) * rng.choice([0.1, 1.0, 10.0])
    for i, kind in enumerate(kinds):
        if kind == "not convex":
            H[i] -= (np.linalg.eigvalsh(H[i])[0] + 1.0) * np.eye(n)
        elif kind == "twin rows" and r > 1:
            G_c[i, 1], h_c[i, 1] = G_c[i, 0], h_c[i, 0]
        elif kind == "infeasible" and r > 1:
            G_c[i, 1], h_c[i, :2] = -G_c[i, 0], 1.0
    return ReducedProgram(H=H, g=rng.normal(size=(k, n)), const=rng.normal(size=k), G_c=G_c,
                          h_c=h_c, S=rng.normal(size=(k, m, n)), d=rng.normal(size=(k, m)),
                          b_d=rng.normal(size=(k, r)))


class TestStackedSolve:
    @settings(max_examples=150, deadline=None)
    @given(stack=program_stacks())
    def test_each_program_solves_as_it_does_alone(self, stack):
        """Every program of a stack gets the bytes of x, y, mu and value, or
        the error type, that it gets solved alone, and that the active-set
        loop `solve_programs` replaced gives it; so does its interior point."""
        solved, points = solve_programs(stack), interior_points(stack)
        for i, alone in enumerate(stack.at(i) for i in range(len(stack.H))):
            got = (type(solved.error[i]) if solved.error[i] is not None else tuple(
                np.asarray(part).tobytes() for part in (solved.x[i], solved.y[i], solved.mu[i],
                                                        float(solved.value[i]))))
            assert got == _outcome(lambda: solve_program(alone)) == _outcome(
                lambda: _reference_solve(alone))
            point = interior_point(alone)
            assert (points[i] is None) == (point is None)
            if point is not None:
                assert points[i].tobytes() == point.tobytes()

    def test_with_offset_copies_share_what_reads_no_offset(self, monkeypatch):
        """A stack's offset copies share its Cholesky verdicts, pinv(G_c)
        and free minimizer: solved again at a new offset, no factorization
        is repeated, and each active set makes one `np.linalg.solve` call
        for all the programs it solves."""
        scenario = team_scenario(1)
        rp = reduce_program(scenario)
        stack = replace(rp, **{name: getattr(rp, name)[None].repeat(3, axis=0)
                               for name in ("H", "g", "G_c", "h_c", "S", "d", "b_d")},
                        const=np.full(3, rp.const))
        solve_programs(stack), interior_points(stack)
        calls = Counter()
        for name in ("solve", "cholesky", "pinv"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *args, _real=real, _name=name:
                                calls.update([_name]) or _real(*args))
        probe = stack.with_offset(scenario.constraint.c)
        solved = solve_programs(probe)
        assert interior_points(probe)[0] is not None
        # Both rows bind: the sets {0}, {1} and {0, 1}, once each for all three.
        assert calls == {"solve": 3}
        assert solved.x[0].tobytes() == solve_centralized(scenario)[0].tobytes()


# The generator's shapes: a team draw has 15 autonomous coordinates and 8
# human ones, a crosscheck draw 9-20 and 2-8; 2 constraint rows, up to 4
# attitude cells, and KKT systems with up to 2 multiplier rows.
STACK_SHAPES = [(4, 15, 8), (2, 9, 2), (4, 20, 8), (1, 12, 5), (3, 17, 4)]


@pytest.mark.parametrize("k, n, m", STACK_SHAPES)
def test_stacked_linear_algebra_matches_per_matrix_calls(k, n, m):
    """The stacked pass rests on this: `np.linalg.solve`, `@` and
    `np.linalg.pinv` give each matrix of a stack the floats it gets from its
    own call, bit for bit, strided views included. `np.einsum` does not: a
    stacked G x by einsum differed from the per-matrix `G @ x` in 1,867 of
    2,000 random (k, 2, n) stacks, so no value that feeds an offset may use
    it."""
    rng = np.random.default_rng(n * 100 + k)
    for _ in range(40):
        A = rng.normal(size=(k, n + 2, n + 2))
        b = rng.normal(size=(k, n + 2))
        for size in (n, n + 1, n + 2):  # the free minimizer and the KKT systems
            stacked = np.linalg.solve(A[:, :size, :size], b[:, :size, None])[..., 0]
            for i in range(k):
                assert stacked[i].tobytes() == np.linalg.solve(A[i, :size, :size],
                                                               b[i, :size]).tobytes()
        sol = np.linalg.solve(A, b[..., None])  # x is a strided view, as in a KKT solution
        x, H = sol[:, :n], A[:, :n, :n]
        G, S, d = rng.normal(size=(k, 2, n)), rng.normal(size=(k, m, n)), rng.normal(size=(k, m))
        rows, y, pinv = (G @ x)[..., 0], (S @ x)[..., 0] + d, np.linalg.pinv(G)
        quad = ((0.5 * x[..., 0])[:, None, :] @ H) @ x
        lin = b[:, None, :n] @ x
        for i in range(k):
            xi = x[i, :, 0]
            assert rows[i].tobytes() == (G[i] @ xi).tobytes()
            assert y[i].tobytes() == (S[i] @ xi + d[i]).tobytes()
            assert quad[i, 0, 0] == 0.5 * xi @ H[i] @ xi and lin[i, 0, 0] == b[i, :n] @ xi
            assert pinv[i].tobytes() == np.linalg.pinv(G[i]).tobytes()
            assert (-pinv[i] @ d[i, :2]).tobytes() == (-pinv @ d[:, :2, None])[i, :, 0].tobytes()


class TestSlater:
    def test_strict_point_found(self, path_team):
        point = interior_point(reduce_program(path_team))
        assert point is not None
        rp = reduce_program(path_team)
        assert np.max(reduced_constraint(rp, point)) < 0

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
            state = SystemState(scenario.layout, np.concatenate([x_star, z_star, lam_star]))
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
        state = SystemState(scenario.layout, np.concatenate([x_star, z_star, lam_star]))
        res = kkt_residual(scenario, dc, state)
        assert res.stationarity <= 1e-6
        assert res.primal <= 1e-6
        assert res.comp_slack <= 1e-6
        assert res.dual_min >= 0.0

    def test_infeasible_candidate_is_refused(self):
        # x = 2 breaks the one row x - 1 <= 0.
        scenario = single_agent_scenario()
        with pytest.raises(InfeasibleProblemError, match="violates the coupled constraint"):
            lift_to_saddle(scenario, build_decoupled(scenario), np.array([2.0]), np.zeros(1))

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

    def test_stacked_humans_only_programs_solve_as_each_alone(self):
        """A stack of two programs with no autonomous state, one feasible
        and one not, goes through the one enumeration: each gets what
        `solve_program` gives it alone (x of shape (0,), y = d, value =
        const, or the same error type), and an interior point or None."""
        from hatalloc import NetworkTopology, Scenario
        from hatalloc.human import HumanResponseModel
        from hatalloc.model import CouplingConstraint

        ids = ("k1", "k2")
        scenario = Scenario(
            NetworkTopology((), ids, frozenset({ids})), {k: 1 for k in ids},
            {"k1": QuadraticCost(np.array([[1.0]])), "k2": QuadraticCost(np.array([[2.0]]))},
            CouplingConstraint({}, {k: np.array([[1.0]]) for k in ids}, np.array([-2.0])),
            {"k1": HumanResponseModel("k1", (), {}, np.array([0.5]), 0.5),
             "k2": HumanResponseModel("k2", (), {}, np.array([0.3]), 0.5)},
        )
        rp = reduce_program(scenario)
        stack = replace(rp, **{name: getattr(rp, name)[None].repeat(2, axis=0)
                               for name in ("H", "g", "G_c", "h_c", "S", "d", "b_d")},
                        const=np.full(2, rp.const))
        # B d = 0.8: row level -1.2 at c = -2, +0.5 at c = -0.3.
        stack = stack.with_offset(np.array([[-2.0], [-0.3]]))
        solved = solve_programs(stack)
        x, y, mu, value = solve_program(stack.at(0))
        assert solved.error[0] is None and x.shape == solved.x[0].shape == (0,)
        assert y.tobytes() == solved.y[0].tobytes() == rp.d.tobytes()
        assert mu.tobytes() == solved.mu[0].tobytes() == np.zeros(1).tobytes()
        assert value == solved.value[0] == rp.const
        with pytest.raises(InfeasibleProblemError):
            solve_program(stack.at(1))
        assert type(solved.error[1]) is InfeasibleProblemError
        points = interior_points(stack)
        assert points[1] is None and interior_point(stack.at(1)) is None
        assert points[0].shape == interior_point(stack.at(0)).shape == (0,)
