from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatalloc import (
    build_decoupled,
    coupled_residual,
    decoupled_residual,
    find_certificate_z,
    split_offset,
)
from hatalloc.errors import CertificateError, DimensionMismatchError
from hatalloc.experiments import random_scenario
from hatalloc.model import scenario_from_document
from hatalloc.reformulation import stacked_terms
from hatalloc.topology import NetworkTopology

from conftest import decoupled_residual_blocks, path_scenario, single_agent_scenario
from test_model import reference_dims_doc


def seed_examples(seeds):
    """`@example(seed=s)` for every s, so fixed seeds stay covered."""
    def apply(test):
        for s in seeds:
            test = example(seed=s)(test)
        return test
    return apply


def feasible_pair(scenario, rng, boundary=False):
    """Random (x, y) projected onto the coupled-feasible set.

    Shifts the stacked (x, y) pair along the constraint map's pseudoinverse;
    y is treated as a free vector here (constraint equivalence does not
    involve the response model).
    """
    lay = scenario.layout
    con = scenario.constraint
    x = rng.normal(size=lay.x_dim)
    y = rng.normal(size=lay.y_dim)
    resid = coupled_residual(scenario, x, y)
    blocks = [con.a_blocks[i] for i in lay.autonomous_ids]
    blocks += [con.b_blocks[k] for k in lay.human_ids]
    full = np.hstack(blocks)
    margin = np.zeros(con.rows) if boundary else rng.uniform(0.0, 1.0, con.rows)
    shift = np.linalg.pinv(full) @ (resid + margin)
    x = x - shift[:lay.x_dim]
    y = y - shift[lay.x_dim:]
    return x, y


class TestSplitOffset:
    def triangle(self):
        return NetworkTopology(("a1", "a2"), ("k1",), frozenset({
            ("a1", "a2"), ("a1", "k1"), ("a2", "k1"),
        }))

    def test_first_agent_policy(self):
        out = split_offset(np.array([3.0]), self.triangle(), "first_agent")
        np.testing.assert_array_equal(out, [3.0, 0.0, 0.0])

    def test_uniform_policy(self):
        out = split_offset(np.array([3.0]), self.triangle(), "uniform")
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])

    def test_blocks_reassemble_exactly(self):
        """`first_agent` sums back to c exactly; `uniform` adds c / 3 three
        times, which holds only to roundoff (about 40% of draws differ in the
        last bits), so it is held to 3 ulp of |c| per entry."""
        rng = np.random.default_rng(0)
        topo = self.triangle()
        eps = np.finfo(float).eps
        for _ in range(200):
            c = rng.normal(size=4) * 10.0 ** rng.uniform(-6, 6)
            out = split_offset(c, topo, "first_agent")
            np.testing.assert_array_equal(out[:4] + out[4:8] + out[8:], c)
            out = split_offset(c, topo, "uniform")
            total = out[:4] + out[4:8] + out[8:]
            assert np.all(np.abs(total - c) <= 3 * eps * np.abs(c))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            split_offset(np.zeros(1), self.triangle(), "nope")


class TestBuildDecoupled:
    def test_single_node_degenerates_to_coupled(self):
        scenario = single_agent_scenario()
        dc = build_decoupled(scenario)
        np.testing.assert_array_equal(dc.a_bar, [[1.0]])
        np.testing.assert_array_equal(dc.l_bar, [[0.0]])
        np.testing.assert_array_equal(dc.c_split, [-1.0])

    def test_two_node_path_laplacian(self):
        scenario = path_scenario()
        dc = build_decoupled(scenario)
        assert dc.l_bar.shape == (6, 6)

    def test_reference_dimension_shapes(self):
        scenario = scenario_from_document(reference_dims_doc())
        dc = build_decoupled(scenario)
        assert dc.a_bar.shape == (10, 15)
        assert dc.b_bar.shape == (4, 8)
        assert dc.l_bar.shape == (14, 14)
        assert dc.c_split.shape == (14,)


class TestResiduals:
    def test_all_zero_states_give_offset(self):
        scenario = path_scenario()
        s = coupled_residual(scenario, np.zeros(4), np.zeros(2))
        np.testing.assert_allclose(s, scenario.constraint.c)

    def test_boundary_feasible_single_agent(self):
        scenario = single_agent_scenario()
        s = coupled_residual(scenario, np.array([1.0]), np.zeros(0))
        np.testing.assert_array_equal(s, [0.0])

    def test_dimension_mismatch(self):
        scenario = single_agent_scenario()
        with pytest.raises(DimensionMismatchError):
            coupled_residual(scenario, np.zeros(2), np.zeros(0))

    def test_z_of_the_wrong_length_is_refused(self):
        dc = build_decoupled(path_scenario())
        with pytest.raises(DimensionMismatchError, match="z must have length 6, got 5"):
            decoupled_residual(dc, np.zeros(4), np.zeros(2), np.zeros(5))

    def test_zero_z_reduces_to_terms(self):
        scenario = path_scenario()
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=4), rng.normal(size=2)
        out = decoupled_residual(dc, x, y, np.zeros(6))
        np.testing.assert_array_equal(out, stacked_terms(dc, x, y))

    def test_kernel_shift_invariance(self):
        scenario = path_scenario()
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(2)
        x, y, z = rng.normal(size=4), rng.normal(size=2), rng.normal(size=6)
        base = decoupled_residual(dc, x, y, z)
        for _ in range(10):
            w = rng.normal(size=2)
            shifted = decoupled_residual(dc, x, y, z + np.kron(np.ones(3), w))
            assert np.max(np.abs(shifted - base)) <= 1e-12

    def test_left_sum_recovers_coupled(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            scenario = random_scenario(seed)
            dc = build_decoupled(scenario)
            lay = scenario.layout
            x = rng.normal(size=lay.x_dim)
            y = rng.normal(size=lay.y_dim)
            z = rng.normal(size=dc.block_dim)
            blocks = decoupled_residual(dc, x, y, z)
            n_nodes = len(lay.node_order)
            left = np.kron(np.ones(n_nodes), np.eye(dc.rows))
            np.testing.assert_allclose(
                left @ blocks, coupled_residual(scenario, x, y), atol=1e-12
            )

    def test_per_block_matches_compact(self):
        rng = np.random.default_rng(4)
        for seed in range(8):
            scenario = random_scenario(seed)
            dc = build_decoupled(scenario)
            lay = scenario.layout
            x = rng.normal(size=lay.x_dim)
            y = rng.normal(size=lay.y_dim)
            z_blocks = {a: rng.normal(size=dc.rows) for a in lay.node_order}
            z = np.concatenate([z_blocks[a] for a in lay.node_order])
            compact = decoupled_residual(dc, x, y, z)
            blocks = decoupled_residual_blocks(scenario, dc, x, y, z_blocks)
            for a in lay.node_order:
                np.testing.assert_allclose(
                    blocks[a], compact[lay.node_slice(a)], atol=1e-12
                )

    def test_coupled_residual_split_independent(self):
        rng = np.random.default_rng(5)
        scenario = path_scenario()
        x, y = rng.normal(size=4), rng.normal(size=2)
        base = coupled_residual(scenario, x, y)
        for policy in ("first_agent", "uniform"):
            dc = build_decoupled(scenario.with_solver(offset_split=policy))
            n_nodes = len(scenario.layout.node_order)
            left = np.kron(np.ones(n_nodes), np.eye(dc.rows))
            np.testing.assert_allclose(
                left @ stacked_terms(dc, x, y), base, atol=1e-12
            )


class TestCertificate:
    def test_infeasible_point_returns_none(self):
        scenario = single_agent_scenario()
        x = np.array([2.0])  # residual = 1 > 0
        s = coupled_residual(scenario, x, np.zeros(0))
        dc = build_decoupled(scenario)
        assert find_certificate_z(dc, x, np.zeros(0), s) is None
        assert find_certificate_z(dc, x, np.zeros(0), np.array([np.nan])) is None

    def test_a_solve_residual_that_is_not_a_number_raises(self):
        """x is NaN but its residual, passed in, is feasible: the Laplacian
        solve's residual is NaN, which no tolerance passes."""
        scenario = single_agent_scenario()
        with pytest.raises(CertificateError, match="residual nan exceeds"):
            find_certificate_z(build_decoupled(scenario), np.array([np.nan]), np.zeros(0),
                               np.array([-0.5]))

    def test_single_node_returns_zero(self):
        scenario = single_agent_scenario()
        x = np.array([0.25])
        s = coupled_residual(scenario, x, np.zeros(0))
        dc = build_decoupled(scenario)
        z = find_certificate_z(dc, x, np.zeros(0), s)
        np.testing.assert_array_equal(z, [0.0])

    def test_three_node_path_certificate_feasible(self):
        scenario = path_scenario()
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x, y = feasible_pair(scenario, rng)
            s = coupled_residual(scenario, x, y)
            z = find_certificate_z(dc, x, y, s)
            assert z is not None
            assert np.max(decoupled_residual(dc, x, y, z)) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    @seed_examples(range(12))
    def test_forward_and_backward_equivalence(self, seed):
        # Feasibility transfers both ways between the coupled and decoupled
        # forms; the backward direction builds strictly interior points in
        # the decoupled space (consensus residual split plus kernel shifts)
        # and verifies them through the independently assembled coupled
        # evaluator.
        scenario = random_scenario(seed)
        dc = build_decoupled(scenario)
        lay = scenario.layout
        rng = np.random.default_rng(100 + seed)
        n_nodes = len(lay.node_order)
        for _ in range(15):
            boundary = bool(rng.integers(0, 2))
            x, y = feasible_pair(scenario, rng, boundary=boundary)
            s = coupled_residual(scenario, x, y)
            z = find_certificate_z(dc, x, y, s)
            if np.max(s) > 0:  # rank-deficient shift, nothing to certify
                assert z is None
                continue
            assert z is not None
            assert np.max(decoupled_residual(dc, x, y, z)) <= 1e-8
            # interior construction: spread the coupled residual evenly
            # over the blocks, then wander along the Laplacian kernel
            terms = stacked_terms(dc, x, y)
            target = np.kron(np.ones(n_nodes), s / n_nodes)
            z2, _, _, _ = np.linalg.lstsq(dc.l_bar, target - terms, rcond=None)
            z2 = z2 + np.kron(np.ones(n_nodes), rng.normal(size=dc.rows))
            interior = np.max(decoupled_residual(dc, x, y, z2)) <= 0
            # a pair pushed inside by a positive margin always gives one, so
            # every certified margin pair exercises the backward direction
            assert interior or boundary
            if interior:
                assert np.max(coupled_residual(scenario, x, y)) <= 1e-8

    @pytest.mark.parametrize("scenario", [
        *(random_scenario(seed) for seed in range(8)),
        random_scenario(4, n_autonomous=80, n_human=20, rows=3),
    ])
    def test_node_laplacian_solve_equals_dense_lstsq(self, scenario):
        # pinv(L (x) I_r) = pinv(L) (x) I_r: the same minimum-norm solution,
        # also for right-hand sides outside the image of l_bar.
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(len(scenario.layout.node_order))
        for _ in range(3):
            rhs = rng.normal(size=dc.block_dim)
            dense, _, _, _ = np.linalg.lstsq(dc.l_bar, rhs, rcond=None)
            np.testing.assert_allclose(dc.lift_solve(rhs), dense,
                                       rtol=0, atol=1e-10)

    def test_broken_laplacian_raises_certificate_error(self, path_team):
        dc = build_decoupled(path_team)
        broken = replace(dc, laplacian=np.zeros_like(dc.laplacian))
        x, y = feasible_pair(path_team, np.random.default_rng(2))
        s = coupled_residual(path_team, x, y)
        assert find_certificate_z(dc, x, y, s) is not None
        with pytest.raises(CertificateError):
            find_certificate_z(broken, x, y, s)

    def test_split_policies_agree_on_feasibility(self):
        rng = np.random.default_rng(7)
        scenario = path_scenario()
        for _ in range(10):
            x, y = feasible_pair(scenario, rng)
            s = coupled_residual(scenario, x, y)
            for policy in ("first_agent", "uniform"):
                dc = build_decoupled(scenario.with_solver(offset_split=policy))
                z = find_certificate_z(dc, x, y, s)
                assert z is not None
                assert np.max(decoupled_residual(dc, x, y, z)) <= 1e-8
