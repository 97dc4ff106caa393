import numpy as np
import pytest

from hatalloc import (
    CouplingConstraint,
    DecoupledConstraint,
    NetworkTopology,
    laplacian,
    neighbors,
)
from hatalloc.errors import DimensionMismatchError, DisconnectedGraphError, TopologyError


def random_connected(rng, n_nodes):
    names = [f"n{i}" for i in range(n_nodes)]
    edges = set()
    for idx in range(1, n_nodes):
        other = names[int(rng.integers(0, idx))]
        edges.add((names[idx], other))
    for _ in range(n_nodes):
        a, b = rng.choice(n_nodes, size=2, replace=False)
        edges.add((names[a], names[b]))
    split = int(rng.integers(1, n_nodes + 1))
    return NetworkTopology(tuple(names[:split]), tuple(names[split:]), frozenset(edges))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self loop"):
            NetworkTopology(("a",), ("k",), frozenset({("a", "a"), ("a", "k")}))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(TopologyError, match="endpoint"):
            NetworkTopology(("a",), ("k",), frozenset({("a", "zz")}))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(TopologyError, match="unique"):
            NetworkTopology(("a", "b"), ("a",), frozenset({("a", "b")}))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            NetworkTopology(("a", "b", "c"), (), frozenset({("a", "b")}))

    def test_single_node_is_connected(self):
        topo = NetworkTopology((), ("k",), frozenset())
        assert laplacian(topo).tolist() == [[0.0]]

    def test_canonical_order_sorts_groups(self):
        topo = NetworkTopology(("b", "a"), ("z", "k"), frozenset({
            ("a", "b"), ("b", "k"), ("k", "z"),
        }))
        assert topo.node_order == ("a", "b", "k", "z")


class TestNeighbors:
    def test_two_node_path(self):
        topo = NetworkTopology(("a1",), ("k1",), frozenset({("a1", "k1")}))
        assert neighbors(topo, "a1") == ([], ["k1"])

    def test_triangle_complete(self):
        topo = NetworkTopology(("a1", "a2"), ("k1",), frozenset({
            ("a1", "a2"), ("a1", "k1"), ("a2", "k1"),
        }))
        assert neighbors(topo, "k1") == (["a1", "a2"], [])

    def test_unknown_id(self):
        topo = NetworkTopology(("a1",), ("k1",), frozenset({("a1", "k1")}))
        with pytest.raises(KeyError):
            neighbors(topo, "nope")

    def test_matches_brute_force_incidence(self):
        rng = np.random.default_rng(7)
        topo = random_connected(rng, 7)
        for node in topo.node_order:
            expected = sorted(
                other for e in topo.edges for other in e if node in e and other != node
            )
            auto_n, human_n = neighbors(topo, node)
            assert sorted(auto_n + human_n) == expected


class TestLaplacian:
    def test_two_node_path(self):
        topo = NetworkTopology(("a1",), ("k1",), frozenset({("a1", "k1")}))
        np.testing.assert_array_equal(laplacian(topo), [[1.0, -1.0], [-1.0, 1.0]])

    def test_connected_has_single_zero_eigenvalue(self):
        rng = np.random.default_rng(3)
        for n_nodes in (2, 6, 13, 20):
            topo = random_connected(rng, n_nodes)
            eigs = np.linalg.eigvalsh(laplacian(topo))
            assert np.sum(np.abs(eigs) <= 1e-10) == 1

    def test_disconnected_adjacency_has_extra_zero_eigenvalues(self):
        # Two components built by hand (construction would reject them).
        lap = np.array([
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ])
        eigs = np.linalg.eigvalsh(lap)
        assert np.sum(np.abs(eigs) <= 1e-10) == 2

    def test_symmetric_zero_rows_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            topo = random_connected(rng, int(rng.integers(2, 21)))
            lap = laplacian(topo)
            assert np.max(np.abs(lap - lap.T)) == 0.0
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
            assert np.min(np.linalg.eigvalsh(lap)) >= -1e-10


def l_bar(lap, r):
    """The dense lift lap (x) I_r, read from `DecoupledConstraint.l_bar`."""
    empty = np.zeros((0, 0))
    return DecoupledConstraint(a_bar=empty, b_bar=empty, laplacian=lap,
                               c_split=np.zeros(lap.shape[0] * r), rows=r).l_bar


class TestLaplacianLift:
    def test_r_one_is_identity_lift(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(l_bar(lap, 1), lap)

    def test_r_two_blocks(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expected = [
            [1, 0, -1, 0],
            [0, 1, 0, -1],
            [-1, 0, 1, 0],
            [0, -1, 0, 1],
        ]
        np.testing.assert_array_equal(l_bar(lap, 2), expected)

    def test_zero_block_size_rejected(self):
        # The block size is the number of constraint rows, which is never 0.
        with pytest.raises(DimensionMismatchError, match="at least one row"):
            CouplingConstraint({}, {}, np.zeros(0))

    def test_kernel_contains_consensus_vectors(self):
        rng = np.random.default_rng(5)
        topo = random_connected(rng, 6)
        lap = laplacian(topo)
        for r in (1, 2, 3):
            lifted = l_bar(lap, r)
            w = rng.normal(size=r)
            v = np.kron(np.ones(6), w)
            assert np.max(np.abs(lifted @ v)) <= 1e-12

    def test_left_ones_annihilate_lift(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            topo = random_connected(rng, int(rng.integers(2, 12)))
            n = len(topo.node_order)
            for r in (1, 3):
                lifted = l_bar(laplacian(topo), r)
                left = np.kron(np.ones(n), np.eye(r))
                assert np.max(np.abs(left @ lifted)) <= 1e-12
