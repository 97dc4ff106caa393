"""Decoupling the shared constraint over the interaction graph.

The global inequality sum_i A_i x_i + sum_k B_k y_k + c <= 0 is equivalent to
a blockwise inequality

    [diag(A_i) x ; diag(B_k) y] + (L (x) I_r) z + C <= 0

for some auxiliary vector z, where L is the graph Laplacian and C is any
blockwise split of c whose blocks sum to c. Each block of the reformulated
inequality involves one agent and its graph neighbors only, which is what
makes a fully distributed algorithm possible.

The blocks a_bar, b_bar and the node Laplacian read no solver option, so
`decoupled_blocks` builds them once per scenario and holds them by
`Scenario.derive`; `build_decoupled` adds the offset split each call.
Both residual evaluators and a constructive certificate recovery (slack
placement plus a Laplacian least-squares solve) live here.
`decoupled_residual` is the one decoupled gap: the flow's multiplier
gradient (`FlowEngine.rhs`), its Lagrangian and the KKT read-out of a run
all evaluate it; `coupled_residual` checks it from the raw blocks. The lift
L (x) I_r is never stored: it is applied and solved on the node Laplacian,
and `DecoupledConstraint.l_bar` builds the dense matrix only when read; no
other code in the package builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DimensionMismatchError
from .model import Scenario, block_diagonal
from .topology import laplacian

CERTIFICATE_TOL = 1e-8


@dataclass(frozen=True)
class DecoupledConstraint:
    """Assembled matrices of the graph-decoupled constraint."""

    a_bar: np.ndarray  # block diagonal of A_i, (r*m, sum n_i)
    b_bar: np.ndarray  # block diagonal of B_k, (r*h, sum s_k)
    laplacian: np.ndarray  # node Laplacian L, (m+h, m+h)
    c_split: np.ndarray  # blockwise split of c, (r(m+h),)
    rows: int

    @property
    def block_dim(self) -> int:
        return self.c_split.shape[0]

    @property
    def l_bar(self) -> np.ndarray:
        """The dense Laplacian lift L (x) I_r, (r(m+h), r(m+h)), built anew on
        every access. The package computes with the node Laplacian through
        `lift_apply` and `lift_solve`; the dense lift is for inspection."""
        return np.kron(self.laplacian, np.eye(self.rows))

    def lift_apply(self, v: np.ndarray) -> np.ndarray:
        """l_bar v along v's last axis, computed on the node Laplacian (one
        column per row)."""
        return (self.laplacian @ v.reshape(*v.shape[:-1], -1, self.rows)).reshape(v.shape)

    def lift_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of l_bar z = rhs, solved on the
        node Laplacian: pinv(L (x) I_r) = pinv(L) (x) I_r, so it equals the
        solution on the dense lift at a fraction of the cost."""
        z, _, _, _ = np.linalg.lstsq(self.laplacian, rhs.reshape(-1, self.rows), rcond=None)
        return z.ravel()


def split_offset(c: np.ndarray, topology, policy: str = "first_agent") -> np.ndarray:
    """Blockwise split of the constraint offset; the blocks sum back to c.

    `first_agent` puts all of c in the first canonical block, so the sum is
    exact; `uniform` spreads it evenly over the m+h blocks, so the sum holds
    to roundoff (c / n added n times may differ from c in the last bits).
    """
    c = np.asarray(c, dtype=float)
    order = topology.node_order
    n_nodes = len(order)
    r = c.shape[0]
    out = np.zeros(n_nodes * r)
    if policy == "first_agent":
        out[:r] = c
    elif policy == "uniform":
        for idx in range(n_nodes):
            out[idx * r:(idx + 1) * r] = c / n_nodes
    else:
        raise ValueError(f"unknown offset split policy '{policy}'")
    return out


def decoupled_blocks(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_bar, b_bar, Laplacian) of the scenario in canonical order, which
    read no solver option: held by `scenario.derive` and shared by every
    constraint built for the scenario or its `with_solver` copies."""
    con, lay = scenario.constraint, scenario.layout
    return scenario.derive("decoupled", lambda: (
        block_diagonal([con.a_blocks[i] for i in lay.autonomous_ids]),
        block_diagonal([con.b_blocks[k] for k in lay.human_ids]),
        laplacian(scenario.topology)))


def build_decoupled(scenario: Scenario) -> DecoupledConstraint:
    """Assemble the decoupled constraint for a scenario in canonical order:
    its held `decoupled_blocks`, and the offset split by
    `scenario.solver.offset_split`."""
    con = scenario.constraint
    a_bar, b_bar, lap = decoupled_blocks(scenario)
    c_split = split_offset(con.c, scenario.topology, scenario.solver.offset_split)
    return DecoupledConstraint(
        a_bar=a_bar, b_bar=b_bar, laplacian=lap, c_split=c_split, rows=con.rows,
    )


def coupled_residual(scenario: Scenario, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i A_i x_i + sum_k B_k y_k + c, evaluated from the raw blocks.

    Kept independent of the decoupled assembly so the two act as mutual
    checks. Nonpositive everywhere means feasible.
    """
    lay = scenario.layout
    con = scenario.constraint
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != lay.x_dim or y.shape[0] != lay.y_dim:
        raise DimensionMismatchError(
            f"expected x dim {lay.x_dim} and y dim {lay.y_dim}, "
            f"got {x.shape[0]} and {y.shape[0]}"
        )
    total = con.c.astype(float).copy()
    for i in lay.autonomous_ids:
        total += con.a_blocks[i] @ x[lay.x_slice(i)]
    for k in lay.human_ids:
        total += con.b_blocks[k] @ y[lay.y_slice(k)]
    return total


def stacked_terms(dc: DecoupledConstraint, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[a_bar x ; b_bar y] + c_split, the z-independent part of the residual,
    which the certificate's Laplacian solve reads."""
    return np.concatenate([dc.a_bar @ x, dc.b_bar @ y]) + dc.c_split


def decoupled_residual(
    dc: DecoupledConstraint, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Blockwise residual [a_bar x ; b_bar y] + l_bar z + c_split, added in
    that order: the flow's multiplier gradient (`FlowEngine.rhs`) and the
    KKT read-out of a final state are this one expression."""
    z = np.asarray(z, dtype=float)
    if z.shape[0] != dc.block_dim:
        raise DimensionMismatchError(
            f"z must have length {dc.block_dim}, got {z.shape[0]}"
        )
    return np.concatenate([dc.a_bar @ x, dc.b_bar @ y]) + dc.lift_apply(z) + dc.c_split


def find_certificate_z(
    dc: DecoupledConstraint,
    x: np.ndarray,
    y: np.ndarray,
    coupled_s: np.ndarray,
) -> np.ndarray | None:
    """Recover an auxiliary z certifying the decoupled constraint, if any.

    Returns None when the coupled residual has a positive component (no z can
    exist) or one that is not a number. Otherwise places the full slack
    -coupled_s in the first block and solves l_bar z = -(terms + slack) by
    minimum-norm least squares; the right-hand side lies in the image of
    l_bar by construction, so a solve residual above CERTIFICATE_TOL, or one
    that is not a number, raises `CertificateError`.
    """
    coupled_s = np.asarray(coupled_s, dtype=float)
    if not np.max(coupled_s) <= 0:
        return None
    terms = stacked_terms(dc, x, y)
    slack = np.zeros_like(terms)
    slack[:dc.rows] = -coupled_s
    rhs = -(terms + slack)
    z = dc.lift_solve(rhs)
    solve_gap = float(np.max(np.abs(dc.lift_apply(z) - rhs)))
    if not solve_gap <= CERTIFICATE_TOL:
        raise CertificateError(
            f"Laplacian solve residual {solve_gap:.3g} exceeds {CERTIFICATE_TOL:.0e}; "
            "decoupling invariants are broken upstream"
        )
    return z
