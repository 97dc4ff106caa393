"""Per-agent execution of the flow over neighbor messages.

Each autonomous agent owns (x_i, z_i, lambda_i) plus its cost and constraint
fragments; each human's virtual proxy owns (z_k, lambda_k) plus the response
model and the human's cost fragment. One synchronous sweep advances every
agent by one Euler step using pre-sweep information only, so a sweep matches
one compact integrator step to roundoff.

A sweep runs in two barrier-separated waves along graph edges:

1. autonomous agents update and send their new (x, z, lambda) blocks;
2. proxies update (from the pre-sweep snapshot they cached last wave),
   then evaluate the workload-coupling term J_{k,i}^T (grad g_k + B_k^T
   lambda_k) at the fresh states and send it with their new blocks.

`agent_round(view, inbox, dt)` is the pure per-agent reference. Both kinds
of round share one skeleton: `_consensus` sums the neighbor differences edge
by edge, and `_outbox` builds every outgoing message.

The coupling term is what an autonomous agent needs from each neighboring
human, and only the proxy can evaluate it: the response depends on *all* of
the human's neighbors, which are not all neighbors of the agent. Within a
wave, updates depend only on an agent's own view and inbox, so execution
order inside a wave cannot change the result.

`DistributedRunner` runs all rounds of a sweep as one stacked wave kernel,
bit for bit `agent_round`. Both waves read only pre-sweep z and lambda; the
proxies respond once per sweep, at the fresh x and t + dt, which is the y
the next sweep's gap needs. Each kind of block product (a batch list and a
transpose flag) is a `_Product` the runner builds in `__init__` and holds:
a call is one gather into its held buffer, one batched `np.matmul` per
block shape into views of a second one, and one scatter. Each neighbor sum
is one ordered `np.add.at`: the agent's own term, then its edge terms in
`_consensus`'s neighbor order, the reference's accumulation order.

The runner's state is its own read-only w = [x, z, lambda], read as the
slices x, z and lambda: it starts from a copy of the given state's w, each
sweep writes a fresh w, and `state()` returns a `SystemState` on a copy. Its
`mailbox` is built from the slices on demand, and stays the same object,
with the same values, until the next sweep. The runner builds no views or
inboxes: to step an agent with `agent_round`, build its view from the
scenario and the state's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .dynamics import SystemState, initial_state
from .errors import MessageProtocolError
from .human import (
    SOFTPLUS_AFFINE,
    ApproximationSchedule,
    HumanResponseModel,
    effective_parameters,
    logistic,
    respond,
    response_jacobian,
    softplus,
)
from .model import CostFunction, QuadraticCost, Scenario
from .reformulation import DecoupledConstraint, build_decoupled
from .topology import neighbors


@dataclass(frozen=True)
class Message:
    """Payload sent along one edge for one wave.

    `x` is present on autonomous-to-human messages; `coupling` on
    human-to-autonomous ones.
    """

    sender: str
    receiver: str
    z: np.ndarray
    lam: np.ndarray
    x: np.ndarray | None = None
    coupling: np.ndarray | None = None


@dataclass(frozen=True)
class AutonomousAgentView:
    """Everything autonomous agent i owns: state blocks and scenario fragments."""

    agent_id: str
    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    cost: CostFunction
    a_block: np.ndarray
    c_block: np.ndarray
    auto_neighbors: tuple[str, ...]
    human_neighbors: tuple[str, ...]
    t: float = 0.0


@dataclass(frozen=True)
class HumanProxyView:
    """Everything human proxy k owns, including the cached pre-sweep snapshot
    of its autonomous neighbors' payloads (needed because its own update and
    the coupling terms it sends are evaluated one wave apart). The snapshot
    is set when the proxy is built."""

    agent_id: str
    z: np.ndarray
    lam: np.ndarray
    model: HumanResponseModel
    cost: CostFunction
    b_block: np.ndarray
    c_block: np.ndarray
    auto_neighbors: tuple[str, ...]
    human_neighbors: tuple[str, ...]
    snapshot: dict[str, Message]
    schedule: ApproximationSchedule | None = None
    t: float = 0.0


def _index_inbox(view, inbox) -> dict[str, Message]:
    """Keep one message per neighbor sender; ignore non-neighbor senders."""
    wanted = set(view.auto_neighbors) | set(view.human_neighbors)
    by_sender = {}
    for msg in inbox:
        if msg.sender in wanted and msg.receiver == view.agent_id:
            by_sender[msg.sender] = msg
    missing = sorted(wanted - set(by_sender))
    if missing:
        raise MessageProtocolError(
            f"agent '{view.agent_id}' is missing messages on edges "
            f"{[(m, view.agent_id) for m in missing]}"
        )
    return by_sender


def _consensus(view, payloads, gap):
    """The neighbor sums of one round, edge by edge over the neighbors in
    order: (-sum_j (lambda - lambda_j), gap + sum_j (z - z_j)), where
    `payloads` maps each neighbor to its message."""
    dz = np.zeros_like(view.z)
    for other in view.auto_neighbors + view.human_neighbors:
        dz = dz - (view.lam - payloads[other].lam)
        gap = gap + (view.z - payloads[other].z)
    return dz, gap


def _outbox(view, coupling=None):
    """The view's z and lambda to every neighbor, plus its x to human
    neighbors (an autonomous sender) or `coupling[j]` to each autonomous
    neighbor j (a proxy)."""
    me, z, lam = view.agent_id, view.z, view.lam
    x = view.x if isinstance(view, AutonomousAgentView) else None
    outbox = []
    for j in view.auto_neighbors:
        outbox.append(Message(me, j, z, lam, coupling=None if coupling is None else coupling[j]))
    for ell in view.human_neighbors:
        outbox.append(Message(me, ell, z, lam, x=x))
    return outbox


def _autonomous_round(view: AutonomousAgentView, inbox, dt):
    msgs = _index_inbox(view, inbox)
    dx = -(view.cost.gradient(view.x) + view.a_block.T @ view.lam)
    for ell in view.human_neighbors:
        coupling = msgs[ell].coupling
        if coupling is None:
            raise MessageProtocolError(
                f"message '{ell}' -> '{view.agent_id}' lacks the coupling term")
        dx = dx - coupling

    dz, gap = _consensus(view, msgs, view.a_block @ view.x + view.c_block)
    new = replace(view, x=view.x + dt * dx, z=view.z + dt * dz,
                  lam=np.maximum(0.0, view.lam + dt * gap), t=view.t + dt)
    return new, _outbox(new)


def _proxy_coupling(view: HumanProxyView):
    """Coupling vectors J_{k,i}^T (grad g_k(y_k) + B_k^T lambda_k), one per
    autonomous neighbor, at the view's snapshot, multiplier and time."""
    x_in = {j: view.snapshot[j].x for j in view.auto_neighbors}
    y = respond(view.model, x_in, view.t, view.schedule)
    jac = response_jacobian(view.model, x_in, view.t, view.schedule)
    w = view.cost.gradient(y) + view.b_block.T @ view.lam
    return {j: jac[j].T @ w for j in view.auto_neighbors}


def _human_round(view: HumanProxyView, inbox, dt):
    msgs = _index_inbox(view, inbox)
    for j in view.auto_neighbors:
        if msgs[j].x is None:
            raise MessageProtocolError(
                f"message '{j}' -> '{view.agent_id}' lacks the state block")

    # Euler update from pre-sweep values: cached autonomous payloads, fresh
    # human payloads (human neighbors only send once per sweep, in this wave
    # of the previous sweep, so their inbox entries are still pre-sweep).
    x_in = {j: view.snapshot[j].x for j in view.auto_neighbors}
    y = respond(view.model, x_in, view.t, view.schedule)
    dz, gap = _consensus(view, {**msgs, **view.snapshot}, view.b_block @ y + view.c_block)
    new = replace(view, z=view.z + dt * dz, lam=np.maximum(0.0, view.lam + dt * gap),
                  snapshot={j: msgs[j] for j in view.auto_neighbors}, t=view.t + dt)
    return new, _outbox(new, _proxy_coupling(new))


def agent_round(view, inbox, dt: float):
    """Advance one agent by one Euler step from its inbox.

    Returns the updated view and the outgoing messages. Pure: a view plus an
    inbox fully determine the result, so all agents of one wave may run
    concurrently in any order.
    """
    if isinstance(view, AutonomousAgentView):
        return _autonomous_round(view, inbox, dt)
    if isinstance(view, HumanProxyView):
        return _human_round(view, inbox, dt)
    raise TypeError(f"not an agent view: {type(view)!r}")


class DistributedRunner:
    """Synchronous execution of all agents as one stacked wave kernel.

    Holds its own w = [x, z, lambda] (see the module docstring), with the
    proxies' last responses y and coupling terms; a sweep is one Jacobi step.
    The proxies respond under the scenario's own approximation schedules.
    """

    def __init__(self, scenario: Scenario, dc: DecoupledConstraint | None = None,
                 state: SystemState | None = None):
        self.scenario = scenario
        self.dc = dc if dc is not None else build_decoupled(scenario)
        state = state if state is not None else initial_state(scenario)
        lay, con, models = scenario.layout, scenario.constraint, scenario.human_models
        dims, xo, yo, humans = lay.dims, lay.x_offsets, lay.y_offsets, lay.human_ids
        node = {a: n * con.rows for n, a in enumerate(lay.node_order)}
        self._nbrs = {a: tuple(sum(neighbors(scenario.topology, a), [])) for a in lay.node_order}
        pairs = [(node[a], node[b]) for a in lay.node_order for b in self._nbrs[a]]
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        self._recv, self._send = ((p[:, None] + np.arange(con.rows)).ravel() for p in pairs.T)
        a = [_batch(g, con.a_blocks.get, node.get, xo.get)
             for g in _groups(lay.autonomous_ids, dims.get)]
        b = [_batch(g, con.b_blocks.get, node.get, yo.get) for g in _groups(humans, dims.get)]
        self._ax, self._at_lam = _Product(a), _Product(a, transposed=True)
        self._by, self._bt_lam = _Product(b), _Product(b, transposed=True)
        self._wx = _cost_blocks(lay.autonomous_ids, scenario.costs, xo, dims)
        self._wy = _cost_blocks(humans, scenario.costs, yo, dims)

        # Coupling terms k -> i, ordered by receiver and then by its human
        # neighbors; pre-activation terms of gain edges (k, j), by k and then j.
        into = [(k, i) for i in lay.autonomous_ids for k in self._nbrs[i] if k in yo]
        ends = list(accumulate([dims[i] for _, i in into], initial=0))
        cpl = dict(zip(into, ends))
        self._cpl_slice = {e: slice(s, s + dims[e[1]]) for e, s in cpl.items()}
        edges = [(k, j) for k in humans for j in models[k].neighbor_ids]
        term = dict(zip(edges, accumulate([dims[k] for k, _ in edges], initial=0)))
        self._alpha = np.array([models[k].attitude for k, _ in edges for _ in range(dims[k])])
        groups = _groups(edges, lambda e: (dims[e[0]], dims[e[1]]))
        self._at = {e: (n, m) for n, group in enumerate(groups) for m, e in enumerate(group)}
        gain = [_batch(g, lambda e: models[e[0]].gains[e[1]], term.get, lambda e: xo[e[1]])
                for g in groups]
        jac = [_batch(g, lambda e: models[e[0]].attitude * models[e[0]].gains[e[1]],
                      lambda e: yo[e[0]], cpl.get) for g in groups]
        self._gain, self._jac = _Product(gain), _Product(jac, transposed=True)
        self._jac_rows = [yk for _, yk, _ in jac]
        self._terms_at = np.zeros(self._alpha.size, dtype=np.intp)
        self._cpl_at = np.zeros(ends[-1], dtype=np.intp)
        for (_, terms, xj), (_, yk, cpl_pos) in zip(gain, jac):
            self._terms_at[terms], self._cpl_at[cpl_pos] = yk, xj
        soft = [(yo[k] + n, models[k].sharpness) for k in humans for n in range(dims[k])
                if models[k].family == SOFTPLUS_AFFINE]
        self._soft = np.array([row for row, _ in soft], dtype=np.intp)
        self._beta = np.array([beta for _, beta in soft])
        self._base = np.concatenate([np.zeros(0), *(models[k].base for k in humans)])
        self._c = np.array(self.dc.c_split)
        self._advance(state.w.copy(), state.t)

    def _advance(self, w, t):
        """Make (w, t) the state, and have the proxies respond there."""
        w.flags.writeable = False
        self._w, self._t = w, t
        self._x, self._z, self._lam = self.scenario.layout.parts(w)
        self._y, self._cpl = self._respond()
        self._mail = None

    def _respond(self):
        """Every y_k and coupling term J_{k,j}^T (grad g_k(y_k) + B_k^T lambda_k)
        at the current state, computed as `_proxy_coupling` computes them."""
        gain, jac, base, sc = self._gain.mats, self._jac.mats, self._base, self.scenario
        live = [k for k, s in sc.schedules.items() if s.blend(self._t) != 0.0]
        if live:  # the blended parameters, from `effective_parameters` itself
            gain, jac, base = [G.copy() for G in gain], [J.copy() for J in jac], base.copy()
            for k in live:
                model, schedule = sc.human_models[k], sc.schedules[k]
                gains, base[sc.layout.y_slice(k)] = effective_parameters(model, self._t, schedule)
                for j in model.neighbor_ids:
                    n, m = self._at[k, j]
                    gain[n][m], jac[n][m] = gains[j], model.attitude * gains[j]
        pre = base.copy()
        terms = self._gain(self._x, np.zeros(self._alpha.size), gain)
        np.add.at(pre, self._terms_at, self._alpha * terms)
        y = pre
        if self._soft.size:
            u, y, sig = pre[self._soft], pre.copy(), np.ones(pre.size)
            y[self._soft], sig[self._soft] = softplus(u, self._beta), logistic(u, self._beta)
            jac = [sig[rows][..., None] * J for J, rows in zip(jac, self._jac_rows)]
        w = _gradient(*self._wy, y) + self._bt_lam(self._lam, np.zeros(y.size))
        return y, self._jac(w, np.zeros(self._cpl_at.size), jac)

    @property
    def mailbox(self) -> dict[tuple[str, str], Message]:
        """The last message on every directed edge, keyed (sender, receiver),
        receivers in layout order and each one's senders in neighbor order."""
        if self._mail is None:
            lay, self._mail = self.scenario.layout, {}
            for a in lay.node_order:
                for b in self._nbrs[a]:
                    s = lay.node_slice(b)
                    to_human = b in lay.x_offsets and a in lay.y_offsets
                    x = self._x[lay.x_slice(b)] if to_human else None
                    cpl = self._cpl[self._cpl_slice[b, a]] if (b, a) in self._cpl_slice else None
                    self._mail[b, a] = Message(b, a, self._z[s], self._lam[s], x=x, coupling=cpl)
        return self._mail

    def sweep(self, dt: float) -> None:
        """One synchronous step of every agent (autonomous wave, human wave)."""
        x, z, lam, recv, send = self._x, self._z, self._lam, self._recv, self._send
        dx = -(_gradient(*self._wx, x) + self._at_lam(lam, np.zeros(x.size)))
        np.subtract.at(dx, self._cpl_at, self._cpl)
        gap = self._by(self._y, self._ax(x, np.zeros(z.size)))
        gap += self._c
        np.add.at(gap, recv, z[recv] - z[send])
        dz = np.zeros(z.size)
        np.subtract.at(dz, recv, lam[recv] - lam[send])
        w = np.empty(self._w.size)
        new_x, new_z, new_lam = self.scenario.layout.parts(w)
        new_x[:], new_z[:], new_lam[:] = x + dt * dx, z + dt * dz, np.maximum(0.0, lam + dt * gap)
        self._advance(w, self._t + dt)

    def state(self) -> SystemState:
        """The current state, on a copy of the runner's w."""
        return SystemState(self.scenario.layout, self._w.copy(), self._t)


def _groups(items, key) -> list[list]:
    """`items` grouped by `key`, in order of first appearance."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.values())


def _batch(members, block, row, col):
    """(M, rows, cols) for the equal-shape blocks `block(e)`: the stacked
    blocks and the flat positions of each block's row and column space."""
    mats = np.array([block(e) for e in members])
    _, m, n = mats.shape
    starts = np.array([(row(e), col(e)) for e in members], dtype=np.intp)
    return mats, starts[:, :1] + np.arange(m), starts[:, 1:] + np.arange(n)


class _Product:
    """One kind of block product of a sweep, over the batches (M, rows, cols)
    of `_batch`: out[rows_e] = M_e @ v[cols_e] for every block of every
    batch, or out[cols_e] = M_e^T @ v[rows_e] if `transposed`.

    Its plan is built once: one gather index over every batch, an input and
    an output buffer with a view per batch, and one scatter index. A call
    gathers v into the input buffer with one `take`, runs one batched
    `np.matmul` per block shape into the output views, and scatters the
    output with one assignment; the positions it writes are distinct. The
    transpose stays a strided view, and the value objects store their blocks
    C-ordered: so each item runs the BLAS call of `M @ v` or `M.T @ v` on one
    block, bit for bit. `mats` holds the batches' blocks; a call may pass
    other blocks of the same shapes (blended or scaled ones)."""

    def __init__(self, batches, transposed=False):
        self.mats = [mats for mats, _, _ in batches]
        self._transposed = transposed
        self._operands = self._operands_of(self.mats)
        ends = [(rows, cols) if transposed else (cols, rows) for _, rows, cols in batches]
        none = np.empty(0, dtype=np.intp)
        self._gather = np.concatenate([none] + [src.ravel() for src, _ in ends])
        self._scatter = np.concatenate([none] + [dst.ravel() for _, dst in ends])
        self._in, self._out = np.empty(self._gather.size), np.empty(self._scatter.size)
        # Batch e's (k, n) inputs and (k, m) outputs, as (k, n, 1) and (k, m, 1).
        at_in = list(accumulate([src.size for src, _ in ends], initial=0))
        at_out = list(accumulate([dst.size for _, dst in ends], initial=0))
        self._views = [(self._in[at_in[e]:at_in[e + 1]].reshape(*src.shape, 1),
                        self._out[at_out[e]:at_out[e + 1]].reshape(*dst.shape, 1))
                       for e, (src, dst) in enumerate(ends)]

    def _operands_of(self, mats):
        return [M.transpose(0, 2, 1) for M in mats] if self._transposed else mats

    def __call__(self, v, out, mats=None):
        # Every index is in range: "clip" only spares `take` buffering its out.
        v.take(self._gather, out=self._in, mode="clip")
        operands = self._operands if mats is None else self._operands_of(mats)
        for M, (src, dst) in zip(operands, self._views):
            np.matmul(M, src, out=dst)
        out[self._scatter] = self._out
        return out


def _cost_blocks(ids, costs, start, dims):
    """The quadratic costs' weights as one `_Product`; the callback costs, sliced."""
    quadratic = dict.fromkeys(a for a in ids if isinstance(costs[a], QuadraticCost))
    custom = [(slice(start[a], start[a] + dims[a]), costs[a]) for a in ids if a not in quadratic]
    return _Product([_batch(g, lambda a: costs[a].weight, start.get, start.get)
                     for g in _groups(quadratic, dims.get)]), custom


def _gradient(quadratic, custom, v):
    """Every cost's gradient on its slice of v: 2.0 * (W @ v) per quadratic
    block, as `QuadraticCost.gradient`, and one call per callback cost."""
    g = 2.0 * quadratic(v, np.zeros(v.size))
    for s, cost in custom:
        g[s] = cost.gradient(v[s])
    return g

