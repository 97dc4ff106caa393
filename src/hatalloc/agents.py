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

Both rounds share one skeleton: `_consensus` sums the neighbor differences
edge by edge, and `_outbox` builds every outgoing message. A proxy's snapshot
is set when it is built, and the runner's mailbox starts as the initial
views' outboxes.

The coupling term is what an autonomous agent needs from each neighboring
human, and only the proxy can evaluate it: the response depends on *all* of
the human's neighbors, which are not all neighbors of the agent. Within a
wave, updates depend only on an agent's own view and inbox, so execution
order inside a wave cannot change the result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SystemState, initial_state
from .errors import MessageProtocolError
from .human import ApproximationSchedule, HumanResponseModel, respond, response_jacobian
from .model import CostFunction, Scenario
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
    is set when the proxy is built; `DistributedRunner` builds it."""

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
    """Synchronous barrier-stepped execution of all agents.

    Maintains one mailbox slot per directed edge, indexed by receiver so
    that collecting an inbox costs the agent's degree, not the edge count.
    Each sweep runs the autonomous wave, delivers, then the human wave, and
    delivers again. Human proxies respond under the scenario's own
    approximation schedules (`scenario.schedules`).
    """

    def __init__(self, scenario: Scenario, dc: DecoupledConstraint | None = None,
                 state: SystemState | None = None):
        self.scenario = scenario
        self.dc = dc if dc is not None else build_decoupled(scenario)
        state = state if state is not None else initial_state(scenario)
        lay = scenario.layout

        def common(a):
            auto_n, human_n = neighbors(scenario.topology, a)
            return dict(
                agent_id=a, z=np.array(state.z[a], dtype=float),
                lam=np.array(state.lam[a], dtype=float), cost=scenario.costs[a],
                c_block=np.array(self.dc.c_split[lay.node_slice(a)]),
                auto_neighbors=tuple(auto_n), human_neighbors=tuple(human_n), t=state.t,
            )

        # The mailbox starts as the initial views' outboxes. A proxy's
        # snapshot holds its autonomous neighbors' initial messages, so the
        # autonomous agents post first.
        self._by_receiver: dict[str, dict[str, Message]] = {a: {} for a in lay.node_order}
        self.views: dict[str, AutonomousAgentView | HumanProxyView] = {}
        for i in lay.autonomous_ids:
            view = self.views[i] = AutonomousAgentView(
                **common(i), x=np.array(state.x[i], dtype=float),
                a_block=scenario.constraint.a_blocks[i],
            )
            self._deliver(_outbox(view))
        for k in lay.human_ids:
            own = common(k)
            view = self.views[k] = HumanProxyView(
                **own, model=scenario.human_models[k], b_block=scenario.constraint.b_blocks[k],
                snapshot={j: self._by_receiver[k][j] for j in own["auto_neighbors"]},
                schedule=scenario.schedules.get(k),
            )
            self._deliver(_outbox(view, _proxy_coupling(view)))

    @property
    def mailbox(self) -> dict[tuple[str, str], Message]:
        """The last message on every directed edge, keyed (sender, receiver)."""
        return {(sender, receiver): msg for receiver, inbox in self._by_receiver.items()
                for sender, msg in inbox.items()}

    def _deliver(self, messages):
        for msg in messages:
            self._by_receiver[msg.receiver][msg.sender] = msg

    def _inbox(self, agent_id: str) -> list[Message]:
        return list(self._by_receiver[agent_id].values())

    def sweep(self, dt: float, order: list[str] | None = None) -> None:
        """One synchronous step of every agent (autonomous wave, human wave).
        `order` must list every agent once; it cannot change the result."""
        lay = self.scenario.layout
        order = lay.node_order if order is None else _permutation(order, lay.node_order)
        for wave in (lay.x_offsets, lay.y_offsets):
            outgoing = []
            for agent_id in order:
                if agent_id in wave:
                    new_view, outbox = agent_round(
                        self.views[agent_id], self._inbox(agent_id), dt)
                    self.views[agent_id] = new_view
                    outgoing.extend(outbox)
            self._deliver(outgoing)

    def run(self, n_sweeps: int, dt: float) -> SystemState:
        for _ in range(n_sweeps):
            self.sweep(dt)
        return self.state()

    def state(self) -> SystemState:
        lay = self.scenario.layout
        x = {i: np.array(self.views[i].x) for i in lay.autonomous_ids}
        z = {a: np.array(self.views[a].z) for a in lay.node_order}
        lam = {a: np.array(self.views[a].lam) for a in lay.node_order}
        t = max((v.t for v in self.views.values()), default=0.0)
        return SystemState(x=x, z=z, lam=lam, t=t)


def _permutation(order, agents) -> list[str]:
    """`order` as a list; ValueError unless it lists every agent exactly once."""
    order = list(order)
    counts = Counter(order)
    problems = [f"{kind} {ids}" for kind, ids in (
        ("duplicate", sorted(a for a, n in counts.items() if n > 1)),
        ("missing", sorted(set(agents) - set(counts))),
        ("unknown", sorted(set(counts) - set(agents))),
    ) if ids]
    if problems:
        raise ValueError("sweep order is not a permutation of the agents: "
                         + "; ".join(problems))
    return order
