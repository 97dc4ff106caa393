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

The coupling term is what an autonomous agent needs from each neighboring
human, and only the proxy can evaluate it: the response depends on *all* of
the human's neighbors, which are not all neighbors of the agent. Within a
wave, updates depend only on an agent's own view and inbox, so execution
order inside a wave cannot change the result.
"""

from __future__ import annotations

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
    the coupling terms it sends are evaluated one wave apart)."""

    agent_id: str
    z: np.ndarray
    lam: np.ndarray
    model: HumanResponseModel
    cost: CostFunction
    b_block: np.ndarray
    c_block: np.ndarray
    auto_neighbors: tuple[str, ...]
    human_neighbors: tuple[str, ...]
    snapshot: dict[str, Message] | None = None
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


def _autonomous_round(view: AutonomousAgentView, inbox, dt):
    msgs = _index_inbox(view, inbox)
    dx = -(view.cost.gradient(view.x) + view.a_block.T @ view.lam)
    for ell in view.human_neighbors:
        coupling = msgs[ell].coupling
        if coupling is None:
            raise MessageProtocolError(
                f"message '{ell}' -> '{view.agent_id}' lacks the coupling term"
            )
        dx = dx - coupling

    dz = np.zeros_like(view.z)
    gap = view.a_block @ view.x + view.c_block
    for other in view.auto_neighbors + view.human_neighbors:
        dz = dz - (view.lam - msgs[other].lam)
        gap = gap + (view.z - msgs[other].z)

    new = replace(
        view,
        x=view.x + dt * dx,
        z=view.z + dt * dz,
        lam=np.maximum(0.0, view.lam + dt * gap),
        t=view.t + dt,
    )
    outbox = []
    for j in new.auto_neighbors:
        outbox.append(Message(sender=new.agent_id, receiver=j, z=new.z, lam=new.lam))
    for ell in new.human_neighbors:
        outbox.append(
            Message(sender=new.agent_id, receiver=ell, z=new.z, lam=new.lam, x=new.x)
        )
    return new, outbox


def _proxy_coupling(view: HumanProxyView, snapshot, lam, t):
    """Coupling vectors J_{k,i}^T (grad g_k(y_k) + B_k^T lambda_k), one per
    autonomous neighbor, at the given snapshot / multiplier / time."""
    x_in = {j: snapshot[j].x for j in view.auto_neighbors}
    y = respond(view.model, x_in, t, view.schedule)
    jac = response_jacobian(view.model, x_in, t, view.schedule)
    w = view.cost.gradient(y) + view.b_block.T @ lam
    return {j: jac[j].T @ w for j in view.auto_neighbors}


def _human_round(view: HumanProxyView, inbox, dt):
    msgs = _index_inbox(view, inbox)
    for j in view.auto_neighbors:
        if msgs[j].x is None:
            raise MessageProtocolError(
                f"message '{j}' -> '{view.agent_id}' lacks the state block"
            )
    # The cached snapshot holds pre-sweep autonomous payloads; a standalone
    # call without one is assumed to receive a pre-step inbox directly.
    snapshot = view.snapshot if view.snapshot is not None else msgs

    # Euler update from pre-sweep values: cached autonomous payloads, fresh
    # human payloads (human neighbors only send once per sweep, in this wave
    # of the previous sweep, so their inbox entries are still pre-sweep).
    x_in = {j: snapshot[j].x for j in view.auto_neighbors}
    y = respond(view.model, x_in, view.t, view.schedule)
    gap = view.b_block @ y + view.c_block
    dz = np.zeros_like(view.z)
    for j in view.auto_neighbors:
        gap = gap + (view.z - snapshot[j].z)
        dz = dz - (view.lam - snapshot[j].lam)
    for ell in view.human_neighbors:
        gap = gap + (view.z - msgs[ell].z)
        dz = dz - (view.lam - msgs[ell].lam)

    fresh = {j: msgs[j] for j in view.auto_neighbors}
    new = replace(
        view,
        z=view.z + dt * dz,
        lam=np.maximum(0.0, view.lam + dt * gap),
        snapshot=fresh,
        t=view.t + dt,
    )
    coupling = _proxy_coupling(new, fresh, new.lam, new.t)
    outbox = []
    for j in new.auto_neighbors:
        outbox.append(
            Message(sender=new.agent_id, receiver=j, z=new.z, lam=new.lam,
                    coupling=coupling[j])
        )
    for ell in new.human_neighbors:
        outbox.append(Message(sender=new.agent_id, receiver=ell, z=new.z, lam=new.lam))
    return new, outbox


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

    def __init__(
        self,
        scenario: Scenario,
        dc: DecoupledConstraint | None = None,
        state: SystemState | None = None,
    ):
        self.scenario = scenario
        self.dc = dc if dc is not None else build_decoupled(scenario)
        state = state if state is not None else initial_state(scenario)
        lay = scenario.layout

        self.views: dict[str, AutonomousAgentView | HumanProxyView] = {}
        for i in lay.autonomous_ids:
            auto_n, human_n = neighbors(scenario.topology, i)
            self.views[i] = AutonomousAgentView(
                agent_id=i,
                x=np.array(state.x[i], dtype=float),
                z=np.array(state.z[i], dtype=float),
                lam=np.array(state.lam[i], dtype=float),
                cost=scenario.costs[i],
                a_block=scenario.constraint.a_blocks[i],
                c_block=np.array(self.dc.c_split[lay.node_slice(i)]),
                auto_neighbors=tuple(auto_n),
                human_neighbors=tuple(human_n),
                t=state.t,
            )
        for k in lay.human_ids:
            auto_n, human_n = neighbors(scenario.topology, k)
            self.views[k] = HumanProxyView(
                agent_id=k,
                z=np.array(state.z[k], dtype=float),
                lam=np.array(state.lam[k], dtype=float),
                model=scenario.human_models[k],
                cost=scenario.costs[k],
                b_block=scenario.constraint.b_blocks[k],
                c_block=np.array(self.dc.c_split[lay.node_slice(k)]),
                auto_neighbors=tuple(auto_n),
                human_neighbors=tuple(human_n),
                schedule=scenario.schedules.get(k),
                t=state.t,
            )

        # Bootstrap mailbox from the initial global state.
        self._by_receiver: dict[str, dict[str, Message]] = {a: {} for a in lay.node_order}
        for i in lay.autonomous_ids:
            view = self.views[i]
            for j in view.auto_neighbors:
                self._post(Message(sender=i, receiver=j, z=view.z, lam=view.lam))
            for ell in view.human_neighbors:
                self._post(
                    Message(sender=i, receiver=ell, z=view.z, lam=view.lam, x=view.x)
                )
        for k in lay.human_ids:
            view = self.views[k]
            snapshot = {j: self._by_receiver[k][j] for j in view.auto_neighbors}
            self.views[k] = replace(view, snapshot=snapshot)
            coupling = _proxy_coupling(view, snapshot, view.lam, view.t)
            for j in view.auto_neighbors:
                self._post(
                    Message(sender=k, receiver=j, z=view.z, lam=view.lam,
                            coupling=coupling[j])
                )
            for ell in view.human_neighbors:
                self._post(Message(sender=k, receiver=ell, z=view.z, lam=view.lam))

    @property
    def mailbox(self) -> dict[tuple[str, str], Message]:
        """The last message on every directed edge, keyed (sender, receiver)."""
        return {(sender, receiver): msg for receiver, inbox in self._by_receiver.items()
                for sender, msg in inbox.items()}

    def _post(self, msg: Message):
        self._by_receiver[msg.receiver][msg.sender] = msg

    def _inbox(self, agent_id: str) -> list[Message]:
        return list(self._by_receiver[agent_id].values())

    def sweep(self, dt: float, order: list[str] | None = None) -> None:
        """One synchronous step of every agent (autonomous wave, human wave)."""
        lay = self.scenario.layout
        order = list(order) if order is not None else list(lay.node_order)
        outgoing = []
        for agent_id in [a for a in order if a in lay.x_offsets]:
            new_view, outbox = agent_round(self.views[agent_id], self._inbox(agent_id), dt)
            self.views[agent_id] = new_view
            outgoing.extend(outbox)
        for msg in outgoing:
            self._post(msg)
        outgoing = []
        for agent_id in [a for a in order if a in lay.y_offsets]:
            new_view, outbox = agent_round(self.views[agent_id], self._inbox(agent_id), dt)
            self.views[agent_id] = new_view
            outgoing.extend(outbox)
        for msg in outgoing:
            self._post(msg)

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
