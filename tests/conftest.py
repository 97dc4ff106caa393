"""Shared scenario builders for the test suite."""

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hatalloc import NetworkTopology, Scenario
from hatalloc.agents import (
    AutonomousAgentView,
    HumanProxyView,
    _outbox,
    _proxy_coupling,
    agent_round,
)
from hatalloc.dynamics import SystemState, initial_state
from hatalloc.experiments import (
    TEAM_DIMS,
    TEAM_HUMAN_DIMS,
    _cell_stacks,
    _draw_instance,
    _normalize_scale,
    _offset_search,
    _with_offsets,
)
from hatalloc.human import ApproximationSchedule, HumanResponseModel
from hatalloc.model import (
    CouplingConstraint,
    CustomCost,
    QuadraticCost,
    SolverOptions,
)
from hatalloc.oracle import reduce_stacked
from hatalloc.reformulation import build_decoupled, decoupled_residual_blocks
from hatalloc.topology import neighbors


def single_agent_scenario(c=(-1.0,)):
    """One autonomous agent, f(x) = x^2, constraint x + c <= 0."""
    topo = NetworkTopology(("a1",), (), frozenset())
    return Scenario(
        topology=topo,
        dims={"a1": 1},
        costs={"a1": QuadraticCost(np.array([[1.0]]))},
        constraint=CouplingConstraint(
            {"a1": np.array([[1.0]])}, {}, np.array(c, dtype=float)
        ),
        human_models={},
        solver=SolverOptions(),
    )


def free_multiplier_scenario(dt):
    """`single_agent_scenario` with a zero constraint row, started at x = 1.

    The zero row keeps the multiplier out of the dynamics, so the state map
    is exactly x <- (1 - 2 dt) x; |1 - 2 dt| > 1 then grows without the clamp
    nonlinearity capturing it in a cycle.
    """
    scenario = single_agent_scenario().with_solver(dt=dt, max_time=20000.0)
    return replace(
        scenario,
        constraint=CouplingConstraint(
            {"a1": np.array([[0.0]])}, {}, np.array([-1.0])
        ),
        initial_state={"x": {"a1": [1.0]}},
    )


def path_scenario(attitude=0.5, family="affine", beta=6.0):
    """Two autonomous agents and one human on a triangle.

    Hand-tuned so the linearized flow is well damped (spectral abscissa about
    -0.12 at the default step size) and both constraint rows are active at
    the optimum; long-horizon integration tests rely on this.
    """
    topo = NetworkTopology(
        ("a1", "a2"), ("k1",),
        frozenset({("a1", "k1"), ("k1", "a2"), ("a1", "a2")}),
    )
    model = HumanResponseModel(
        human_id="k1",
        neighbor_ids=("a1", "a2"),
        gains={
            "a1": 1.2 * np.array([[0.4, 0.1], [0.2, 0.3]]),
            "a2": 1.2 * np.array([[0.3, 0.2], [0.1, 0.4]]),
        },
        base=np.array([1.0, 0.8]),
        attitude=attitude,
        family=family,
        sharpness=beta,
    )
    return Scenario(
        topology=topo,
        dims={"a1": 2, "a2": 2, "k1": 2},
        costs={
            "a1": QuadraticCost(np.diag([1.0, 2.0])),
            "a2": QuadraticCost(np.diag([1.5, 1.0])),
            "k1": QuadraticCost(np.diag([0.8, 1.2])),
        },
        constraint=CouplingConstraint(
            a_blocks={
                "a1": 2.5 * np.array([[1.0, 0.5], [-0.3, 0.9]]),
                "a2": 2.5 * np.array([[0.8, 1.2], [0.7, -0.8]]),
            },
            b_blocks={"k1": 2.5 * np.array([[1.1, 0.4], [-0.5, 0.9]])},
            c=np.array([-1.0, 1.0]),
        ),
        human_models={"k1": model},
        solver=SolverOptions(),
    )


def human_only_edge_scenario():
    """One autonomous agent and two humans on a path a1 - k1 - k2: k2 has no
    autonomous neighbor, so it exchanges only auxiliary blocks."""
    topo = NetworkTopology(
        ("a1",), ("k1", "k2"),
        frozenset({("a1", "k1"), ("k1", "k2")}),
    )
    models = {
        "k1": HumanResponseModel(
            "k1", ("a1",), {"a1": np.array([[0.3]])},
            np.array([0.5]), 0.5,
        ),
        "k2": HumanResponseModel("k2", (), {}, np.array([0.4]), 0.5),
    }
    return Scenario(
        topology=topo,
        dims={"a1": 1, "k1": 1, "k2": 1},
        costs={a: QuadraticCost(np.array([[1.0]])) for a in topo.node_order},
        constraint=CouplingConstraint(
            {"a1": np.array([[1.0]])},
            {"k1": np.array([[0.5]]), "k2": np.array([[0.5]])},
            np.array([-2.0]),
        ),
        human_models=models,
    )


def with_callback_costs(scenario, quartic=0.0):
    """The scenario with every cost a `CustomCost`: the quadratic v^T W v of
    its own weight, plus `quartic` * sum(v^4) on the autonomous agents."""
    costs = {}
    for a, cost in scenario.costs.items():
        q = quartic if a in scenario.layout.x_offsets else 0.0
        costs[a] = CustomCost(
            cost.dim,
            lambda v, w=cost.weight, q=q: float(v @ w @ v + q * np.sum(v ** 4)),
            lambda v, w=cost.weight, q=q: 2.0 * (w @ v) + 4.0 * q * v ** 3,
        )
    return replace(scenario, costs=costs)


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


def with_schedules(scenario, rng):
    """Every human scheduled: gain deltas on a random subset of its
    neighbors, a base delta, and a settle time under 0.05, 50 steps of
    dt = 1e-3, so that a run of up to 50 steps crosses it or not."""
    schedules = {}
    for k, model in scenario.human_models.items():
        schedules[k] = ApproximationSchedule(
            gain_deltas={j: rng.uniform(-0.2, 0.2, size=g.shape)
                         for j, g in model.gains.items() if rng.random() < 0.7},
            base_delta=rng.uniform(-0.3, 0.3, size=model.dim),
            settle_time=float(rng.uniform(0.0, 0.05)),
        )
    return replace(scenario, schedules=schedules)


class ReferenceRunner:
    """The per-agent wave loop that `DistributedRunner`'s stacked kernel is
    held to, bit for bit: views stepped one at a time with `agent_round`,
    and one mailbox slot per directed edge, indexed by receiver.

    The mailbox starts as the initial views' outboxes. A proxy's snapshot
    holds its autonomous neighbors' initial messages, so the autonomous
    agents post first. Each sweep runs the autonomous wave, delivers, then
    the human wave, and delivers again, visiting the agents in `order`.
    """

    def __init__(self, scenario, dc=None, state=None):
        self.scenario = scenario
        dc = dc if dc is not None else build_decoupled(scenario)
        state = state if state is not None else initial_state(scenario)
        lay = scenario.layout

        def common(a):
            auto_n, human_n = neighbors(scenario.topology, a)
            return dict(
                agent_id=a, z=np.array(state.z[a], dtype=float),
                lam=np.array(state.lam[a], dtype=float), cost=scenario.costs[a],
                c_block=np.array(dc.c_split[lay.node_slice(a)]),
                auto_neighbors=tuple(auto_n), human_neighbors=tuple(human_n), t=state.t,
            )

        self._by_receiver = {a: {} for a in lay.node_order}
        self.views = {}
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
    def mailbox(self):
        """The last message on every directed edge, keyed (sender, receiver)."""
        return {(sender, receiver): msg for receiver, inbox in self._by_receiver.items()
                for sender, msg in inbox.items()}

    def _deliver(self, messages):
        for msg in messages:
            self._by_receiver[msg.receiver][msg.sender] = msg

    def sweep(self, dt, order=None):
        lay = self.scenario.layout
        order = lay.node_order if order is None else _permutation(order, lay.node_order)
        for wave in (lay.x_offsets, lay.y_offsets):
            outgoing = []
            for agent_id in order:
                if agent_id in wave:
                    new_view, outbox = agent_round(
                        self.views[agent_id], list(self._by_receiver[agent_id].values()), dt)
                    self.views[agent_id] = new_view
                    outgoing.extend(outbox)
            self._deliver(outgoing)

    def state(self):
        lay = self.scenario.layout
        return SystemState(
            x={i: np.array(self.views[i].x) for i in lay.autonomous_ids},
            z={a: np.array(self.views[a].z) for a in lay.node_order},
            lam={a: np.array(self.views[a].lam) for a in lay.node_order},
            t=max((v.t for v in self.views.values()), default=0.0),
        )


def resummed_lagrangian(scenario, dc, state):
    """F(x) + G(y) + lambda . (decoupled residual), summed agent by agent.

    Built from the per-agent costs, `Scenario.human_response` and
    `decoupled_residual_blocks`, so it shares no code with `FlowEngine`.
    """
    lay = scenario.layout
    y = {
        k: scenario.human_response(k, state.x, state.t)
        for k in lay.human_ids
    }
    total = sum(scenario.costs[i].value(state.x[i]) for i in lay.autonomous_ids)
    total += sum(scenario.costs[k].value(y[k]) for k in lay.human_ids)
    blocks = decoupled_residual_blocks(
        scenario, dc, lay.stack_x(state.x), lay.stack_y(y), state.z
    )
    return total + sum(float(state.lam[a] @ blocks[a]) for a in lay.node_order)


TEAM_ATTITUDES = {"h1": ("risk_seeking", 1.0), "h2": ("risk_averse", 1.0)}


def team_draw(attempt, seed=1):
    """Raw draw `attempt` of `team_scenario(seed)`, before any admission check."""
    rng = np.random.default_rng(np.random.SeedSequence([40, seed, attempt]))
    return _draw_instance(rng, TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES)


def generator_stages(draw):
    """What `experiments._generate` hands `_rejection` for a draw: the
    tightened scenario, the attitude cells' stacks, the key of the draw's own
    cell, the scale factor s and the decoupled constraint; None when the
    offset search rejects the draw."""
    stacks = _cell_stacks(draw)
    own = next(key for key, cell in stacks.items() if cell is draw.stacked)
    cells = [reduce_stacked(cell, draw.constraint.c) for cell in stacks.values()]
    c = _offset_search(cells, Counter())
    if c is None:
        return None
    tightened = _with_offsets(draw, c)
    dc = build_decoupled(tightened)
    s = _normalize_scale(tightened, reduce_stacked(draw.stacked, c), dc)
    return tightened, stacks, own, s, dc


def scaled_scenario(tightened, s):
    """The tightened draw rebuilt with its offsets and bases scaled by s."""
    bases = {k: m.base * s for k, m in tightened.human_models.items()}
    return _with_offsets(tightened, tightened.constraint.c * s, bases)


def record_calls(monkeypatch, log, *funcs):
    """Patch each of `funcs` under every name a module of the package binds
    it to, so that each call appends (function name, args, result) to `log`
    once it returns."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "hatalloc"]
    for func in funcs:
        def recorded(*args, _func=func, **kwargs):
            result = _func(*args, **kwargs)
            log.append((_func.__name__, args, result))
            return result

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, recorded)


@pytest.fixture
def single_agent():
    return single_agent_scenario()


@pytest.fixture
def path_team():
    return path_scenario()
