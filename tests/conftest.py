"""Shared scenario builders for the test suite."""

from dataclasses import replace

import numpy as np
import pytest

from hatalloc import NetworkTopology, Scenario
from hatalloc.human import HumanResponseModel
from hatalloc.model import CouplingConstraint, QuadraticCost, SolverOptions
from hatalloc.reformulation import decoupled_residual_blocks


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


@pytest.fixture
def single_agent():
    return single_agent_scenario()


@pytest.fixture
def path_team():
    return path_scenario()
