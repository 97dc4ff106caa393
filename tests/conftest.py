"""Shared scenario builders for the test suite."""

import logging
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from hatalloc import NetworkTopology, Scenario, experiments, model, oracle, reformulation
from hatalloc.agents import (
    AutonomousAgentView,
    HumanProxyView,
    _outbox,
    _proxy_coupling,
    agent_round,
)
from hatalloc.dynamics import SystemState, folded_offset, initial_state
from hatalloc.experiments import (
    _BLOCK_FIELDS,
    REJECTIONS,
    TEAM_DIMS,
    TEAM_HUMAN_DIMS,
    _cell_stacks,
    _lay_out,
    _layout,
    _normalize_scale,
    _offset_search,
    _raw_draw,
    _rejection,
    _row,
    _scenario,
    _screen,
    _stability_margins,
    crosscheck_scenario,
    grid_contrasts,
    team_scenario,
)
from hatalloc.human import ApproximationSchedule, HumanResponseModel
from hatalloc.model import (
    CouplingConstraint,
    CustomCost,
    QuadraticCost,
    SolverOptions,
)
from hatalloc.errors import HatallocError
from hatalloc.oracle import interior_point, reduce_stacked, solve_program
from hatalloc.reformulation import build_decoupled
from hatalloc.topology import neighbors

# Hypothesis's own `ci` profile: derandomized, with no example database and
# no deadline, so that every run of the suite draws the same examples.
# `pytest --hypothesis-profile default` searches new ones.
settings.load_profile("ci")


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

    def inbox(self, agent_id):
        """The last message from each neighbor of `agent_id`, as `agent_round`
        takes them."""
        return list(self._by_receiver[agent_id].values())

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
                    new_view, outbox = agent_round(self.views[agent_id], self.inbox(agent_id), dt)
                    self.views[agent_id] = new_view
                    outgoing.extend(outbox)
            self._deliver(outgoing)

    def state(self):
        lay = self.scenario.layout
        w = np.concatenate([*(self.views[i].x for i in lay.autonomous_ids),
                            *(self.views[a].z for a in lay.node_order),
                            *(self.views[a].lam for a in lay.node_order)])
        return SystemState(lay, w, t=max((v.t for v in self.views.values()), default=0.0))


def decoupled_residual_blocks(scenario, dc, x, y, z_blocks):
    """Per-agent residual blocks computed from neighbor differences: the
    reference for `decoupled_residual`, with which it agrees to roundoff.

    Each block uses only the agent's own state and its neighbors' z blocks.
    """
    lay = scenario.layout
    con = scenario.constraint
    out = {}
    for agent_id in lay.node_order:
        auto_nbrs, human_nbrs = neighbors(scenario.topology, agent_id)
        block = np.array(dc.c_split[lay.node_slice(agent_id)])
        if agent_id in lay.x_offsets:
            block += con.a_blocks[agent_id] @ x[lay.x_slice(agent_id)]
        else:
            block += con.b_blocks[agent_id] @ y[lay.y_slice(agent_id)]
        own_z = z_blocks[agent_id]
        for other in auto_nbrs + human_nbrs:
            block += own_z - z_blocks[other]
        out[agent_id] = block
    return out


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
        scenario, dc, lay.parts(state.w)[0], lay.stack_y(y), state.z
    )
    return total + sum(float(state.lam[a] @ blocks[a]) for a in lay.node_order)


TEAM_ATTITUDES = {"h1": ("risk_seeking", 1.0), "h2": ("risk_averse", 1.0)}


def draw_instance(rng, auto_dims, human_dims, attitudes):
    """A generator draw as the validated `Scenario` at offset 0, before any
    admission check, laid out as `_generate` lays it out: in a block, here
    of one draw, whose row the scenario holds."""
    lay = _layout(auto_dims, human_dims)
    draw = _raw_draw(rng, auto_dims, human_dims, attitudes, lay)
    return _scenario(draw, _row(_lay_out([draw]), 0), np.zeros(lay.rows))


def team_draw(attempt, seed=1):
    """Raw draw `attempt` of `team_scenario(seed)`, before any admission check."""
    rng = np.random.default_rng(np.random.SeedSequence([40, seed, attempt]))
    return draw_instance(rng, TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES)


def block_of_one(scenario):
    """The scenario's stack as a block of one draw, the stack shape
    `experiments._cell_stacks` takes: its `_row` 0 is the scenario's stack."""
    sp = scenario.stacked
    return replace(sp, **{name: getattr(sp, name)[None] for name in _BLOCK_FIELDS})


def at_offset(scenario, c):
    """The scenario with the constraint offset c."""
    return replace(scenario, constraint=replace(scenario.constraint, c=c))


def screened_cells(block, lay, models):
    """One draw's attitude cells as `experiments._generate` reads them off a
    block, computed for that draw alone: `block` is a block of one draw and
    `models` its response models. Returns the cells' keys, the draw's own
    cell, the draw's row of the cell stack, the stack of its cells' programs
    reduced at offset 0 (its row of the block's reduction) and the screen's
    grid."""
    keys, own, cells = _cell_stacks(block, lay, [models])
    reduced = reduce_stacked(cells, np.zeros(lay.rows))
    return keys, own, _row(cells, 0), reduced.at(0), _screen(reduced)[0]


def cell_programs(stack):
    """Each program of a stack, such as a draw's row of a block's reduction
    or `reduce_stacked` of a draw's row of its cell stack, on its own."""
    return [stack.at(i) for i in range(len(stack.H))]


def scaled_cells(cells, s, c):
    """The draw's attitude cells that `_rejection` reads, as `_generate`
    reduces them: `cells`, the draw's row of its block's cell stack, with d
    scaled by s, reduced at the tightened offset c scaled by s."""
    return reduce_stacked(replace(cells, d=cells.d * s), c * s)


def generator_stages(draw):
    """What `experiments._generate` hands the scale step and `_rejection`
    for a draw, as a namespace: the tightened scenario, the stack of its
    attitude cells' programs the search solved (`searched`), the draw's row
    of the cells' stack (`cells`), their keys, the index of the draw's own
    cell, the scale factor s, the decoupled constraint and the scaled cells
    (`scaled`); None when the offset screen or search rejects the draw."""
    keys, own, cells, searched, passes = screened_cells(block_of_one(draw), draw.layout,
                                                        draw.human_models)
    if not passes.any():
        return None
    found = _offset_search(searched, passes, Counter())
    if found is None:
        return None
    c, at_c = found
    tightened = at_offset(draw, c)
    dc = build_decoupled(tightened)
    s = _normalize_scale(tightened, searched.at(own), dc, at_c.x[own], at_c.mu[own])
    return SimpleNamespace(tightened=tightened, searched=searched, cells=cells, keys=keys,
                           own=own, s=s, dc=dc, scaled=scaled_cells(cells, s, c))


def scaled_scenario(tightened, s):
    """The tightened draw rebuilt with its offsets and bases scaled by s."""
    con = tightened.constraint
    models = {k: replace(m, base=m.base * s) for k, m in tightened.human_models.items()}
    return replace(tightened, constraint=replace(con, c=con.c * s), human_models=models)


def reduced_objective(rp, x):
    """The reduced program's objective 0.5 x^T H x + g^T x + const at x."""
    return float(0.5 * x @ rp.H @ x + rp.g @ x + rp.const)


def reduced_constraint(rp, x):
    """The reduced program's row levels G_c x + h_c at x."""
    return rp.G_c @ x + rp.h_c


def reference_cell_admissible(rp):
    """Whether one cell's program is admissible at its offset: solvable,
    with multipliers above 1e-2, nonnegative responses and an interior."""
    try:
        _, y, mu, _ = solve_program(rp)
    except HatallocError:
        return False
    return (
        bool(np.all(mu > 1e-2))
        and bool(np.all(y >= 0.0))
        and interior_point(rp) is not None
    )


def reference_offset_search(cells, passes, tally):
    """`experiments._offset_search` one cell at a time, the reference its
    stacked probes are held to: `cells` lists the cells' programs, and each
    probe solves them in order and stops at the first that fails, counting
    every solve in `tally["exact_solves"]`. Returns the offset or None."""
    slack_c = np.array([-1e6, -1e6])
    productions = []
    for cell in cells:
        probe = cell.with_offset(slack_c)
        tally["exact_solves"] += 1
        try:
            x0, _, _, _ = solve_program(probe)
        except HatallocError:
            return None
        # Row levels as G_c x + h_c - c: the float ops of a scenario reduced at c.
        productions.append(-(reduced_constraint(probe, x0) - slack_c)[1])
    for demand, probes in zip(experiments._demands(max(productions)), passes):
        if not probes.any():
            continue
        c_demand = np.array([-1e6, demand])
        usages = []
        for cell in cells:
            probe = cell.with_offset(c_demand)
            tally["exact_solves"] += 1
            try:
                x1, _, mu1, _ = solve_program(probe)
            except HatallocError:
                usages = None
                break
            if mu1[1] <= 1e-2:
                usages = None
                break
            usages.append((reduced_constraint(probe, x1) - c_demand)[0])
        if usages is None or min(usages) <= 0.05:
            continue
        for theta, screened_in in zip(experiments.BUDGET_FRACTIONS, probes):
            if not screened_in:
                continue
            c_try = np.array([-theta * min(usages), demand])
            for cell in cells:
                tally["exact_solves"] += 1
                if not reference_cell_admissible(cell.with_offset(c_try)):
                    break
            else:
                return c_try
    return None


def reference_rejection(scenario, scaled, keys, own, dc, abscissa_bar, check_grid):
    """`experiments._rejection` in the order of the loop it replaced, the
    reference it is held to: `scaled` lists the scaled cells' programs; the
    own cell's checks, then per cell the margins, the solve and the
    responses, then the contrasts."""
    dt = scenario.solver.dt
    rp = scaled[own]
    try:
        _, y, mu, _ = solve_program(rp)
    except HatallocError:
        return "oracle"
    if np.any(mu < 5e-4) or np.any(y < 0.0):
        return "multipliers/responses"
    if interior_point(rp) is None:
        return "Slater"
    abscissa, radius = _stability_margins(rp, dc, dt)
    if abscissa > abscissa_bar or radius > 1.0 - 1e-9:
        return "stability"
    if not check_grid:
        return None
    lay = scenario.layout
    totals = {}
    for cell, (key, cell_rp) in enumerate(zip(keys, scaled)):
        margins = (abscissa, radius) if cell == own else _stability_margins(cell_rp, dc, dt)
        if margins[0] > -0.03 or margins[1] > 1.0 - 1e-9:
            return "grid"
        try:
            x, y, _, value = solve_program(cell_rp)
        except HatallocError:
            return "grid"
        if np.any(y < -1e-9):
            return "grid"
        totals[key] = (sum(float(np.sum(np.abs(x[lay.x_slice(i)])))
                           for i in lay.autonomous_ids), value)
    contrasts = tuple(grid_contrasts(totals).values())
    if contrasts[0] < 5e-3 or contrasts[1] < 2e-4 or contrasts[2] < 2e-4:
        return "grid"
    return None


def reference_generate(seed, auto_dims, human_dims, attitudes, abscissa_bar, check_grid,
                       stream, max_attempts=400):
    """`experiments._generate` one draw at a time, the reference its block
    loop is held to: each attempt is drawn, laid out, reduced and screened
    on its own, and no attempt is drawn past the accepted one. Returns the
    accepted scenario (None when every attempt is rejected), its attempt,
    the rejections by reason, the tally (screened draws, exact solves,
    built draws) and every attempt's screen grid."""
    rejected = dict.fromkeys(REJECTIONS, 0)
    tally, grids = Counter(), []
    lay = _layout(auto_dims, human_dims)
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence([stream, seed, attempt]))
        draw = _raw_draw(rng, auto_dims, human_dims, attitudes, lay)
        block = _lay_out([draw])
        keys, own, cells, searched, passes = screened_cells(block, lay, draw.models)
        grids.append(passes)
        if not passes.any():
            tally["screened"] += 1
            rejected["tighten"] += 1
            continue
        found = _offset_search(searched, passes, tally)
        if found is None:
            rejected["tighten"] += 1
            continue
        c, at_c = found
        tally["built"] += 1
        tightened = _scenario(draw, _row(block, 0), c)
        dc = build_decoupled(tightened)
        s = _normalize_scale(tightened, searched.at(own), dc, at_c.x[own], at_c.mu[own])
        reason = _rejection(tightened, scaled_cells(cells, s, c), keys, own, dc,
                            abscissa_bar, check_grid)
        if reason is None:
            return SimpleNamespace(scenario=scaled_scenario(tightened, s), attempt=attempt,
                                   rejected=rejected, tally=tally, grids=grids)
        rejected[reason] += 1
    return SimpleNamespace(scenario=None, attempt=None, rejected=rejected, tally=tally,
                           grids=grids)


def reference_fold(rp, dc):
    """`dynamics.fold` as it was first written, the reference its flat scans
    are held to: 2-D `np.nonzero` scans of the dense H, of C = [a_bar ;
    b_bar S] and of the node Laplacian, then one `lexsort` by row and
    column. Nonzeros of M in row order (rows, cols, values) and
    b = [b_x ; 0 ; b_g]."""
    n, q, r = rp.H.shape[0], dc.block_dim, dc.rows
    C = np.vstack([dc.a_bar, dc.b_bar @ rp.S])
    hr, hc = np.nonzero(rp.H)
    cr, cc = np.nonzero(C)
    i, j = np.nonzero(dc.laplacian)
    k = np.arange(r)
    lr, lc = (i[:, None] * r + k).ravel(), (j[:, None] * r + k).ravel()
    lv = np.repeat(dc.laplacian[i, j], r)
    rows = np.concatenate([hr, cc, n + lr, n + q + cr, n + q + lr])
    cols = np.concatenate([hc, n + q + cr, n + q + lc, cc, n + lc])
    vals = np.concatenate([-rp.H[hr, hc], -C[cr, cc], -lv, C[cr, cc], lv])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order], folded_offset(rp, dc)


def row_ordered(folded):
    """`fold`'s triplets, in column order, sorted stably by row, with the
    offset b as it is: the reference fold's order when each row's entries
    come in ascending column order, which `assert_rows_ascend` checks."""
    rows, cols, vals, *rest = folded
    order = np.argsort(rows, kind="stable")
    return (rows[order], cols[order], vals[order], *rest)


def assert_rows_ascend(folded):
    """Within every row, the triplets' columns ascend in the order they are
    listed: the order in which `bincount` adds a row's products, the same as
    the row-ordered reference's, so every sum is the reference's."""
    rows, cols = row_ordered(folded)[:2]
    same_row = rows[1:] == rows[:-1]
    assert np.all(cols[1:][same_row] > cols[:-1][same_row])


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


def _recorded_generation(generate, seed):
    """`generate(seed)` with the generator's assembly functions recorded by
    `record_calls`. The public cached generator runs it, so later calls hit
    the cache; a seed that an earlier test module cached already is
    generated again uncached, through `__wrapped__`, to be recorded."""
    log, built, records, searches = [], Counter(), [], []

    def search(cells, passes, tally, _real=experiments._offset_search):
        solves = tally["exact_solves"]
        found = _real(cells, passes, tally)
        searches.append(SimpleNamespace(cells=cells, passes=passes, found=found,
                                        solves=tally["exact_solves"] - solves))
        return found

    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("hatalloc.experiments")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        with pytest.MonkeyPatch.context() as patch:
            record_calls(patch, log, experiments._raw_draw, experiments._lay_out,
                         experiments._screen, experiments._scenario,
                         experiments._normalize_scale, experiments._rejection,
                         model.stack_parts, model.stack_problem,
                         oracle.reduce_program, oracle.reduce_stacked,
                         reformulation.build_decoupled)
            patch.setattr(experiments, "_offset_search", search)
            for cls in (QuadraticCost, Scenario):
                patch.setattr(cls, "__post_init__", lambda self, _real=cls.__post_init__,
                              _name=cls.__name__: built.update([_name])
                              or log.append((_name, (self,), None)) or _real(self))
            misses = generate.cache_info().misses
            scenario = generate(seed)
            if generate.cache_info().misses == misses:
                scenario = generate.__wrapped__(seed)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [record] = records
    return SimpleNamespace(
        scenario=scenario,
        record=record,
        accepted=record.args[1],
        log=log,
        calls=Counter(name for name, _, _ in log),
        built=built,
        draws=[(draw, _row(block, i)) for name, args, block in log if name == "_lay_out"
               for i, draw in enumerate(args[0])],
        grids=[grid for name, _, grids in log if name == "_screen" for grid in grids],
        searches=searches,
        offsets=[None if search.found is None else search.found[0] for search in searches],
        scales=[s for name, _, s in log if name == "_normalize_scale"],
        scaled=[SimpleNamespace(operand=args[0], c=args[1], cells=cells)
                for name, args, cells in log if name == "reduce_stacked" and args[0].S.ndim == 3],
        rejections=[(args, reason) for name, args, reason in log if name == "_rejection"],
        tightened=[(*args[:2], scenario) for name, args, scenario in log
                   if name == "_scenario"],
        reductions=[cells for name, args, cells in log
                    if name == "reduce_stacked" and args[0].S.ndim == 4],
    )


@pytest.fixture(scope="session")
def generation():
    """`team_scenario` 1-9 and `crosscheck_scenario` 1-30, each generated
    once per session and recorded, keyed by seed under `team` and
    `crosscheck`. Per instance: the generated scenario, its one DEBUG record
    and the accepted attempt; the calls of the generator's assembly functions and
    the `QuadraticCost` and `Scenario` constructions, in the order they
    returned (`log`, as `record_calls` records them) and counted; every raw draw it drew
    (up to the end of the accepted draw's block) with its row of its block,
    and its screen grid; each exact search (its cells, screen grid, result
    and the exact solves it counted) and the offsets it took (None when it
    rejected the draw); each tightened draw with the row it was given and
    the `Scenario` built from them; each scale factor s
    (`_normalize_scale`), each scaled reduction (its operand, offset and
    cells) and the arguments of each `_rejection` call with its verdict; and
    the block reductions."""
    return SimpleNamespace(
        team={seed: _recorded_generation(team_scenario, seed) for seed in range(1, 10)},
        crosscheck={seed: _recorded_generation(crosscheck_scenario, seed)
                    for seed in range(1, 31)},
    )


@pytest.fixture
def single_agent():
    return single_agent_scenario()


@pytest.fixture
def path_team():
    return path_scenario()
