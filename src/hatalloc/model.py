"""Problem instances: costs, the coupled constraint, and scenario documents.

A scenario bundles the interaction graph, per-agent state dimensions and
costs, the shared linear inequality coupling every agent, the human response
models with their schedules, an optional initial state, and solver options.
`Scenario.__post_init__` is the one semantic check of all of it, for documents
and code alike; a `Scenario` is frozen, and `dataclasses.replace` checks the
changed copy again. `Scenario.derive` is the one place that holds what is
built once from a scenario: its read-only `stacked` operators, the oracle's
reduction, the decoupled blocks and the flow's folded M, each built on first
use. A copy from `with_solver` shares the held dict, made before or after
anything is built, since nothing held reads the solver options; any other
copy, one with a new offset c too, builds its own. `stack_problem`'s layout
loop, `stack_parts`, also runs on raw parts that nothing has validated: the
generator lays out each draw with it in a block of draws, and a scenario
built from a draw it keeps holds the draw's row of that block as its stack.
The document parser checks only JSON types: it reads every number or
number array with one reader, `_as_array`, at the rank it is written, and
passes each edge and each agent's dim on as read. Every other rule is
checked once, by the object that owns it, when that object is built from a
document or in code: finiteness, and each value's rank and kind. A cost
weight is a nonempty matrix, constraint blocks are matrices and the offset c
a vector, and every agent's dim is an integer >= 1, not a boolean
(`DimensionMismatchError`); a model's base and a schedule's base delta are
vectors and gains and gain deltas matrices (`ValueError`); an edge is a pair
of agent ids (`TopologyError`). A scalar or a vector given for a matrix is
read as a matrix of one row, from a document as in code. The value objects
refuse non-finite entries, each with the error it raises for its other faults:
`QuadraticCost` (weight) and `CouplingConstraint` (blocks and c) raise a
`ScenarioFormatError`, `HumanResponseModel` (gains and base) and
`ApproximationSchedule` (deltas) a `ValueError`. A document's error names
its place once, as in `cost for 'r1': cost weight entries must be finite`,
`schedule 'h1': schedule delta for 'r1' must be finite` or
`initial_state.x['r1'] is not finite`. A model names itself in each of its
errors, from a document or from code (`model 'h1': gain blocks [] do not
match neighbor list ['r1', 'r2', 'r5']`), and a document's model for an id
that is no human fails with `Scenario`'s rule, `response models for unknown
humans ['zz']`.
`scenario_text` writes a document's text, `json.dumps(tree, indent=2)` byte
for byte, and is the one definition of its layout: `serialize_scenario`
parses that text back into the tree. Floats survive a save/load round trip
bit-exactly. Files are read by `oracle.load_scenario`, since a document may
ask for a Slater certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Callable

import numpy as np

from . import human as human_mod
from .errors import (
    DimensionMismatchError,
    MissingHumanModelError,
    NotPositiveDefiniteError,
    ScenarioFormatError,
)
from .human import ApproximationSchedule, HumanResponseModel, attitude_preset
from .topology import NetworkTopology, neighbors

SYMMETRY_TOL = 1e-12
MIN_EIGENVALUE = 1e-10


@dataclass(frozen=True)
class QuadraticCost:
    """Cost x^T W x with W symmetric positive definite."""

    weight: np.ndarray

    def __post_init__(self):
        w = np.atleast_2d(np.ascontiguousarray(self.weight, dtype=float))
        object.__setattr__(self, "weight", w)
        if w.ndim != 2:
            raise DimensionMismatchError(f"cost weight must be a matrix, got shape {w.shape}")
        if w.shape[0] != w.shape[1]:
            raise DimensionMismatchError(f"cost weight must be square, got {w.shape}")
        if w.size == 0:
            raise DimensionMismatchError("cost weight must not be empty")
        if not np.isfinite(w).all():
            raise NotPositiveDefiniteError("cost weight entries must be finite")
        if np.max(np.abs(w - w.T)) > SYMMETRY_TOL:
            raise NotPositiveDefiniteError("cost weight is not symmetric")
        if np.min(np.linalg.eigvalsh(w)) <= MIN_EIGENVALUE:
            raise NotPositiveDefiniteError("cost weight is not positive definite")

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    def value(self, v: np.ndarray) -> float:
        return float(v @ self.weight @ v)

    def gradient(self, v: np.ndarray) -> np.ndarray:
        return 2.0 * (self.weight @ v)


@dataclass(frozen=True)
class CustomCost:
    """Convex differentiable cost given by callbacks.

    Convexity and gradient correctness are declared contracts; the `check`
    tooling spot-verifies both by sampling.
    """

    dim: int
    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]

    def value(self, v: np.ndarray) -> float:
        return float(self.value_fn(v))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradient_fn(v), dtype=float)


CostFunction = QuadraticCost | CustomCost


@dataclass(frozen=True)
class CouplingConstraint:
    """Shared inequality sum_i A_i x_i + sum_k B_k y_k + c <= 0."""

    a_blocks: dict[str, np.ndarray]
    b_blocks: dict[str, np.ndarray]
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        a, b = ({i: np.atleast_2d(np.ascontiguousarray(m, dtype=float)) for i, m in blocks.items()}
                for blocks in (self.a_blocks, self.b_blocks))
        object.__setattr__(self, "a_blocks", a)
        object.__setattr__(self, "b_blocks", b)
        if self.c.ndim != 1:
            raise DimensionMismatchError(
                f"constraint offset c must be a vector, got shape {self.c.shape}")
        r = self.c.shape[0]
        if r < 1:
            raise DimensionMismatchError("constraint needs at least one row")
        if not np.isfinite(self.c).all():
            raise DimensionMismatchError("constraint offset c entries must be finite")
        for agent_id, block in list(a.items()) + list(b.items()):
            if block.ndim != 2:
                raise DimensionMismatchError(f"constraint block for '{agent_id}' must be a "
                                             f"matrix, got shape {block.shape}")
            if block.shape[0] != r:
                raise DimensionMismatchError(
                    f"constraint block for '{agent_id}' has {block.shape[0]} rows, "
                    f"expected {r}"
                )
            if not np.isfinite(block).all():
                raise DimensionMismatchError(f"constraint block for '{agent_id}' must be finite")

    @property
    def rows(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class SolverOptions:
    """Integrator and bookkeeping knobs for the saddle-point flow."""

    dt: float = 1e-3
    max_time: float = 200.0
    tolerance: float = 1e-6
    offset_split: str = "first_agent"
    record_stride: int = 100
    check_slater: bool = False

    def __post_init__(self):
        for name, strict in (("dt", True), ("max_time", True), ("tolerance", False)):
            value = getattr(self, name)
            number = isinstance(value, Real) and not isinstance(value, bool)  # JSON true
            if number and not _fits_float(value):
                raise ValueError(f"{name} is an integer too large for a float")
            if not (number and math.isfinite(value) and (value > 0 if strict else value >= 0)):
                bound = "positive" if strict else "nonnegative"
                raise ValueError(f"{name} must be {bound} and finite: {value!r}")
        half = self.dt / 2.0  # the step of the run's one retry
        if not (half > 0.0 and math.isfinite(self.max_time / half)):
            raise ValueError(f"max_time / dt must be finite at dt and dt / 2: "
                             f"{self.max_time!r} / {self.dt!r}")
        if self.offset_split not in ("first_agent", "uniform"):
            raise ValueError(f"unknown offset split policy '{self.offset_split}'")
        stride = self.record_stride
        if isinstance(stride, bool) or not isinstance(stride, Integral) or stride < 1:
            raise ValueError(f"record_stride must be an integer >= 1: {stride!r}")
        if not isinstance(self.check_slater, bool):
            raise ValueError(f"check_slater must be a boolean: {self.check_slater!r}")


class ScenarioLayout:
    """Index bookkeeping for stacked vectors in canonical agent order: the
    autonomous ids, then the human ids, each sorted as `NetworkTopology`
    stores them."""

    def __init__(self, autonomous_ids: tuple[str, ...], human_ids: tuple[str, ...],
                 dims: dict[str, int], rows: int):
        self.autonomous_ids = autonomous_ids
        self.human_ids = human_ids
        self.node_order = autonomous_ids + human_ids
        self.rows = rows
        self.node_index = {a: i for i, a in enumerate(self.node_order)}
        self.x_offsets: dict[str, int] = {}
        self.y_offsets: dict[str, int] = {}
        off = 0
        for i in self.autonomous_ids:
            self.x_offsets[i] = off
            off += dims[i]
        self.x_dim = off
        off = 0
        for k in self.human_ids:
            self.y_offsets[k] = off
            off += dims[k]
        self.y_dim = off
        self.dims = dict(dims)
        self.block_dim = rows * len(self.node_order)

    def x_slice(self, agent_id: str) -> slice:
        start = self.x_offsets[agent_id]
        return slice(start, start + self.dims[agent_id])

    def y_slice(self, agent_id: str) -> slice:
        start = self.y_offsets[agent_id]
        return slice(start, start + self.dims[agent_id])

    def node_slice(self, agent_id: str) -> slice:
        """Slice of an agent's r-block inside a stacked (z or multiplier) vector."""
        start = self.node_index[agent_id] * self.rows
        return slice(start, start + self.rows)

    def parts(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, lambda) of stacked states w = [x, z, lambda]: views along
        w's last axis."""
        n, q = self.x_dim, self.block_dim
        return w[..., :n], w[..., n:n + q], w[..., n + q:]


@dataclass(frozen=True)
class Scenario:
    """A fully validated problem instance, whether loaded from a document or
    built in code. Frozen: `dataclasses.replace` makes a changed copy, and
    validates it again."""

    topology: NetworkTopology
    dims: dict[str, int]
    costs: dict[str, CostFunction]
    constraint: CouplingConstraint
    human_models: dict[str, HumanResponseModel]
    solver: SolverOptions = field(default_factory=SolverOptions)
    schedules: dict[str, ApproximationSchedule] = field(default_factory=dict)
    initial_state: dict | None = None

    def __post_init__(self):
        topo = self.topology
        all_ids = set(topo.node_order)
        for agent_id in topo.node_order:
            if agent_id not in self.dims:
                raise ScenarioFormatError(f"agent '{agent_id}' has no declared dim")
            dim = self.dims[agent_id]
            if isinstance(dim, bool) or not isinstance(dim, Integral):
                raise DimensionMismatchError(f"agent '{agent_id}' has dim {dim!r}, not an integer")
            if dim < 1:
                raise DimensionMismatchError(f"agent '{agent_id}' has dim < 1")
            if agent_id not in self.costs:
                raise ScenarioFormatError(f"agent '{agent_id}' has no cost")
        for section in ("dims", "costs"):
            extra = set(getattr(self, section)) - all_ids
            _require(not extra, f"{section} declared for unknown agents {sorted(extra)}")

        for agent_id, cost in self.costs.items():
            if cost.dim != self.dims[agent_id]:
                raise DimensionMismatchError(
                    f"cost for '{agent_id}' has dim {cost.dim}, agent dim is "
                    f"{self.dims[agent_id]}"
                )

        con = self.constraint
        if set(con.a_blocks) != set(topo.autonomous_ids):
            raise DimensionMismatchError(
                "constraint a_blocks must cover exactly the autonomous agents"
            )
        if set(con.b_blocks) != set(topo.human_ids):
            raise DimensionMismatchError(
                "constraint b_blocks must cover exactly the human agents"
            )
        for agent_id, block in list(con.a_blocks.items()) + list(con.b_blocks.items()):
            if block.shape[1] != self.dims[agent_id]:
                raise DimensionMismatchError(
                    f"constraint block for '{agent_id}' has {block.shape[1]} "
                    f"columns, agent dim is {self.dims[agent_id]}"
                )

        for k in topo.human_ids:
            if k not in self.human_models:
                raise MissingHumanModelError(f"human '{k}' has no response model")
            model = self.human_models[k]
            auto_nbrs, _ = neighbors(topo, k)
            if tuple(model.neighbor_ids) != tuple(auto_nbrs):
                raise ScenarioFormatError(
                    f"model for '{k}' lists neighbors {list(model.neighbor_ids)}, "
                    f"topology says {auto_nbrs}"
                )
            if model.dim != self.dims[k]:
                raise DimensionMismatchError(
                    f"model for '{k}' outputs dim {model.dim}, agent dim is "
                    f"{self.dims[k]}"
                )
            for j in model.neighbor_ids:
                if model.gains[j].shape[1] != self.dims[j]:
                    raise DimensionMismatchError(
                        f"model for '{k}': gain block for '{j}' has "
                        f"{model.gains[j].shape[1]} columns, agent dim is {self.dims[j]}"
                    )
        for label, keyed in (("response models", self.human_models),
                             ("schedules", self.schedules)):
            extra = set(keyed) - set(topo.human_ids)
            _require(not extra, f"{label} for unknown humans {sorted(extra)}")
        for k, sched in self.schedules.items():
            model = self.human_models[k]
            for j, delta in sched.gain_deltas.items():
                _require(j in model.gains, f"schedule '{k}': gain delta for '{j}', which is "
                         f"not an autonomous neighbor (neighbors {list(model.neighbor_ids)})")
                _require(np.shape(delta) == model.gains[j].shape, f"schedule '{k}' gain "
                         f"delta for '{j}' has shape {np.shape(delta)}, the gain has "
                         f"{model.gains[j].shape}")
            _require(sched.base_delta.shape == (model.dim,), f"schedule '{k}' base delta "
                     f"has {sched.base_delta.size} entries, the human's dim is {model.dim}")

        object.__setattr__(self, "layout", ScenarioLayout(
            topo.autonomous_ids, topo.human_ids, self.dims, con.rows))
        object.__setattr__(self, "_derived", {})  # what `derive` holds, by key
        start = self.initial_state
        if start is None:
            return
        _require(
            isinstance(start, dict) and set(start) <= {"x", "z", "lambda"}
            and all(isinstance(section, dict) for section in start.values()),
            "initial_state must map 'x', 'z' or 'lambda' to per-agent vectors",
        )
        shapes = {"x": {i: (int(self.dims[i]),) for i in topo.autonomous_ids},
                  "z": dict.fromkeys(topo.node_order, (con.rows,))}
        shapes["lambda"] = shapes["z"]
        for key in shapes:
            for agent_id, raw in start.get(key, {}).items():
                name = f"initial_state.{key}['{agent_id}']"
                _require(agent_id in shapes[key],
                         f"initial_state.{key}: unknown agent '{agent_id}'")
                vec = _as_array(raw, name)
                _require(vec.shape == shapes[key][agent_id], f"{name} has shape "
                         f"{vec.shape}, expected {shapes[key][agent_id]}")
                _require(bool(np.all(np.isfinite(vec))), f"{name} is not finite")
                _require(key != "lambda" or not np.any(vec < 0),
                         f"initial multiplier for '{agent_id}' is negative")

    def with_solver(self, **overrides) -> "Scenario":
        """A copy with new solver options, which nothing held by `derive`
        reads: the copy shares this scenario's held dict, what is built
        into it before or after the copy alike."""
        try:
            copy = replace(self, solver=replace(self.solver, **overrides))
        except ValueError as exc:
            raise ScenarioFormatError(f"solver options: {exc}") from exc
        object.__setattr__(copy, "_derived", self._derived)
        return copy

    def derive(self, key: str, build: Callable):
        """What `build()` returns, called only the first time `key` is asked
        for, with its arrays (its fields', or a tuple's items) made
        read-only and held in one dict that this scenario shares with every
        `with_solver` copy, made before or after the build. Whatever is held
        must read no solver option."""
        held = self._derived
        if key not in held:
            value = build()
            for item in value if isinstance(value, tuple) else vars(value).values():
                if isinstance(item, np.ndarray):
                    item.flags.writeable = False
            held[key] = value
        return held[key]

    @property
    def stacked(self) -> StackedProblem:
        """`stack_problem` of this scenario, held by `derive` for every
        consumer: read-only, as the scenario is immutable."""
        return self.derive("stacked", lambda: stack_problem(self))

    def human_response(
        self, agent_id: str, x_blocks: dict[str, np.ndarray], t: float = 0.0
    ) -> np.ndarray:
        """Human `agent_id`'s response at time t, under its schedule in
        `self.schedules` if it has one."""
        model = self.human_models[agent_id]
        inputs = {j: x_blocks[j] for j in model.neighbor_ids}
        return human_mod.respond(model, inputs, t, self.schedules.get(agent_id))


@dataclass(frozen=True)
class StackedProblem:
    """The scenario's stacked operators, in canonical agent order.

    `S` and `d` give the response pre-activation S x + d of every human (the
    response itself for affine humans), with attitudes folded into S. `soft`
    lists the rows of softplus humans and `beta` their sharpness. Each
    schedule with a positive settle time is laid out row by row: `scheduled`
    lists its rows, `settle` their settle times, and `S_delta` (attitude
    folded in) and `d_delta` the perturbations added at t = 0.
    `a_cat` = [A_i] and `b_cat` = [B_k] are the coupled-constraint blocks side
    by side. `x_weight` / `y_weight` are the block diagonals of the cost
    weights, None unless every cost is quadratic.
    """

    S: np.ndarray
    d: np.ndarray
    a_cat: np.ndarray
    b_cat: np.ndarray
    x_weight: np.ndarray | None
    y_weight: np.ndarray | None
    soft: np.ndarray
    beta: np.ndarray
    scheduled: np.ndarray
    settle: np.ndarray
    S_delta: np.ndarray
    d_delta: np.ndarray


def stack_problem(scenario: Scenario) -> StackedProblem:
    """Assemble the stacked operators that the flow, the oracle and the
    generator all read, through `Scenario.stacked`.

    The flow (`FlowEngine`), the oracle's `reduce_program` and
    `lift_to_saddle`, the generator and the CLI's `check` read the stack; no
    other module assembles these matrices, except that the wave kernel
    (`agents.DistributedRunner`) builds its own per-block copy, so that it
    runs without any stacked operator. So a run with the oracle reference
    (solve, lift, flow and KKT residuals) stacks its scenario once, the risk
    grid each of its four cells once, and `check` once per command."""
    con = scenario.constraint
    weights = None
    if all(isinstance(cost, QuadraticCost) for cost in scenario.costs.values()):
        weights = {a: cost.weight for a, cost in scenario.costs.items()}
    return stack_parts(scenario.layout, scenario.human_models, con.a_blocks, con.b_blocks,
                       weights, scenario.schedules)


def stack_parts(lay: ScenarioLayout, models, a_blocks: dict[str, np.ndarray],
                b_blocks: dict[str, np.ndarray], weights: dict[str, np.ndarray] | None,
                schedules: dict[str, ApproximationSchedule]) -> StackedProblem:
    """`stack_problem`'s layout loop on a scenario's parts, which it does not
    validate: the generator lays out each draw's raw arrays with it before it
    builds any object. `models` maps each human to its response parameters,
    a `HumanResponseModel` or anything with the fields the loop reads
    (`neighbor_ids`, `gains`, `base`, `attitude`, `family`, `sharpness`);
    `weights` are the cost weights, None unless every cost is quadratic."""
    S = np.zeros((lay.y_dim, lay.x_dim))
    S_delta = np.zeros((lay.y_dim if schedules else 0, lay.x_dim))
    d, d_delta, beta, settle = np.zeros((4, lay.y_dim))
    for k in lay.human_ids:
        model = models[k]
        rows = lay.y_slice(k)
        d[rows] = model.base
        for j in model.neighbor_ids:
            S[rows, lay.x_slice(j)] = model.attitude * model.gains[j]
        if model.family != human_mod.AFFINE:
            beta[rows] = model.sharpness
        sched = schedules.get(k)
        if sched is not None:
            settle[rows], d_delta[rows] = sched.settle_time, sched.base_delta
            for j, delta in sched.gain_deltas.items():
                S_delta[rows, lay.x_slice(j)] = model.attitude * delta
    soft, scheduled = np.flatnonzero(beta), np.flatnonzero(settle)
    empty = np.zeros((lay.rows, 0))
    a_cat = np.hstack([empty] + [a_blocks[i] for i in lay.autonomous_ids])
    b_cat = np.hstack([empty] + [b_blocks[k] for k in lay.human_ids])
    x_weight = y_weight = None
    if weights is not None:
        x_weight = block_diagonal([weights[i] for i in lay.autonomous_ids])
        y_weight = block_diagonal([weights[k] for k in lay.human_ids])
    return StackedProblem(S, d, a_cat, b_cat, x_weight, y_weight, soft, beta[soft],
                          scheduled, settle[scheduled], S_delta[scheduled], d_delta[scheduled])


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """The matrices `blocks` along the diagonal, in order, and zeros
    elsewhere: the stack's cost weights, and the decoupled constraint's
    a_bar and b_bar."""
    shapes = [block.shape for block in blocks]
    out = np.zeros((sum(m for m, _ in shapes), sum(n for _, n in shapes)))
    row = col = 0
    for block, (m, n) in zip(blocks, shapes):
        out[row:row + m, col:col + n] = block
        row, col = row + m, col + n
    return out


# ---------------------------------------------------------------------------
# Scenario documents


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioFormatError(msg)


def _as_int(raw, context: str) -> int:
    """A JSON integer: booleans and fractional numbers fail, not truncate."""
    _require(isinstance(raw, Integral) and not isinstance(raw, bool),
             f"{context} {raw!r} is not an integer")
    return int(raw)


def _as_number(raw, context: str) -> float:
    """A JSON number: booleans and strings fail, not convert."""
    _require(isinstance(raw, Real) and not isinstance(raw, bool),
             f"{context} {raw!r} is not a number")
    _require(_fits_float(raw), f"{context} is an integer too large for a float")
    return float(raw)


def _fits_float(number) -> bool:
    """Whether a real number converts to a float: a JSON integer may not."""
    try:
        float(number)
    except OverflowError:
        return False
    return True


def _as_array(raw, context: str) -> np.ndarray:
    """A JSON number or array of numbers, as floats at the rank it has. It
    refuses only what JSON typing decides: an entry that is not a number (a
    boolean or a string is not converted), an integer too large for a float,
    or a ragged array. Every other rule, rank and finiteness among them,
    belongs to the object built from it."""
    a = np.array(raw, dtype=object)
    _require(all(issubclass(kind, Real) and kind is not bool for kind in set(map(type, a.flat))),
             f"{context}: not a numeric array")
    try:
        return a.astype(float)
    except OverflowError as exc:
        raise ScenarioFormatError(f"{context}: an integer too large for a float") from exc


def _parse_model(human_id: str, doc: dict, topo: NetworkTopology) -> HumanResponseModel:
    """The response model of `human_id`, whose neighbors are the topology's.
    The model of an id that is no human lists its gains' ids, so that it is
    built, and `Scenario` refuses it as a model of an unknown human. The
    model names itself in its own errors."""
    context = f"model '{human_id}':"
    _require(isinstance(doc, dict), f"{context} expected an object")
    base = _as_array(doc.get("base"), f"{context} base")
    gains_doc = doc.get("gains", {})
    _require(isinstance(gains_doc, dict), f"{context} gains must be a map")
    gains = {j: _as_array(g, f"{context} gain for '{j}'") for j, g in gains_doc.items()}
    attitude_doc = doc.get("attitude")
    _require(isinstance(attitude_doc, dict), f"{context} attitude required")
    if "alpha" in attitude_doc:
        alpha = _as_number(attitude_doc["alpha"], f"{context} alpha")
    else:
        magnitude = _as_number(attitude_doc.get("magnitude", 0.0), f"{context} magnitude")
        try:
            alpha = attitude_preset(attitude_doc.get("kind", ""), magnitude)
        except ValueError as exc:
            raise ScenarioFormatError(f"{context} {exc}") from exc
    kwargs = {"sharpness": _as_number(doc["beta"], f"{context} beta")} if "beta" in doc else {}
    nbrs = neighbors(topo, human_id)[0] if human_id in topo.human_ids else list(gains)
    try:
        return HumanResponseModel(human_id, tuple(nbrs), gains, base, alpha,
                                  doc.get("family", human_mod.AFFINE), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(str(exc)) from exc


def _parse_schedule(model: HumanResponseModel, doc) -> ApproximationSchedule:
    """The schedule of `model`'s human: an object whose `delta` object holds
    an optional `base` (omitted means zero) and a map of `gains` deltas."""
    context = f"schedule '{model.human_id}':"
    _require(isinstance(doc, dict), f"{context} expected an object")
    delta = doc.get("delta", {})
    _require(isinstance(delta, dict), f"{context} delta must be an object")
    gains_doc = delta.get("gains", {})
    _require(isinstance(gains_doc, dict), f"{context} gain deltas must be a map")
    gain_deltas = {j: _as_array(g, f"{context} gain delta for '{j}'")
                   for j, g in gains_doc.items()}
    base_delta = _as_array(delta.get("base", np.zeros(model.dim)), f"{context} base delta")
    settle_time = _as_number(doc.get("settle_time", 0.0), f"{context} settle_time")
    try:
        return ApproximationSchedule(gain_deltas, base_delta, settle_time)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{context} {exc}") from exc


def scenario_from_document(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON tree."""
    _require(isinstance(doc, dict), "scenario document must be an object")
    for key in ("agents", "edges", "costs", "constraint"):
        _require(key in doc, f"missing top-level key '{key}'")

    _require(isinstance(doc["agents"], (list, tuple)), "'agents' must be a list")
    _require(isinstance(doc["edges"], (list, tuple)), "'edges' must be a list")
    autonomous, humans, dims = [], [], {}
    for entry in doc["agents"]:
        _require(
            isinstance(entry, dict) and {"id", "kind", "dim"} <= set(entry),
            "each agent needs id, kind and dim",
        )
        agent_id = str(entry["id"])
        dims[agent_id] = entry["dim"]
        kind = entry["kind"]
        if kind == "autonomous":
            autonomous.append(agent_id)
        elif kind == "human":
            humans.append(agent_id)
        else:
            raise ScenarioFormatError(f"agent '{agent_id}': unknown kind '{kind}'")

    edges = tuple(tuple(map(str, e)) if isinstance(e, (list, tuple)) else e
                  for e in doc["edges"])
    topo = NetworkTopology(tuple(autonomous), tuple(humans), edges)

    costs: dict[str, CostFunction] = {}
    _require(isinstance(doc["costs"], dict), "'costs' must be a map")
    for agent_id, cost_doc in doc["costs"].items():
        context = f"cost for '{agent_id}':"
        _require(isinstance(cost_doc, dict), f"{context} expected object")
        kind = cost_doc.get("type")
        _require(kind == "quadratic", f"{context} unknown type '{kind}'")
        try:  # the weight's faults, and the cost's own
            costs[agent_id] = QuadraticCost(_as_array(cost_doc.get("weight"), "weight"))
        except ScenarioFormatError as exc:
            raise type(exc)(f"{context} {exc}") from exc

    con_doc = doc["constraint"]
    _require(isinstance(con_doc, dict), "'constraint' must be an object")
    blocks = {}
    for key in ("a_blocks", "b_blocks"):
        section = con_doc.get(key, {})
        _require(isinstance(section, dict), f"constraint '{key}' must be a map")
        blocks[key] = {i: _as_array(m, f"constraint block for '{i}'") for i, m in section.items()}
    constraint = CouplingConstraint(**blocks, c=_as_array(con_doc.get("c"), "constraint offset c"))
    if "rows" in con_doc and _as_int(con_doc["rows"], "constraint rows") != constraint.rows:
        raise DimensionMismatchError(
            f"declared {con_doc['rows']} constraint rows, offset c has {constraint.rows}"
        )

    models_doc = doc.get("human_models", {})
    _require(isinstance(models_doc, dict), "'human_models' must be a map")
    models = {}
    schedules = {}
    for human_id, model_doc in models_doc.items():
        models[human_id] = _parse_model(human_id, model_doc, topo)
        if "schedule" in model_doc:
            schedules[human_id] = _parse_schedule(models[human_id], model_doc["schedule"])

    try:
        solver = SolverOptions(**doc.get("solver", {}))
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"solver options: {exc}") from exc

    return Scenario(
        topology=topo,
        dims=dims,
        costs=costs,
        constraint=constraint,
        human_models=models,
        solver=solver,
        schedules=schedules,
        initial_state=doc.get("initial_state"),
    )


def scenario_text(scenario: Scenario) -> str:
    """The scenario's document as the text `json.dumps(tree, indent=2)`
    writes for it, written directly: the one definition of the document's
    layout. Each value is written at its depth in the tree. Float arrays are
    joined from `float.__repr__`, as json writes a finite float (`Scenario`
    refuses any other); ids and other strings go through json's string
    encoder, other scalars through `json.dumps`. Custom callback costs
    cannot be serialized."""
    for agent_id, cost in scenario.costs.items():
        if not isinstance(cost, QuadraticCost):
            raise ScenarioFormatError(
                f"cost for '{agent_id}' is not serializable (callback cost)"
            )
    con, opts, topo = scenario.constraint, scenario.solver, scenario.topology
    kinds = [(i, "autonomous") for i in topo.autonomous_ids] + [
        (k, "human") for k in topo.human_ids]
    agents = [_object([("id", _string(i)), ("kind", _string(kind)),
                       ("dim", _scalar(scenario.dims[i]))], 2) for i, kind in kinds]
    edges = [_list([_string(a), _string(b)], 2) for a, b in sorted(topo.edges)]
    costs = [(i, _object([("type", _string("quadratic")), ("weight", _array(cost.weight, 3))],
                         2))
             for i, cost in scenario.costs.items()]
    models = []
    for k, model in scenario.human_models.items():
        entry = [
            ("family", _string(model.family)),
            ("base", _array(model.base, 3)),
            ("gains", _object([(j, _array(g, 4)) for j, g in model.gains.items()], 3)),
            ("attitude", _object([("alpha", _scalar(model.attitude))], 3)),
            ("beta", _scalar(model.sharpness)),
        ]
        if k in scenario.schedules:
            sched = scenario.schedules[k]
            delta = [("gains", _object([(j, _array(g, 6)) for j, g in sched.gain_deltas.items()],
                                       5)),
                     ("base", _array(sched.base_delta, 5))]
            entry.append(("schedule", _object([("delta", _object(delta, 4)),
                                               ("settle_time", _scalar(sched.settle_time))], 3)))
        models.append((k, _object(entry, 2)))
    doc = [
        ("agents", _list(agents, 1)),
        ("edges", _list(edges, 1)),
        ("costs", _object(costs, 1)),
        ("constraint", _object([
            ("rows", _scalar(con.rows)),
            ("a_blocks", _object([(i, _array(m, 3)) for i, m in con.a_blocks.items()], 2)),
            ("b_blocks", _object([(k, _array(m, 3)) for k, m in con.b_blocks.items()], 2)),
            ("c", _array(con.c, 2)),
        ], 1)),
        ("human_models", _object(models, 1)),
        ("solver", _object([(name, _scalar(getattr(opts, name))) for name in (
            "dt", "max_time", "tolerance", "offset_split", "record_stride", "check_slater")],
            1)),
    ]
    if scenario.initial_state is not None:
        doc.append(("initial_state", _object([
            (key, _object([(i, _array(np.asarray(vec, dtype=float), 3))
                           for i, vec in blocks.items()], 2))
            for key, blocks in scenario.initial_state.items()], 1)))
    return _object(doc, 0)


# The text of one JSON value whose brackets sit `depth` levels deep, laid
# out as `json.dumps(..., indent=2)` lays it out: each item on its own line,
# one level deeper than its brackets, and an empty container as `[]` or `{}`.
_string = json.encoder.encode_basestring_ascii
_scalar = json.dumps


def _list(items: list[str], depth: int) -> str:
    if not items:
        return "[]"
    pad = "  " * depth
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _object(items: list[tuple[str, str]], depth: int) -> str:
    if not items:
        return "{}"
    pad = "  " * depth
    return f"{{\n{pad}  " + f",\n{pad}  ".join(
        f"{_string(key)}: {text}" for key, text in items) + f"\n{pad}}}"


def _array(a: np.ndarray, depth: int) -> str:
    """A float vector or matrix, each float by `float.__repr__`."""
    if a.ndim == 1:
        return _list(list(map(float.__repr__, a.tolist())), depth)
    return _list([_list(list(map(float.__repr__, row)), depth + 1) for row in a.tolist()], depth)


def serialize_scenario(scenario: Scenario) -> dict:
    """Scenario back to a JSON tree: the parsed `scenario_text`."""
    return json.loads(scenario_text(scenario))


def save_scenario(scenario: Scenario, path) -> None:
    """Write `scenario_text` and a newline."""
    text = scenario_text(scenario)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Spot checks used by tests and the `check` command


def midpoint_convexity_gap(cost: CostFunction, rng: np.random.Generator,
                           samples: int = 200) -> float:
    """Worst violation of f((u+v)/2) <= (f(u)+f(v))/2 over random pairs,
    drawn normal with standard deviation 3: NaN if any gap is NaN."""
    gaps = [-np.inf]
    for _ in range(samples):
        u = rng.normal(scale=3.0, size=cost.dim)
        v = rng.normal(scale=3.0, size=cost.dim)
        gaps.append(cost.value((u + v) / 2) - 0.5 * (cost.value(u) + cost.value(v)))
    return float(np.max(gaps))


# The rounding error of an evaluated f, in units of eps |f|, that a central
# difference allows for. f sums many terms, so it carries more than one
# rounding: over fig4 with one cost weight times 2^0 ... 2^30, the Lagrangian's
# differences were measured off by up to 1.1 eps (|f(v + h)| + |f(v - h)|) / 2h.
ROUNDOFF_ULPS = 4.0


def central_difference_error(value: Callable[[np.ndarray], float],
                             gradient: Callable[[np.ndarray], np.ndarray],
                             v: np.ndarray, step: float) -> float:
    """Max relative error of `gradient(v)` against central differences of
    `value` of step `step`, each over max(1, |analytic|, |numeric|). Only
    the part of |analytic - numeric| above the difference's roundoff,
    ROUNDOFF_ULPS eps (|f(v + h)| + |f(v - h)|) / 2h, counts (Nocedal &
    Wright, Numerical Optimization, section 8.1), so the check holds at any
    scale of f. A gradient entry or difference that is not finite is an
    infinite error, so numpy's overflow and invalid-value warnings are off
    meanwhile."""
    worst, eps = 0.0, ROUNDOFF_ULPS * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        grad = gradient(v)
        for idx in range(v.shape[0]):
            bump = np.zeros_like(v)
            bump[idx] = step
            ahead, behind = value(v + bump), value(v - bump)
            numeric = (ahead - behind) / (2.0 * step)
            if not (math.isfinite(grad[idx]) and math.isfinite(numeric)):
                return math.inf
            roundoff = eps * (abs(ahead) + abs(behind)) / (2.0 * step)
            denom = max(1.0, abs(grad[idx]), abs(numeric))
            worst = max(worst, (abs(grad[idx] - numeric) - roundoff) / denom)
    return worst


def gradient_consistency_error(cost: CostFunction, rng: np.random.Generator,
                               points: int = 50) -> float:
    """Max `central_difference_error` of the declared gradient, step 1e-6,
    at `points` standard normal draws."""
    return max((central_difference_error(cost.value, cost.gradient,
                                         rng.normal(size=cost.dim), 1e-6)
                for _ in range(points)), default=0.0)
