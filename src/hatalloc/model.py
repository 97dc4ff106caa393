"""Problem instances: costs, the coupled constraint, and scenario documents.

A scenario bundles the interaction graph, per-agent state dimensions and
costs, the shared linear inequality coupling every agent, the human response
models with their schedules, an optional initial state, and solver options.
`Scenario.__post_init__` is the one semantic check of all of it, for documents
and code alike; a `Scenario` is frozen, and `dataclasses.replace` checks the
changed copy again. A scenario assembles its read-only `stacked` operators on
first use, and holds in `derived` what other layers build from it once: the
oracle's reduction, the decoupled blocks and the flow's folded M. A copy
from `with_solver` shares both once built, since none of them reads the
solver options; any other copy, one with a new offset c too, assembles its
own. `stack_problem`'s layout loop, `stack_parts`, also runs on
raw parts that nothing has validated: the generator lays out each draw with
it in a block of draws, and a scenario built from a draw it keeps holds the
draw's row of that block. The document parser checks only JSON types.
Documents are JSON trees; floats survive a save/load round trip bit-exactly.
Files are read by `oracle.load_scenario`, since a document may ask for a
Slater certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
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
        if w.shape[0] != w.shape[1]:
            raise DimensionMismatchError(f"cost weight must be square, got {w.shape}")
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
        r = self.c.shape[0]
        if r < 1:
            raise DimensionMismatchError("constraint needs at least one row")
        if not np.isfinite(self.c).all():
            raise DimensionMismatchError("constraint offset c entries must be finite")
        for agent_id, block in list(a.items()) + list(b.items()):
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

    def stack_y(self, blocks: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [np.asarray(blocks[k], dtype=float) for k in self.human_ids]
        ) if self.human_ids else np.zeros(0)

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
            if self.dims[agent_id] < 1:
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
                try:
                    vec = np.asarray(raw, dtype=float)
                except OverflowError as exc:
                    raise ScenarioFormatError(
                        f"{name} holds an integer too large for a float") from exc
                except (TypeError, ValueError) as exc:
                    raise ScenarioFormatError(f"{name} is not a numeric vector") from exc
                _require(vec.shape == shapes[key][agent_id], f"{name} has shape "
                         f"{vec.shape}, expected {shapes[key][agent_id]}")
                _require(bool(np.all(np.isfinite(vec))), f"{name} is not finite")
        lam = start.get("lambda", {})
        for agent_id in topo.node_order:
            _require(not np.any(np.asarray(lam.get(agent_id, 0.0), dtype=float) < 0),
                     f"initial multiplier for '{agent_id}' is negative")

    def with_solver(self, **overrides) -> "Scenario":
        """A copy with new solver options, which neither `stack_problem` nor
        what is built into `derived` reads: it shares this scenario's stack
        and its `derived` dict once built."""
        copy = replace(self, solver=replace(self.solver, **overrides))
        if "stacked" in vars(self):
            copy._adopt_stack(self.stacked)
        if "derived" in vars(self):
            vars(copy)["derived"] = self.derived
        return copy

    def _adopt_stack(self, sp: StackedProblem) -> "Scenario":
        """Hold `sp`, made read-only, as this scenario's `stacked`, and return
        the scenario. For a caller that laid out this scenario's own fields
        with `stack_parts` already: `sp` must be what `stack_problem` would
        lay out."""
        vars(self)["stacked"] = _read_only(sp)
        return self

    @cached_property
    def stacked(self) -> StackedProblem:
        """`stack_problem` of this scenario, built on first use for every
        consumer; read-only, as the scenario is immutable. `with_solver`
        copies share it."""
        return _read_only(stack_problem(self))

    @cached_property
    def derived(self) -> dict:
        """What other layers build once from this scenario's stack, offset c,
        constraint blocks and topology, by name, each filled in by its owner
        on first use: `oracle.reduction`, `build_decoupled`'s blocks and
        `FlowEngine.folded`'s M. No entry reads the solver options, so the
        dict is shared by `with_solver` copies, and freed with the last of
        them."""
        return {}

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


def _read_only(sp: StackedProblem) -> StackedProblem:
    for value in vars(sp).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return sp


def stack_problem(scenario: Scenario) -> StackedProblem:
    """Assemble the stacked operators that the flow, the oracle and the
    generator all read, through `Scenario.stacked`."""
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
    """The matrices `blocks` along the diagonal, in order, and zeros elsewhere."""
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


def _as_matrix(raw, context: str) -> np.ndarray:
    try:
        mat = np.array(raw, dtype=float)
    except OverflowError as exc:
        raise ScenarioFormatError(f"{context}: an integer too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{context}: not a numeric matrix") from exc
    if mat.ndim == 1:
        mat = mat[None, :]
    _require(mat.ndim == 2, f"{context}: expected a matrix")
    _require(bool(np.all(np.isfinite(mat))), f"{context}: entries must be finite")
    return mat


def _as_vector(raw, context: str) -> np.ndarray:
    try:
        vec = np.array(raw, dtype=float)
    except OverflowError as exc:
        raise ScenarioFormatError(f"{context}: an integer too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{context}: not a numeric vector") from exc
    _require(vec.ndim == 1, f"{context}: expected a flat vector")
    _require(bool(np.all(np.isfinite(vec))), f"{context}: entries must be finite")
    return vec


def _parse_model(human_id: str, doc: dict, neighbor_ids: list[str]) -> HumanResponseModel:
    _require(isinstance(doc, dict), f"model '{human_id}': expected an object")
    family = doc.get("family", human_mod.AFFINE)
    base = _as_vector(doc.get("base"), f"model '{human_id}' base")
    gains_doc = doc.get("gains", {})
    _require(isinstance(gains_doc, dict), f"model '{human_id}': gains must be a map")
    gains = {
        j: _as_matrix(g, f"model '{human_id}' gain for '{j}'")
        for j, g in gains_doc.items()
    }
    attitude_doc = doc.get("attitude")
    _require(isinstance(attitude_doc, dict), f"model '{human_id}': attitude required")
    context = f"model '{human_id}':"
    try:
        if "alpha" in attitude_doc:
            alpha = _as_number(attitude_doc["alpha"], f"{context} alpha")
        else:
            alpha = attitude_preset(attitude_doc.get("kind", ""), _as_number(
                attitude_doc.get("magnitude", 0.0), f"{context} magnitude"))
        kwargs = {}
        if "beta" in doc:
            kwargs["sharpness"] = _as_number(doc["beta"], f"{context} beta")
        return HumanResponseModel(
            human_id=human_id,
            neighbor_ids=tuple(neighbor_ids),
            gains=gains,
            base=base,
            attitude=alpha,
            family=family,
            **kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"model '{human_id}': {exc}") from exc


def _parse_schedule(model: HumanResponseModel, doc) -> ApproximationSchedule:
    """The schedule of `model`'s human: an object whose `delta` object holds
    an optional `base` (omitted means zero) and a map of `gains` deltas."""
    k = model.human_id
    _require(isinstance(doc, dict), f"schedule '{k}': expected an object")
    delta = doc.get("delta", {})
    _require(isinstance(delta, dict), f"schedule '{k}': delta must be an object")
    gains_doc = delta.get("gains", {})
    _require(isinstance(gains_doc, dict), f"schedule '{k}': gain deltas must be a map")
    gain_deltas = {j: _as_matrix(g, f"schedule '{k}' gain delta for '{j}'")
                   for j, g in gains_doc.items()}
    base_delta = _as_vector(delta.get("base", np.zeros(model.dim)),
                            f"schedule '{k}' base delta")
    settle_time = _as_number(doc.get("settle_time", 0.0), f"schedule '{k}': settle_time")
    try:
        return ApproximationSchedule(
            gain_deltas=gain_deltas,
            base_delta=base_delta,
            settle_time=settle_time,
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"schedule '{k}': {exc}") from exc


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
        dims[agent_id] = _as_int(entry["dim"], f"agent '{agent_id}': dim")
        kind = entry["kind"]
        if kind == "autonomous":
            autonomous.append(agent_id)
        elif kind == "human":
            humans.append(agent_id)
        else:
            raise ScenarioFormatError(f"agent '{agent_id}': unknown kind '{kind}'")

    for e in doc["edges"]:
        _require(isinstance(e, (list, tuple)) and len(e) == 2,
                 f"edge {e!r}: expected a pair of agent ids")
    edges = frozenset((str(a), str(b)) for a, b in doc["edges"])
    topo = NetworkTopology(tuple(autonomous), tuple(humans), edges)

    costs: dict[str, CostFunction] = {}
    _require(isinstance(doc["costs"], dict), "'costs' must be a map")
    for agent_id, cost_doc in doc["costs"].items():
        _require(isinstance(cost_doc, dict), f"cost for '{agent_id}': expected object")
        kind = cost_doc.get("type")
        _require(kind == "quadratic", f"cost for '{agent_id}': unknown type '{kind}'")
        try:
            costs[agent_id] = QuadraticCost(
                _as_matrix(cost_doc.get("weight"), f"cost weight for '{agent_id}'")
            )
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(f"cost for '{agent_id}': {exc}") from exc

    con_doc = doc["constraint"]
    _require(isinstance(con_doc, dict), "'constraint' must be an object")
    blocks = {}
    for key in ("a_blocks", "b_blocks"):
        section = con_doc.get(key, {})
        _require(isinstance(section, dict), f"constraint '{key}' must be a map")
        blocks[key] = {i: _as_matrix(m, f"{key[:-1]} for '{i}'") for i, m in section.items()}
    constraint = CouplingConstraint(
        **blocks, c=_as_vector(con_doc.get("c"), "constraint offset c")
    )
    if "rows" in con_doc and _as_int(con_doc["rows"], "constraint rows") != constraint.rows:
        raise DimensionMismatchError(
            f"declared {con_doc['rows']} constraint rows, offset c has {constraint.rows}"
        )

    models_doc = doc.get("human_models", {})
    _require(isinstance(models_doc, dict), "'human_models' must be a map")
    models = {}
    schedules = {}
    for human_id, model_doc in models_doc.items():
        auto_nbrs, _ = neighbors(topo, human_id) if human_id in topo.node_order else ([], [])
        models[human_id] = _parse_model(human_id, model_doc, auto_nbrs)
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


def serialize_scenario(scenario: Scenario) -> dict:
    """Scenario back to a JSON tree. Custom callback costs cannot be serialized."""
    agents = []
    for i in scenario.topology.autonomous_ids:
        agents.append({"id": i, "kind": "autonomous", "dim": scenario.dims[i]})
    for k in scenario.topology.human_ids:
        agents.append({"id": k, "kind": "human", "dim": scenario.dims[k]})

    costs = {}
    for agent_id, cost in scenario.costs.items():
        if not isinstance(cost, QuadraticCost):
            raise ScenarioFormatError(
                f"cost for '{agent_id}' is not serializable (callback cost)"
            )
        costs[agent_id] = {"type": "quadratic", "weight": cost.weight.tolist()}

    con = scenario.constraint
    doc = {
        "agents": agents,
        "edges": sorted([list(e) for e in scenario.topology.edges]),
        "costs": costs,
        "constraint": {
            "rows": con.rows,
            "a_blocks": {i: m.tolist() for i, m in con.a_blocks.items()},
            "b_blocks": {k: m.tolist() for k, m in con.b_blocks.items()},
            "c": con.c.tolist(),
        },
        "human_models": {},
        "solver": {
            "dt": scenario.solver.dt,
            "max_time": scenario.solver.max_time,
            "tolerance": scenario.solver.tolerance,
            "offset_split": scenario.solver.offset_split,
            "record_stride": scenario.solver.record_stride,
            "check_slater": scenario.solver.check_slater,
        },
    }
    schedules = scenario.schedules
    for k, model in scenario.human_models.items():
        entry = {
            "family": model.family,
            "base": model.base.tolist(),
            "gains": {j: g.tolist() for j, g in model.gains.items()},
            "attitude": {"alpha": model.attitude},
            "beta": model.sharpness,
        }
        if k in schedules:
            sched = schedules[k]
            entry["schedule"] = {
                "delta": {
                    "gains": {j: g.tolist() for j, g in sched.gain_deltas.items()},
                    "base": sched.base_delta.tolist(),
                },
                "settle_time": sched.settle_time,
            }
        doc["human_models"][k] = entry
    if scenario.initial_state is not None:
        doc["initial_state"] = scenario.initial_state
    return doc


# Encoded pieces joined per write: `json.dump` writes each piece its encoder
# yields on its own, ~19k of them for a 250-agent document, and batching them
# keeps the streamed write's memory to one batch.
SAVE_BATCH = 2048


def save_scenario(scenario: Scenario, path) -> None:
    """Write the document as `json.dumps(doc, indent=2)` and a newline,
    streamed SAVE_BATCH encoded pieces at a time."""
    pieces = json.JSONEncoder(indent=2).iterencode(serialize_scenario(scenario))
    with open(path, "w", encoding="utf-8") as handle:
        while batch := "".join(islice(pieces, SAVE_BATCH)):
            handle.write(batch)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Spot checks used by tests and the `check` command


def midpoint_convexity_gap(cost: CostFunction, rng: np.random.Generator,
                           samples: int = 200) -> float:
    """Worst violation of f((u+v)/2) <= (f(u)+f(v))/2 over random pairs,
    drawn normal with standard deviation 3."""
    worst = -np.inf
    for _ in range(samples):
        u = rng.normal(scale=3.0, size=cost.dim)
        v = rng.normal(scale=3.0, size=cost.dim)
        gap = cost.value((u + v) / 2) - 0.5 * (cost.value(u) + cost.value(v))
        worst = max(worst, gap)
    return float(worst)


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
