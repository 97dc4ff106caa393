"""Human response models.

A human's workload vector is a differentiable function of the states of its
autonomous neighbors. Two parametric families are shipped:

* ``affine``: y = base + alpha * sum_j gain_j @ x_j. Convex (affine) in every
  input, so composing it with any convex cost stays convex.
* ``softplus_affine``: elementwise softplus of the same pre-activation, for
  strictly positive workloads. softplus_b(u) = log(1 + exp(b*u)) / b.

The attitude scalar `alpha` in [-1, 1] scales the (elementwise nonnegative)
gain blocks: negative alpha models a risk-seeking human whose workload drops
as neighboring autonomous activity rises, positive alpha a risk-averse one
who ramps up alongside it.

A model may be run with an approximation schedule: parameters start perturbed
by a delta and blend linearly back to their true values by a finite settle
time, after which they are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AFFINE = "affine"
SOFTPLUS_AFFINE = "softplus_affine"
_FAMILIES = (AFFINE, SOFTPLUS_AFFINE)


@dataclass(frozen=True)
class ApproximationSchedule:
    """Linear settling of perturbed parameters onto the true ones.

    `gain_deltas` / `base_delta` are added to the true parameters at t = 0,
    scaled by (1 - t/settle_time) until `settle_time`, and ignored afterwards.
    """

    gain_deltas: dict[str, np.ndarray]
    base_delta: np.ndarray
    settle_time: float

    def __post_init__(self):
        if not 0 <= self.settle_time < np.inf:
            raise ValueError(f"settle_time must be nonnegative and finite: {self.settle_time}")
        deltas = {j: np.atleast_2d(np.ascontiguousarray(d, dtype=float))
                  for j, d in self.gain_deltas.items()}
        object.__setattr__(self, "gain_deltas", deltas)
        object.__setattr__(self, "base_delta", np.asarray(self.base_delta, dtype=float))
        if self.base_delta.ndim != 1:
            raise ValueError(f"schedule base delta must be a vector, got shape "
                             f"{self.base_delta.shape}")
        for j, delta in deltas.items():
            if delta.ndim != 2:
                raise ValueError(f"schedule gain delta for '{j}' must be a matrix, got shape "
                                 f"{delta.shape}")
        for name, delta in [("base", self.base_delta), *deltas.items()]:
            if not np.isfinite(delta).all():
                raise ValueError(f"schedule delta for '{name}' must be finite")

    def blend(self, t: float) -> float:
        """Remaining perturbation fraction at time t (continuous, 0 for t >= T)."""
        if self.settle_time == 0.0 or t >= self.settle_time:
            return 0.0
        return 1.0 - t / self.settle_time


@dataclass(frozen=True)
class HumanResponseModel:
    """Differentiable response map from neighbor states to a workload vector."""

    human_id: str
    neighbor_ids: tuple[str, ...]
    gains: dict[str, np.ndarray]  # neighbor id -> (dim x n_j), elementwise >= 0 by convention
    base: np.ndarray
    attitude: float
    family: str = AFFINE
    sharpness: float = 10.0  # softplus beta; unused by the affine family

    def __post_init__(self):
        object.__setattr__(self, "neighbor_ids", tuple(self.neighbor_ids))
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        gains = {j: np.atleast_2d(np.ascontiguousarray(g, dtype=float))
                 for j, g in self.gains.items()}
        object.__setattr__(self, "gains", gains)
        # Every error names the model once, whether it is built from a file
        # or in code.
        name = f"model '{self.human_id}':"
        if self.family not in _FAMILIES:
            raise ValueError(f"{name} unknown response family '{self.family}'")
        if set(gains) != set(self.neighbor_ids):
            raise ValueError(f"{name} gain blocks {sorted(gains)} do not match neighbor "
                             f"list {sorted(self.neighbor_ids)}")
        if self.base.ndim != 1:
            raise ValueError(f"{name} base must be a vector, got shape {self.base.shape}")
        dim = self.base.shape[0]
        if not np.isfinite(self.base).all():
            raise ValueError(f"{name} base entries must be finite")
        for j, g in gains.items():
            if g.ndim != 2:
                raise ValueError(f"{name} gain for '{j}' must be a matrix, got shape {g.shape}")
            if g.shape[0] != dim:
                raise ValueError(f"{name} gain block for '{j}' has {g.shape[0]} rows, "
                                 f"base has {dim}")
            if not np.isfinite(g).all():
                raise ValueError(f"{name} gain for '{j}' must be finite")
        if not -1.0 <= self.attitude <= 1.0:
            raise ValueError(f"{name} attitude must lie in [-1, 1], got {self.attitude}")
        # Every model's sharpness is saved, so it is finite; softplus reads it.
        softplus = self.family == SOFTPLUS_AFFINE
        if not (0 if softplus else -np.inf) < self.sharpness < np.inf:
            raise ValueError(f"{name} sharpness must be {'positive and ' * softplus}finite: "
                             f"{self.sharpness}")

    @property
    def dim(self) -> int:
        return self.base.shape[0]


def attitude_preset(kind: str, magnitude: float) -> float:
    """Attitude scalar for a named risk preset.

    Risk-seeking humans offload onto autonomous neighbors (negative alpha);
    risk-averse humans keep work for themselves (positive alpha).
    """
    if not 0.0 < magnitude <= 1.0:
        raise ValueError(f"magnitude must lie in (0, 1], got {magnitude}")
    if kind == "risk_seeking":
        return -magnitude
    if kind == "risk_averse":
        return magnitude
    raise ValueError(f"unknown attitude kind '{kind}'")


def effective_parameters(
    model: HumanResponseModel,
    t: float = 0.0,
    schedule: ApproximationSchedule | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """(gains, base) at time t, blended toward true values under a schedule."""
    if schedule is None:
        return model.gains, model.base
    phi = schedule.blend(t)
    if phi == 0.0:
        return model.gains, model.base
    gains = {}
    for j, g in model.gains.items():
        delta = schedule.gain_deltas.get(j)
        gains[j] = g if delta is None else g + phi * delta
    base = model.base + phi * schedule.base_delta
    return gains, base


def softplus(u: np.ndarray, beta) -> np.ndarray:
    """log1p(exp(beta*u))/beta, stabilized for large positive pre-activations;
    `beta` is a scalar or broadcasts against u."""
    bu = beta * u
    return (np.maximum(bu, 0.0) + np.log1p(np.exp(-np.abs(bu)))) / beta


def logistic(u: np.ndarray, beta) -> np.ndarray:
    """The derivative of `softplus` in u: 1/(1 + exp(-beta*u)) where
    beta*u >= 0, exp(beta*u)/(1 + exp(beta*u)) elsewhere. Both branches are
    evaluated; the one not taken may overflow, and is discarded."""
    bu = beta * u
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(bu)
        return np.where(bu >= 0, 1.0 / (1.0 + np.exp(-bu)), e / (1.0 + e))


def _check_neighbors(model, x_neighbors) -> None:
    """Raise unless `x_neighbors` holds a state for exactly the model's
    neighbors."""
    extra = set(x_neighbors) - set(model.neighbor_ids)
    if extra:
        raise ValueError(
            f"model '{model.human_id}': unexpected neighbor states {sorted(extra)}"
        )
    for j in model.neighbor_ids:
        if j not in x_neighbors:
            raise ValueError(f"model '{model.human_id}': missing state for neighbor '{j}'")


def _pre_activation(model, x_neighbors, gains, base) -> np.ndarray:
    pre = base.copy()
    for j in model.neighbor_ids:
        pre += model.attitude * (gains[j] @ np.asarray(x_neighbors[j], dtype=float))
    return pre


def respond(
    model: HumanResponseModel,
    x_neighbors: dict[str, np.ndarray],
    t: float = 0.0,
    schedule: ApproximationSchedule | None = None,
) -> np.ndarray:
    """Evaluate the human's workload response at the given neighbor states."""
    _check_neighbors(model, x_neighbors)
    gains, base = effective_parameters(model, t, schedule)
    pre = _pre_activation(model, x_neighbors, gains, base)
    if model.family == AFFINE:
        return pre
    return softplus(pre, model.sharpness)


def response_jacobian(
    model: HumanResponseModel,
    x_neighbors: dict[str, np.ndarray],
    t: float = 0.0,
    schedule: ApproximationSchedule | None = None,
) -> dict[str, np.ndarray]:
    """Jacobian of `respond` with respect to each neighbor's state block."""
    _check_neighbors(model, x_neighbors)
    gains, base = effective_parameters(model, t, schedule)
    if model.family == AFFINE:
        return {j: model.attitude * gains[j] for j in model.neighbor_ids}
    pre = _pre_activation(model, x_neighbors, gains, base)
    sig = logistic(pre, model.sharpness)
    return {j: sig[:, None] * (model.attitude * gains[j]) for j in model.neighbor_ids}
