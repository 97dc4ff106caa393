"""Exception types raised across the package.

Validation errors carry the offending agent id in the message so that a bad
scenario file can be fixed without reading a stack trace.
"""


class HatallocError(Exception):
    """Base class for all package errors."""


class ScenarioFormatError(HatallocError):
    """Scenario document violates the schema or fails validation."""


class TopologyError(ScenarioFormatError):
    """Malformed graph: self loop, unknown endpoint, duplicate id."""


class DisconnectedGraphError(TopologyError):
    """The interaction graph is not connected."""


class DimensionMismatchError(ScenarioFormatError):
    """A matrix or vector has a shape inconsistent with the declared dims."""


class NotPositiveDefiniteError(ScenarioFormatError):
    """A quadratic cost weight is not symmetric positive definite."""


class MissingHumanModelError(ScenarioFormatError):
    """A human agent has no response model."""


class UnsupportedByOracleError(HatallocError):
    """Instance is outside the centralized solver's scope."""


class ActiveSetEnumerationError(UnsupportedByOracleError):
    """Too many constraint rows for exhaustive active-set enumeration."""


class InfeasibleProblemError(HatallocError):
    """No feasible point (or none found by the centralized solver)."""


class SlaterConditionError(InfeasibleProblemError):
    """No strictly feasible point could be certified."""


class DivergenceError(HatallocError):
    """The flow produced non-finite values. `integrate` sets `attempts`, the
    runs that diverged (the first, and the one at half the step size), when
    it gives up; a run driver of `runs` sets `summary`, the summary it wrote,
    before it re-raises."""

    def __init__(self, t: float, max_entry: float):
        super().__init__(
            f"flow diverged at t={t:.6g} (max |entry| = {max_entry:.3g})"
        )
        self.t = t
        self.max_entry = max_entry
        self.attempts = ()
        self.summary = None


class MessageProtocolError(HatallocError):
    """An expected neighbor message is missing from an inbox."""


class CertificateError(HatallocError):
    """Internal consistency failure while recovering a decoupling certificate."""


class NoAdmissibleInstanceError(HatallocError):
    """A generator rejected every draw; `rejected` counts them by check."""

    def __init__(self, seed: int, rejected: dict[str, int]):
        reasons = ", ".join(f"{reason} {count}" for reason, count in rejected.items())
        super().__init__(f"no admissible instance found for seed {seed} after "
                         f"{sum(rejected.values())} draws (rejected by: {reasons})")
        self.rejected = rejected
