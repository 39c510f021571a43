"""Exception types shared across the package."""


class FunnelError(Exception):
    """Base class for every error raised by this package."""


class ContractError(FunnelError):
    """An operation was called outside its documented preconditions."""


class ConfigurationError(FunnelError):
    """Invalid scenario or tower configuration."""


class CapacityError(ConfigurationError):
    """Tower violates the purification capacity rule."""


class SamplingError(FunnelError):
    """State sampling failed its self-test after the allowed redraws."""


class DegenerateExcitationError(FunnelError):
    """The operator annihilates the reference vector; cannot normalize."""


class DegenerateSuperpositionError(DegenerateExcitationError):
    """Destructive interference left nothing to normalize."""


class NotSameRayError(FunnelError):
    """Phase lift requested for a pair of states that are not equal."""

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


class GenericityViolationError(FunnelError):
    """Equal states whose representatives fail the ray-recovery identity."""


class NotNullCombinationError(FunnelError):
    """Coefficients do not annihilate the combined functional."""


class BudgetError(FunnelError):
    """An element's kernel rank would exceed the configured budget."""

    def __init__(self, message, suggested_budget=None):
        super().__init__(message)
        self.suggested_budget = suggested_budget


class CompletenessUnavailableError(FunnelError):
    """Orthogonal families cannot be complete for rank-deficient states."""


class TuningFailureError(FunnelError):
    """Detector tuning cannot reach the requested accuracy."""

    def __init__(self, message, best_epsilon=None):
        super().__init__(message)
        self.best_epsilon = best_epsilon


class FaithfulnessError(FunnelError):
    """No faithfulness witness found for a nonzero element."""
