"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """An array/vector size is inconsistent or non-positive."""


class InvalidParameterError(ValueError):
    """A parameter violates a divisibility or range requirement."""


class ThresholdTooHighError(RuntimeError):
    """The candidate-set threshold excluded every index.

    Carries the largest probability value that was observed so the caller
    can pick a workable threshold.
    """

    def __init__(self, max_observed: float):
        super().__init__(
            f"candidate threshold excluded all indices; "
            f"largest observed probability value is {max_observed:.6g}"
        )
        self.max_observed = max_observed

    def __reduce__(self):
        # args holds the formatted message, not the constructor argument
        return type(self), (self.max_observed,)

