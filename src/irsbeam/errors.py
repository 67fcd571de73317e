"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """An array/vector size is inconsistent or non-positive."""


class InvalidParameterError(ValueError):
    """A parameter violates a divisibility or range requirement."""

