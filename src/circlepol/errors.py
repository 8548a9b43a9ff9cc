"""Exception types shared across the package."""


class OrderingBrokenError(ValueError):
    """A point move destroyed the counterclockwise ordering of a configuration."""


class StepTooLargeError(ValueError):
    """Transport deltas exceed the separation bound that guarantees ordering."""


class InvalidGapVectorsError(ValueError):
    """Gap difference vector is not balanced (components must sum to zero)."""
