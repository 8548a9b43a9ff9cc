"""Exception types shared across the package."""


class InvalidGapVectorsError(ValueError):
    """Gap difference vector is not balanced (components must sum to zero)."""
