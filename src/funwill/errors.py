"""Exception types shared across the toolkit.

Every error a caller is expected to branch on gets its own class; all are
ValueError subclasses so generic handling stays easy.
"""


class DimensionMismatch(ValueError):
    """Two vectors that must share a choice space have different lengths."""


class NegativeWeight(ValueError):
    """A probability weight is negative (or not a finite number)."""


class NotNormalized(ValueError):
    """Weights do not sum to 1 within the construction tolerance."""


class AllZero(ValueError):
    """Every supplied weight is zero, so no distribution can be formed."""


class DivergentGradient(ValueError):
    """The entropy gradient is +/- infinity at this point.

    Happens when some effective weight is exactly 0 on an outcome where the
    baseline and guidance vectors disagree (only possible at sigma = 0 or 1).
    ``sign`` is +1 for divergence to +inf, -1 for -inf.
    """

    def __init__(self, message: str, sign: int):
        super().__init__(message)
        self.sign = sign


class UnreachableGuidance(ValueError):
    """Guidance puts weight on an outcome the baseline makes impossible.

    No diagonal measurement operator can route probability onto a
    zero-amplitude branch, so the construction is rejected outright.
    """


class IncompletePovm(ValueError):
    """Measurement set is not complete against the supplied state."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class InsufficientExpected(ValueError):
    """Pooling low-expected-count cells left fewer than two test cells."""


class DegenerateNull(InsufficientExpected):
    """The null has fewer than two possible outcomes, so no total gives two test cells."""


class ConfigInvalid(ValueError):
    """An experiment config failed validation; ``field`` names the culprit."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class IoFailure(OSError):
    """Reading or writing an experiment artifact failed."""
