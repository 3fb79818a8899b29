"""Probability-vector algebra for the willed-choice model.

An agent's effective choice distribution is the convex blend

    p'_j = sigma * u_j + (1 - sigma) * p_j

of a baseline vector P (what unconstrained disposition dictates) and a
guidance vector U (what deliberation recommends), weighted by a will
strength sigma in [0, 1].  This module holds the vector types, the blend,
Shannon-entropy analytics of the blend (including its sigma-derivative and
a three-way regime classification), and distances between distributions.

All entropies are in bits (log base 2) with the usual 0*log(0) = 0
convention.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    DimensionMismatch,
    DivergentGradient,
    NegativeWeight,
    NotNormalized,
)

# Construction tolerance on sum(weights) == 1; downstream code assumes it.
NORMALIZATION_TOL = 1e-12

# |dH/dsigma| below this counts as stationary in classify_regime.
REGIME_TOL = 1e-9

CERTAINTY_INCREASING = "certainty_increasing"
UNCERTAINTY_INCREASING = "uncertainty_increasing"
STATIONARY = "stationary"


@dataclass(frozen=True)
class ProbabilityVector:
    """Normalized nonnegative weights over a finite choice space.

    Weights are validated on construction: each in [0, 1], summing to 1
    within ``NORMALIZATION_TOL``.  The tuple storage makes instances
    immutable, hashable and safe to share across threads.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        weights = _nonnegative(self.weights, "weight")
        if max(weights) > 1.0 + NORMALIZATION_TOL:
            raise NotNormalized(f"weight {max(weights)!r} exceeds 1")
        cleaned = [min(w, 1.0) for w in weights]  # absorb float overshoot from convex arithmetic
        total = math.fsum(cleaned)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", tuple(cleaned))

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, j: int) -> float:
        return self.weights[j]


@dataclass(frozen=True)
class ChoiceSpace:
    """Ordered, unique outcome labels for one choosing event."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if not all(isinstance(x, str) for x in labels):
            raise ValueError(f"labels must be strings, got {labels!r}")
        if len(labels) == 0:
            raise ValueError("a choice space needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be unique, got {labels!r}")
        object.__setattr__(self, "labels", labels)

    @property
    def dimension(self) -> int:
        return len(self.labels)


def _number(value, what: str) -> float:
    """``value`` as a float if it is a finite real number other than a bool;
    anything else is a ValueError naming ``what``."""
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not (real and abs(value) <= sys.float_info.max):  # False for NaN as well
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _count(value, what: str, least: int = 1, most: int = 2**63 - 1) -> int:
    """``value`` as an int if it is an integer (numpy's too) other than a bool in [least, most],
    by default a count numpy's multinomial takes; anything else is a ValueError naming ``what``."""
    integral = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not (integral and least <= value <= most):
        raise ValueError(f"{what} must be an integer in [{least}, {most}], got {value!r}")
    return int(value)


def _unit_interval(value, what: str) -> float:
    """``value`` as a float in [0, 1]; anything else is a ValueError naming ``what``."""
    if not 0.0 <= _number(value, what) <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {value!r}")
    return float(value)


def _level(alpha) -> float:
    """A significance level: a float in the open interval (0, 1)."""
    if not 0.0 < _number(alpha, "significance level") < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha!r}")
    return float(alpha)


def _epsilon(value) -> float:
    """A deviation threshold: a positive finite float."""
    if not _number(value, "epsilon") > 0.0:
        raise ValueError(f"epsilon must be positive, got {value!r}")
    return float(value)


def _nonnegative(values, what: str) -> list[float]:
    """``values`` as a list of finite nonnegative floats: AllZero when there are
    none, and NegativeWeight naming ``what`` when an entry is anything else."""
    try:
        floats = [_number(value, what) for value in values]
    except ValueError as err:
        raise NegativeWeight(str(err)) from None
    if not floats:
        raise AllZero(f"need at least one {what}")
    if min(floats) < 0.0:
        raise NegativeWeight(f"{what} must be nonnegative, got {min(floats)!r}")
    return floats


def _check_dims(a, b, what: str = "vectors"):
    if len(a) != len(b):
        raise DimensionMismatch(f"{what} have dimensions {len(a)} and {len(b)}")


def make_distribution(weights, normalize: bool = False) -> ProbabilityVector:
    """Build a ProbabilityVector from raw weights.

    With ``normalize`` the weights are divided by their sum; otherwise they
    must already sum to 1 within ``NORMALIZATION_TOL``.

    Raises NegativeWeight, AllZero, or NotNormalized.
    """
    ws = _nonnegative(weights, "weight")
    total = math.fsum(ws)
    if total == 0.0:
        raise AllZero("weights sum to zero")
    if normalize:
        ws = [w / total for w in ws]
    return ProbabilityVector(tuple(ws))


def uniform_distribution(n: int) -> ProbabilityVector:
    """The uniform vector over n outcomes."""
    n = _count(n, "outcome count")
    return ProbabilityVector((1.0 / n,) * n)


def exercise_will(
    nature: ProbabilityVector,
    understanding: ProbabilityVector,
    will: float,
) -> ProbabilityVector:
    """Blend baseline and guidance: p'_j = sigma*u_j + (1-sigma)*p_j.

    At sigma = 0 the result equals ``nature`` exactly; at sigma = 1 it
    equals ``understanding`` exactly (the float arithmetic preserves this).
    """
    _check_dims(nature, understanding, "nature and understanding")
    sigma = _unit_interval(will, "will strength")
    return ProbabilityVector(tuple(_blend_grid(nature, understanding, [sigma])[0].tolist()))


def _blend_grid(nature: ProbabilityVector, understanding: ProbabilityVector, sigmas) -> np.ndarray:
    """The unclamped blend s*u + (1-s)*p at each sigma, as a (len(sigmas), d) array.

    This is the one place the blend is computed: each row has the bits of
    ``exercise_will`` before ProbabilityVector clamps a weight just above 1.
    The sigmas must already lie in [0, 1].
    """
    s = np.asarray(sigmas, dtype=float)[:, None]
    return s * np.asarray(understanding.weights) + (1.0 - s) * np.asarray(nature.weights)


def _blend_weights(nature: ProbabilityVector, understanding: ProbabilityVector, sigmas) -> np.ndarray:
    """The weights of ``exercise_will`` at each sigma: the blend grid with
    ProbabilityVector's clamp of a weight just above 1."""
    return np.minimum(_blend_grid(nature, understanding, sigmas), 1.0)


def unpredictability(dist: ProbabilityVector) -> float:
    """Shannon entropy of the distribution in bits, in [0, log2 n]."""
    return _entropy(dist.weights)


def _entropy(weights) -> float:
    """``unpredictability`` of plain weights."""
    h = -math.fsum(w * math.log2(w) for w in weights if w > 0.0)
    return h + 0.0  # normalize -0.0 from degenerate vectors


def entropy_gradient(
    nature: ProbabilityVector,
    understanding: ProbabilityVector,
    will: float,
) -> float:
    """d/dsigma of unpredictability(exercise_will(...)), in bits per unit sigma.

    Analytic form: -sum_j (u_j - p_j) * log2(p'_j).  The additional
    sum(u_j - p_j)/ln2 term of the raw derivative vanishes because both
    vectors are normalized.

    Raises DivergentGradient when some p'_j = 0 on an outcome where
    u_j != p_j (the gradient is +inf at sigma=0 supports, -inf at sigma=1
    supports); the error carries the sign rather than clipping the value.
    """
    blended = exercise_will(nature, understanding, will).weights
    grad = _gradient(nature.weights, understanding.weights, blended)
    if math.isinf(grad):
        raise DivergentGradient(
            f"entropy gradient diverges to {'+' if grad > 0.0 else '-'}inf "
            "(zero effective weight where nature and understanding differ)",
            sign=1 if grad > 0.0 else -1,
        )
    return grad


def _gradient(nature, understanding, blended) -> float:
    """``entropy_gradient`` from the weights of P, U and a blend the caller
    has already computed; a divergence is +/-inf."""
    grad = 0.0
    divergent = 0.0
    for p, u, q in zip(nature, understanding, blended):
        d = u - p
        if d == 0.0:
            continue
        if q == 0.0:
            divergent += d
            continue
        grad -= d * math.log2(q)
    if divergent != 0.0:
        return math.copysign(math.inf, divergent)
    return grad


def classify_regime(
    nature: ProbabilityVector,
    understanding: ProbabilityVector,
    will: float,
) -> str:
    """Sign of dH/dsigma as a three-way label.

    certainty_increasing when more will sharpens the choice (gradient below
    -REGIME_TOL), uncertainty_increasing when it flattens it, stationary in
    between.  Divergent gradients classify by the sign of the divergence.
    """
    blended = exercise_will(nature, understanding, will).weights
    return _regime(_gradient(nature.weights, understanding.weights, blended))


def _regime(grad: float) -> str:
    """Regime label of a gradient; a divergence is passed as +/-inf."""
    if grad < -REGIME_TOL:
        return CERTAINTY_INCREASING
    if grad > REGIME_TOL:
        return UNCERTAINTY_INCREASING
    return STATIONARY


def total_variation(a: ProbabilityVector, b: ProbabilityVector) -> float:
    """Total variation distance (1/2) sum |a_j - b_j|, in [0, 1]."""
    _check_dims(a, b)
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a.weights, b.weights))


def kl_divergence(a: ProbabilityVector, b: ProbabilityVector) -> float:
    """Relative entropy sum a_j log2(a_j / b_j) in bits.

    Returns +inf when a puts weight where b has none (support violation is
    reported as the distinguished value, not an exception); 0*log(0/x) = 0.
    """
    _check_dims(a, b)
    total = 0.0
    for x, y in zip(a.weights, b.weights):
        if x == 0.0:
            continue
        if y == 0.0:
            return math.inf
        total += x * math.log2(x / y)
    return total
