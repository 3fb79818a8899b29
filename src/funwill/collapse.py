"""Directed wavefunction collapse realizing the willed-choice blend.

The pipeline has three steps:

1. ``prepare_state``  — encode the baseline vector P as a real amplitude
   state |psi> with amplitudes sqrt(p_j) over the outcome basis.
2. ``build_povm``     — construct diagonal measurement operators
   M_j = c_j |j><j| with c_j = sqrt((sigma*u_j + (1-sigma)*p_j) / p_j).
   The set is *state-dependent*: it satisfies the completeness condition
   sum_j (c_j a_j)^2 = 1 only against the state it was built for, which is
   what makes the measurement nonlinear.  At sigma = 0 every c_j is 1 and
   the measurement is an ordinary projective one.
3. ``collapse``       — sample outcome j with probability (c_j a_j)^2 and
   project onto the basis vector |j>; ``collapse_many`` draws many outcome
   indices at once by the same inverse-CDF rule.

Sampling outcome probabilities from a state prepared from P reproduces the
classical blend exactly: (c_j a_j)^2 = sigma*u_j + (1-sigma)*p_j.  With
sigma > 0 those probabilities deviate from the squared-amplitude (Born)
statistics of the prepared state, which is what the detection suite in
``detect`` looks for.

Amplitudes are kept real and nonnegative: the preparation uses sqrt(p_j)
with no phases, and all operators are diagonal, so phases would be
unobservable here anyway.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .distributions import ProbabilityVector, WillStrength, _as_sigma, _blend_grid, _check_dims
from .errors import DimensionMismatch, IncompletePovm, NotNormalized, UnreachableGuidance

# Completeness residual above this rejects the povm/state pairing.
COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class AmplitudeState:
    """Real nonnegative amplitude vector with unit 2-norm."""

    amplitudes: tuple[float, ...]

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        if len(amps) == 0:
            raise ValueError("a state needs at least one basis vector")
        for a in amps:
            if not math.isfinite(a) or a < 0.0:
                raise ValueError(f"amplitude {a!r} is not a finite nonnegative number")
        norm_sq = math.fsum(a * a for a in amps)
        if abs(norm_sq - 1.0) > 1e-12:
            raise NotNormalized(f"squared amplitudes sum to {norm_sq!r}, not 1")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)

    @classmethod
    @functools.lru_cache(maxsize=1024)
    def basis(cls, index: int, dimension: int) -> "AmplitudeState":
        """The basis vector |index> in the given dimension.

        Memoized: each basis state is validated once and then shared, which
        is safe because the class is frozen.
        """
        if not 0 <= index < dimension:
            raise ValueError(f"basis index {index} out of range for dimension {dimension}")
        return cls(tuple(1.0 if j == index else 0.0 for j in range(dimension)))


@dataclass(frozen=True)
class PovmSet:
    """Diagonal measurement operators M_j = c_j |j><j|, held as their coefficients.

    Whether the set was built for a state shows only in the completeness
    residual against it (``check_completeness``).
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("a measurement set needs at least one operator")
        for c in coeffs:
            if not math.isfinite(c) or c < 0.0:
                raise ValueError(f"coefficient {c!r} is not a finite nonnegative number")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dimension(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class CollapseOutcome:
    """One sampled collapse: outcome ``index`` of a ``dimension``-outcome measurement."""

    index: int
    dimension: int

    def __post_init__(self):
        if not 0 <= self.index < self.dimension:
            raise ValueError(f"outcome index {self.index} out of range for dimension {self.dimension}")

    @property
    def post_state(self) -> AmplitudeState:
        """The basis vector |index>: each operator is rank-one diagonal."""
        return AmplitudeState.basis(self.index, self.dimension)


def prepare_state(nature: ProbabilityVector) -> AmplitudeState:
    """Encode a baseline distribution as amplitudes sqrt(p_j)."""
    return AmplitudeState(tuple(math.sqrt(p) for p in nature.weights))


def build_povm(
    nature: ProbabilityVector,
    understanding: ProbabilityVector,
    will: WillStrength | float,
) -> PovmSet:
    """Construct the state-dependent measurement for a (P, U, sigma) triple.

    c_j = sqrt((sigma*u_j + (1-sigma)*p_j) / p_j) on the support of P, and
    0 where p_j = 0; where the quotient overflows (a subnormal p_j) it is
    taken as sqrt(numerator) / sqrt(p_j).  Raises UnreachableGuidance when
    sigma > 0 and the guidance puts weight on an outcome with p_j = 0: the
    formula divides by p_j there, and no diagonal operator acting on a zero
    amplitude can make the completeness sum reach 1.
    """
    _check_dims(nature, understanding, "nature and understanding")
    sigma = _as_sigma(will)
    unreachable = _unreachable(nature, understanding)
    if sigma > 0.0 and unreachable is not None:
        raise unreachable
    return PovmSet(tuple(_coefficients(nature, understanding, (sigma,))[0].tolist()))


def _unreachable(nature: ProbabilityVector, understanding: ProbabilityVector) -> UnreachableGuidance | None:
    """The error for the first outcome guidance wants but the baseline rules out, if any.

    Raise it for every sigma > 0.
    """
    for j, (p, u) in enumerate(zip(nature.weights, understanding.weights)):
        if p == 0.0 and u > 0.0:
            return UnreachableGuidance(
                f"guidance weight {u} on outcome {j} is unreachable: "
                "the baseline assigns it zero probability"
            )
    return None


def _coefficients(nature: ProbabilityVector, understanding: ProbabilityVector, sigmas) -> np.ndarray:
    """The coefficients of ``build_povm`` at each sigma, as a (len(sigmas), d) array.

    c_j = sqrt(q_j / p_j) for the unclamped blend q, and 0 where p_j = 0
    (the caller has ruled out guidance there).  Division and square root
    are correctly rounded, so each entry has the bits of the scalar formula.
    Where q_j / p_j overflows (a subnormal p_j), c_j = sqrt(q_j) / sqrt(p_j),
    which is finite.
    """
    p = np.asarray(nature.weights)
    q = _blend_grid(nature, understanding, sigmas)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.where(p > 0.0, np.sqrt(q / p), 0.0)
        return np.where(np.isinf(c), np.sqrt(q) / np.sqrt(p), c)


def check_completeness(povm: PovmSet, state: AmplitudeState) -> float:
    """Residual |sum_j (c_j a_j)^2 - 1| of the completeness condition.

    Zero (within COMPLETENESS_TOL) against the state the set was built
    for; generically nonzero against any other state.
    """
    return abs(_terms(povm.coefficients, state.amplitudes)[1] - 1.0)


def _terms(coefficients, amplitudes) -> tuple[list[float], float]:
    """The completeness terms (c_j a_j)^2 of plain floats and their fsum; raises DimensionMismatch."""
    if len(coefficients) != len(amplitudes):
        raise DimensionMismatch(f"povm has dimension {len(coefficients)}, state {len(amplitudes)}")
    try:
        terms = [(c * a) ** 2 for c, a in zip(coefficients, amplitudes)]
        return terms, math.fsum(terms)
    except OverflowError:  # float ** and fsum raise past the largest double
        return [], math.inf  # no caller reads the terms of an infinite sum


def _realized(coefficients, amplitudes) -> tuple[list[float], float]:
    """Outcome probabilities q_j = (c_j a_j)^2 / sum_k (c_k a_k)^2 of plain
    floats, and the completeness residual.

    Raises DimensionMismatch, or IncompletePovm when the residual exceeds
    COMPLETENESS_TOL.
    """
    raw, total = _terms(coefficients, amplitudes)
    residual = abs(total - 1.0)
    if residual > COMPLETENESS_TOL:
        raise IncompletePovm(
            f"completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e}; "
            "this measurement set was not built for this state",
            residual=residual,
        )
    return [q / total for q in raw], residual


def _pick(cdf, u: float) -> int:
    """Inverse-CDF lookup: the first j with u < cdf[j], else the last outcome.

    The fallback catches u at or above a cumulative total that rounding
    left just below 1.
    """
    return min(bisect_right(cdf, u), len(cdf) - 1)


@functools.lru_cache(maxsize=128)
def _table(povm: PovmSet, state: AmplitudeState) -> tuple[tuple, tuple, tuple[CollapseOutcome, ...]]:
    """(weights, running sums, one shared outcome per index) of a validated pair.

    Memoized: the classes are frozen values and equal pairs give identical
    bits.  Errors are not cached, so a bad pair raises on every call.
    """
    weights = tuple(_realized(povm.coefficients, state.amplitudes)[0])
    d = len(weights)
    return weights, tuple(accumulate(weights)), tuple(CollapseOutcome(j, d) for j in range(d))


def outcome_distribution(povm: PovmSet, state: AmplitudeState) -> ProbabilityVector:
    """Outcome probabilities q_j = (c_j a_j)^2 of measuring ``state``.

    Requires the completeness residual to be within COMPLETENESS_TOL
    (raises IncompletePovm otherwise).  For a set built from (P, U, sigma)
    applied to prepare_state(P), q equals the classical blend
    sigma*U + (1-sigma)*P to within float rounding.
    """
    return ProbabilityVector(_table(povm, state)[0])


def collapse(
    povm: PovmSet, state: AmplitudeState, rng: np.random.Generator
) -> CollapseOutcome:
    """Sample one directed collapse: outcome j, with post-state |j>.

    j is drawn by inverse-CDF over ``outcome_distribution`` using a single
    uniform from the caller's stream.  No global randomness: reproducibility
    is entirely the caller's seed discipline.  Each pair is validated once
    (memoized); a bad pair raises on every call, before any draw.  Outcomes
    are shared immutable instances: compare with ``==`` or ``.index``.
    """
    _, cdf, outcomes = _table(povm, state)
    return outcomes[_pick(cdf, rng.random())]


def collapse_many(
    povm: PovmSet, state: AmplitudeState, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Outcome indices of ``size`` directed collapses, as an integer array.

    Searches the memoized CDF of ``collapse`` with exactly ``size`` uniforms
    from ``rng``, so the result equals the indices of ``size`` sequential
    ``collapse`` calls on the same generator (``Generator.random(size)``
    yields the same doubles as repeated scalar calls).
    """
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 0:
        raise ValueError(f"size must be a nonnegative integer, got {size!r}")
    cdf = np.asarray(_table(povm, state)[1])
    return np.minimum(np.searchsorted(cdf, rng.random(int(size)), side="right"), len(cdf) - 1)
