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

from .distributions import ProbabilityVector, _blend_grid, _check_dims, _count, _nonnegative, _unit_interval
from .errors import IncompletePovm, NotNormalized, UnreachableGuidance

# Completeness residual above this rejects the povm/state pairing.
COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class AmplitudeState:
    """Real nonnegative amplitude vector with unit 2-norm.

    The hash of ``amplitudes`` is computed once, at construction, and is
    not a field: equal states still compare and hash equal.
    """

    amplitudes: tuple[float, ...]

    def __post_init__(self):
        amps = tuple(_nonnegative(self.amplitudes, "amplitude"))
        try:
            norm_sq = math.fsum(a * a for a in amps)
        except OverflowError:  # fsum raises when the sum passes the largest double
            raise NotNormalized("squared amplitudes sum past the largest double, not to 1") from None
        if abs(norm_sq - 1.0) > 1e-12:
            raise NotNormalized(f"squared amplitudes sum to {norm_sq!r}, not 1")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_hash", hash(amps))

    def __hash__(self):
        return self._hash

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
        _count(index, "basis index", least=0, most=dimension - 1)
        return cls(tuple(1.0 if j == index else 0.0 for j in range(dimension)))


@dataclass(frozen=True)
class PovmSet:
    """Diagonal measurement operators M_j = c_j |j><j|, held as their coefficients.

    Whether the set was built for a state shows only in the completeness
    residual against it (``check_completeness``).  As with AmplitudeState,
    the hash of ``coefficients`` is computed once, at construction.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(_nonnegative(self.coefficients, "coefficient"))
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_hash", hash(coeffs))

    def __hash__(self):
        return self._hash

    @property
    def dimension(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class CollapseOutcome:
    """One sampled collapse: outcome ``index`` of a ``dimension``-outcome measurement."""

    index: int
    dimension: int

    def __post_init__(self):
        _count(self.index, "outcome index", least=0, most=self.dimension - 1)

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
    will: float,
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
    sigma = _unit_interval(will, "will strength")
    return PovmSet(tuple(next(_povm_rows(nature, understanding, [sigma]))))


def _unreachable(nature: ProbabilityVector, understanding: ProbabilityVector) -> UnreachableGuidance | None:
    """The error for the first outcome guidance wants but the baseline rules out, if any."""
    for j, (p, u) in enumerate(zip(nature.weights, understanding.weights)):
        if p == 0.0 and u > 0.0:
            return UnreachableGuidance(
                f"guidance weight {u} on outcome {j} is unreachable: "
                "the baseline assigns it zero probability"
            )
    return None


def _povm_rows(nature: ProbabilityVector, understanding: ProbabilityVector, sigmas):
    """The coefficients of ``build_povm`` at each sigma, one lazy row of plain floats each.

    The grid is computed once, with the bits of the scalar formula.  Before
    the first row with sigma > 0, raises the first unreachable outcome's error.
    """
    p = np.asarray(nature.weights)
    q = _blend_grid(nature, understanding, sigmas)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.where(p > 0.0, np.sqrt(q / p), 0.0)
        grid = np.where(np.isinf(c), np.sqrt(q) / np.sqrt(p), c)
    unreachable = _unreachable(nature, understanding)
    for sigma, row in zip(sigmas, grid.tolist()):
        if sigma > 0.0 and unreachable is not None:
            raise unreachable
        yield row


def _realized_rows(nature: ProbabilityVector, understanding: ProbabilityVector, sigmas):
    """``_realized`` of each ``_povm_rows`` row against ``prepare_state(nature)``:
    lazy, so each row's model errors surface in row order."""
    amplitudes = prepare_state(nature).amplitudes
    return (_realized(row, amplitudes) for row in _povm_rows(nature, understanding, sigmas))


def check_completeness(povm: PovmSet, state: AmplitudeState) -> float:
    """Residual |sum_j (c_j a_j)^2 - 1| of the completeness condition.

    Zero (within COMPLETENESS_TOL) against the state the set was built
    for; generically nonzero against any other state.
    """
    return abs(_terms(povm.coefficients, state.amplitudes)[1] - 1.0)


def _terms(coefficients, amplitudes) -> tuple[list[float], float]:
    """The completeness terms (c_j a_j)^2 of plain floats and their fsum; raises DimensionMismatch."""
    _check_dims(coefficients, amplitudes, "povm and state")
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


def _thresholds(weights) -> tuple[float, ...]:
    """The first d-1 running sums of d weights: the inverse-CDF table of every sampler.

    ``bisect_right(thresholds, u)`` is the index the sequential loop
    ``acc += w; if u < acc: return j`` returns, and d-1 when no running sum
    before the last exceeds u.  So a u at or above a total that rounding
    left just below 1 falls to the last outcome with no clamp: the total
    itself is never compared.
    """
    return tuple(accumulate(weights[:-1]))


@functools.lru_cache(maxsize=128)
def _table(povm: PovmSet, state: AmplitudeState) -> tuple[tuple, tuple, tuple[CollapseOutcome, ...]]:
    """(weights, ``_thresholds``, one shared outcome per index) of a validated pair.

    Memoized: the classes are frozen values, hashed once each, and equal
    pairs give identical bits.  Errors are not cached, so a bad pair raises
    on every call.
    """
    weights = tuple(_realized(povm.coefficients, state.amplitudes)[0])
    d = len(weights)
    return weights, _thresholds(weights), tuple(CollapseOutcome(j, d) for j in range(d))


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
    uniform from the caller's stream: a binary search of the pair's d-1
    thresholds (``_thresholds``), so a uniform at or above the total lands
    on the last outcome.  No global randomness: reproducibility is entirely
    the caller's seed discipline.  Each pair is validated once (memoized on
    hashes computed at construction); a bad pair raises on every call,
    before any draw.  Outcomes are shared immutable instances: compare with
    ``==`` or ``.index``.
    """
    _, thresholds, outcomes = _table(povm, state)
    return outcomes[bisect_right(thresholds, rng.random())]


def collapse_many(
    povm: PovmSet, state: AmplitudeState, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Outcome indices of ``size`` directed collapses, as an integer array.

    Searches the memoized d-1 thresholds of ``collapse`` with exactly
    ``size`` uniforms from ``rng`` (``searchsorted(side="right")`` is
    ``bisect_right``), so the result equals the indices of ``size``
    sequential ``collapse`` calls on the same generator
    (``Generator.random(size)`` yields the same doubles as repeated scalar
    calls).
    """
    size = _count(size, "size", least=0)
    thresholds = np.asarray(_table(povm, state)[1])
    return np.searchsorted(thresholds, rng.random(size), side="right")
