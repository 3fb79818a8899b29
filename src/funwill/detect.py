"""Monte Carlo harness and hypothesis tests for Born-rule deviations.

The question this module answers quantitatively: when an agent's will
strength sigma distorts the sampling distribution away from the baseline
(Born) statistics, can the distortion be detected from outcome counts, at
what sample size, and how badly does classical noise mask it?

Detectors are frequency-based: ``simulate_trials`` draws seeded multinomial
counts, ``chi_squared_test`` runs Pearson's goodness-of-fit against a null
distribution, ``detection_power`` Monte-Carlo-estimates the rejection rate
under a sigma-distorted alternative, and ``apply_noise`` mixes in a uniform
component (the simplest depolarizing-style stand-in for decoherence and
measurement noise, which degrades distinguishability symmetrically).
``lln_concentration`` demonstrates the weak-law squeeze on sample means
that motivates the whole exercise.

Seeding: ``detection_power`` and ``lln_concentration`` draw their
replications through one loop, ``_hit_rate``, in blocks of at most
``BLOCK`` rows.  Block b of a power estimate samples from
``derive_seed(seed, b)``, block b of schedule entry i of a weak-law
estimate from ``derive_seed(seed, i, b)``, so blocks are order-independent
and parallel-safe, and any block replays alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ProbabilityVector, WillStrength, _as_sigma, _blend_weights, _check_dims, _unit_interval,
)
from .errors import DegenerateNull, DimensionMismatch, InsufficientExpected
from .seeding import derive_seed, validate_seed
from .special import chi_squared_isf, chi_squared_sf

# Pearson cells need expected count >= POOL_THRESHOLD; smaller ones pool.
POOL_THRESHOLD = 5.0

# Replications drawn per seeded block by the Monte Carlo estimators.
BLOCK = 1024

# Statistics within this relative distance of the critical value are
# re-decided through their p-values.  The band covers the error of the
# computed critical value, so batched verdicts equal per-row
# ``p_value < alpha`` (see critical_band for the one case where it widens).
CRITICAL_BAND = 1e-6

CONSISTENT = "consistent"
DEVIATION = "deviation"


@dataclass(frozen=True)
class TrialCounts:
    """Outcome tallies from one seeded multinomial run."""

    counts: tuple[int, ...]
    total: int
    seed: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be nonnegative, got {counts}")
        if sum(counts) != self.total or self.total < 1:
            raise ValueError(f"total {self.total} does not match counts summing to {sum(counts)}")
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> ProbabilityVector:
        return ProbabilityVector(tuple(c / self.total for c in self.counts))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one goodness-of-fit test."""

    __test__ = False  # keep pytest from collecting this as a test class

    statistic: float
    p_value: float
    dof: int
    verdict: str

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")
        if self.dof < 1:
            raise ValueError(f"dof must be >= 1, got {self.dof}")
        if self.verdict not in (CONSISTENT, DEVIATION):
            raise ValueError(f"verdict must be consistent/deviation, got {self.verdict!r}")


@dataclass(frozen=True)
class NoiseLevel:
    """Mixing weight of the uniform distribution, in [0, 1]."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _unit_interval(self.lam, "noise level"))


def _as_lam(noise: NoiseLevel | float) -> float:
    return noise.lam if isinstance(noise, NoiseLevel) else _unit_interval(float(noise), "noise level")


def simulate_trials(dist: ProbabilityVector, n: int, seed: int) -> TrialCounts:
    """Draw n multinomial trials from ``dist`` with an explicit seed.

    Identical (dist, n, seed) always reproduces identical counts.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    seed = validate_seed(seed)
    counts = np.random.default_rng(seed).multinomial(n, dist.weights)
    return TrialCounts(counts=tuple(counts), total=n, seed=seed)


@dataclass(frozen=True)
class PoolingPlan:
    """How Pearson's test groups the cells of a null at a fixed total.

    ``kept`` cells are tested on their own, ``pooled`` cells merge into one
    trailing test cell and ``impossible`` (zero-expected) cells are left
    out.  ``expected`` holds the expected count of each test cell, pooled
    cell last.  The plan depends only on the null and the total, so a batch
    of replications shares one.
    """

    kept: tuple[int, ...]
    pooled: tuple[int, ...]
    impossible: tuple[int, ...]
    expected: tuple[float, ...]
    dof: int


def pooling_plan(expected: ProbabilityVector, total: int) -> PoolingPlan:
    """Pool cells with expected count below POOL_THRESHOLD, drop zero-expected ones.

    Raises InsufficientExpected when fewer than two test cells remain, and
    its subclass DegenerateNull when no total could leave two.
    """
    kept, pooled, impossible = [], [], []
    cells: list[float] = []
    pooled_e = 0.0
    for j, p in enumerate(expected.weights):
        e = p * total
        if e == 0.0:
            impossible.append(j)
        elif e < POOL_THRESHOLD:
            pooled.append(j)
            pooled_e += e
        else:
            kept.append(j)
            cells.append(e)
    if pooled:
        cells.append(pooled_e)
    possible = expected.dimension - len(impossible)
    if possible < 2:
        raise DegenerateNull(f"the null has {possible} outcome(s) of positive probability; need at least 2")
    if len(cells) < 2:
        raise InsufficientExpected(
            f"only {len(cells)} cell(s) left after pooling below {POOL_THRESHOLD}; "
            "need at least 2"
        )
    return PoolingPlan(tuple(kept), tuple(pooled), tuple(impossible), tuple(cells), len(cells) - 1)


def chi_squared_test(
    observed: TrialCounts, expected: ProbabilityVector, alpha: float
) -> TestReport:
    """Pearson goodness-of-fit of observed counts against a null distribution.

    Cells are grouped by ``pooling_plan``: those whose expected count falls
    below POOL_THRESHOLD are pooled into a single cell; zero-expected cells
    are dropped (any observation landing in one makes the statistic infinite
    and the p-value 0).  dof is the number of cells actually tested minus
    one.  Verdict is ``deviation`` iff p-value < alpha.
    """
    if len(observed.counts) != expected.dimension:
        raise DimensionMismatch(
            f"counts have {len(observed.counts)} cells, expected vector {expected.dimension}"
        )
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha}")
    plan = pooling_plan(expected, observed.total)
    ((statistic, p_value, verdict),) = pearson_tests(np.array([observed.counts]), plan, alpha)
    return TestReport(statistic=statistic, p_value=p_value, dof=plan.dof, verdict=verdict)


def pearson_statistics(counts: np.ndarray, plan: PoolingPlan) -> np.ndarray:
    """Pearson statistic of every row of a (rows, cells) count array.

    Each row adds its test cells' terms ``(o - e)**2 / e`` left to right,
    pooled cell last, so a row has the same statistic in a block of any
    size.  Rows with a hit on an impossible cell get +inf, and so do rows
    whose quotient on a cell of tiny expected count overflows.
    """
    observed = counts[:, plan.kept]
    if plan.pooled:
        pooled = counts[:, plan.pooled].sum(axis=1, keepdims=True)
        observed = np.concatenate([observed, pooled], axis=1)
    expected = np.asarray(plan.expected)
    with np.errstate(over="ignore"):
        statistic = functools.reduce(np.add, ((observed - expected) ** 2 / expected).T)
    if plan.impossible:
        statistic[counts[:, plan.impossible].any(axis=1)] = math.inf
    return statistic


def pearson_tests(counts: np.ndarray, plan: PoolingPlan, alpha: float) -> list[tuple[float, float, str]]:
    """Statistic, p-value and verdict of ``chi_squared_test`` for each row of
    a (rows, cells) count array whose common total ``plan`` was made for."""
    reports = []
    for statistic in pearson_statistics(counts, plan).tolist():
        p_value = chi_squared_sf(statistic, plan.dof)
        reports.append((statistic, p_value, DEVIATION if p_value < alpha else CONSISTENT))
    return reports


def critical_band(alpha: float, dof: int) -> tuple[float, float]:
    """Critical value of a level-alpha test and the relative band around it.

    Statistics farther than the band from the critical value are decided
    by comparison alone.  Below alpha = 1/2 the in-house tail resolves
    CRITICAL_BAND there.  Above it, near alpha = 1 where sf = 1 - P is flat
    to rounding, the band edges are checked, and if they do not bracket
    alpha the band is infinite: every row is decided by chi_squared_test.
    """
    critical = chi_squared_isf(alpha, dof)
    if alpha > 0.5:
        below = chi_squared_sf(critical * (1.0 - CRITICAL_BAND), dof)
        above = chi_squared_sf(critical * (1.0 + CRITICAL_BAND), dof)
        if not below >= alpha > above:
            return critical, math.inf
    return critical, CRITICAL_BAND


def deviation_verdicts(
    counts: np.ndarray, plan: PoolingPlan, alpha: float, critical: float, band: float
) -> np.ndarray:
    """Per-row ``chi_squared_test(...).verdict == DEVIATION`` for a count array.

    ``plan`` must be the null's ``pooling_plan`` for the rows' common total,
    and ``critical, band`` must be ``critical_band(alpha, plan.dof)``.  Rows
    are decided against the critical value; rows whose statistic lies
    within the relative band of it are re-decided by ``pearson_tests``.
    """
    statistic = pearson_statistics(counts, plan)
    deviates = statistic > critical * (1.0 + band)
    near = ~deviates & (statistic >= critical * (1.0 - band))
    if near.any():
        deviates[near] = [verdict == DEVIATION for *_, verdict in pearson_tests(counts[near], plan, alpha)]
    return deviates


def _hit_rate(decide, n: int, weights, reps: int, seed: int, *path: int) -> float:
    """Fraction of ``reps`` multinomial replications of n trials that ``decide`` flags.

    ``decide`` maps a (rows, cells) count block to a boolean array.  Blocks
    hold at most BLOCK rows, and block b draws from
    ``default_rng(derive_seed(seed, *path, b))``.
    """
    hits = 0
    for b, start in enumerate(range(0, reps, BLOCK)):
        rows = min(BLOCK, reps - start)
        counts = np.random.default_rng(derive_seed(seed, *path, b)).multinomial(n, weights, size=rows)
        hits += int(np.count_nonzero(decide(counts)))
    return hits / reps


def apply_noise(dist: ProbabilityVector, noise: NoiseLevel | float) -> ProbabilityVector:
    """Mix a uniform component into a distribution: (1-lam)*dist + lam*uniform."""
    return ProbabilityVector(tuple(_noisy(np.asarray(dist.weights), _as_lam(noise)).tolist()))


def _noisy(weights: np.ndarray, lam: float) -> np.ndarray:
    """``apply_noise``'s channel along the last axis, clamped at 1 as ProbabilityVector does."""
    return np.minimum((1.0 - lam) * weights + lam * (1.0 / weights.shape[-1]), 1.0)


def detection_power(
    nature: ProbabilityVector,
    understanding: ProbabilityVector,
    will: WillStrength | float,
    n: int,
    alpha: float,
    reps: int,
    seed: int,
    noise: NoiseLevel | float = 0.0,
) -> float:
    """Monte Carlo power of the chi-squared detector against a willed blend.

    Each replication samples n trials from the blended distribution and
    tests them against the baseline (the Born null) with the verdict of
    ``chi_squared_test``; replications are drawn in seeded blocks (see the
    module docstring) and tested as arrays.  The return value is
    the fraction of replications declaring deviation.  At sigma = 0 this
    estimates the type-I error rate, so it calibrates to roughly alpha.

    ``noise`` mixes the same uniform component into both the sampling
    distribution and the null, modeling a detector that sees the blend
    only through a noisy channel.
    """
    return _power_curve(nature, understanding, [will], [seed], n, alpha, reps, noise)[0]


def _power_curve(nature, understanding, sigmas, seeds, n, alpha, reps, noise) -> list[float]:
    """``detection_power`` at each (sigma, seed) pair, with one null, plan and
    critical value.  Each alternative has the bits of ``apply_noise(exercise_will(...))``."""
    if reps < 100:
        raise ValueError(f"need at least 100 replications for a stable estimate, got {reps}")
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha}")
    lam = _as_lam(noise)
    _check_dims(nature, understanding, "nature and understanding")
    sigmas = [_as_sigma(will) for will in sigmas]
    seeds = [validate_seed(seed) for seed in seeds]
    null = apply_noise(nature, lam)
    plan = pooling_plan(null, n)
    critical, band = critical_band(alpha, plan.dof)
    alternatives = _noisy(_blend_weights(nature, understanding, sigmas), lam)
    decide = functools.partial(deviation_verdicts, plan=plan, alpha=alpha, critical=critical, band=band)
    return [_hit_rate(decide, n, weights, reps, seed) for weights, seed in zip(alternatives, seeds)]


def _scaled_moments(dist: ProbabilityVector, payoff) -> tuple[float, list[float], float, float]:
    """s, a power of two near max|v|, the payoffs v/s and their mean and variance under ``dist``.

    Dividing by a power of two is exact, so finite results keep their bits,
    and the scaled moments are finite for every finite payoff (|v/s| < 2).
    """
    values = [float(v) for v in payoff]
    if len(values) != dist.dimension:
        raise DimensionMismatch(f"payoff has {len(values)} entries, distribution {dist.dimension}")
    # The exponent is one below frexp's so that s stays finite near the largest double.
    s = math.ldexp(1.0, math.frexp(max(map(abs, values)))[1] - 1)
    scaled = [v / s for v in values]
    mean = math.fsum(w * v for w, v in zip(dist.weights, scaled))
    var = math.fsum(w * v * v for w, v in zip(dist.weights, scaled)) - mean * mean
    return s, scaled, mean, max(0.0, var)


def chebyshev_bound(dist: ProbabilityVector, payoff, epsilon: float, n: int) -> float:
    """Chebyshev cap Var/(n*eps^2) on Pr[|sample mean - mean| > eps]."""
    s, _, _, var = _scaled_moments(dist, payoff)
    denominator = n * (epsilon / s) * (epsilon / s)
    if denominator > 0.0:
        return var / denominator
    # n*eps^2 underflowed to 0: the cap is inf on a positive variance.
    return math.inf if var > 0.0 else 0.0


def lln_concentration(
    dist: ProbabilityVector,
    payoff,
    epsilon: float,
    n_schedule,
    reps: int,
    seed: int,
) -> list[tuple[int, float]]:
    """Estimate Pr[|sample mean - mean| > eps] across a schedule of n.

    For each n the probability is the Monte Carlo fraction of ``reps``
    seeded runs whose payoff sample mean strays more than epsilon from the
    exact mean.  Estimates are nonincreasing in n up to Monte Carlo error
    (the weak-law squeeze) and sit below the Chebyshev cap Var/(n*eps^2).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if reps < 1:
        raise ValueError(f"need at least one replication, got {reps}")
    s, scaled, mean, _ = _scaled_moments(dist, payoff)
    seed = validate_seed(seed)
    schedule = [int(n) for n in n_schedule]
    for n in schedule:
        if n < 1:
            raise ValueError(f"trial count must be >= 1, got {n}")
    return [
        (n, _hit_rate(lambda counts: np.abs(counts @ scaled / n - mean) > epsilon / s,
                      n, dist.weights, reps, seed, i))
        for i, n in enumerate(schedule)
    ]
