"""The upper regularized incomplete gamma function and the chi-squared tail.

Only the shapes dof/2 reach ``regularized_gamma_q``, and for whole and
half-integer shapes the upper regularized gamma is a finite sum of
positive terms (Abramowitz & Stegun 1964, 26.4):

    Q(k, x)       = sum_{i<k} x^i e^-x / i!
    Q(k + 1/2, x) = erfc(sqrt x) + sum_{i<k} x^(i+1/2) e^-x / Gamma(i + 3/2)

Each term is formed in logs, exp(s log x - x - lgamma(s + 1)), so no power
or factorial overflows on its own and nothing cancels.  The terms rise to
a peak near s = x and fall after it, each x/(s + 1) times the last, so the
sum stops at the first term past the peak (s > x) that underflows to 0:
every later term is 0 as well, and the sum keeps its bits.  It costs
O(dof) elementary calls at most and has no iteration that can fail to
converge.  Its relative error grows with dof through the rounding of each
exponent: against mpmath it is under 1e-12 up to dof 3,000 and under
1e-11 at dof 20,000.  This keeps the statistics stack free of any
external dependency.

``chi_squared_isf`` inverts the upper tail: it returns the critical value
of a level-alpha test, so a batch of statistics can be decided against
one number instead of one survival-function call each.
"""

from __future__ import annotations

import math

_MAX_ITER = 500


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for a a positive multiple of 1/2."""
    if not (a > 0.0 and (2.0 * a).is_integer()):  # False for NaN as well
        raise ValueError(f"shape parameter must be a positive multiple of 1/2, got {a}")
    if not x >= 0.0:  # True for NaN as well
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    base, q = (0.0, 0.0) if float(a).is_integer() else (0.5, math.erfc(math.sqrt(x)))
    log_x = math.log(x)
    for i in range(int(a - base)):
        s = base + i
        term = math.exp(s * log_x - x - math.lgamma(s + 1.0))
        if term == 0.0 and s > x:
            break  # past the peak every later term is smaller: the rest are 0 too
        q += term
    return min(1.0, q)


def chi_squared_sf(statistic: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    Pr[X >= statistic] for X chi-squared with ``dof`` degrees of freedom,
    i.e. Q(dof/2, statistic/2).
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if not statistic >= 0.0:  # True for NaN as well
        raise ValueError(f"chi-squared statistic must be nonnegative, got {statistic}")
    if math.isinf(statistic):
        return 0.0
    return regularized_gamma_q(dof / 2.0, statistic / 2.0)


# A&S 26.2.23 rational approximation of the standard normal upper quantile
# (absolute error < 4.5e-4): only a starting point for chi_squared_isf.
_NORMAL_ISF_C = (2.515517, 0.802853, 0.010328)
_NORMAL_ISF_D = (1.432788, 0.189269, 0.001308)


def _normal_isf_start(alpha: float) -> float:
    p = min(alpha, 1.0 - alpha)
    t = math.sqrt(-2.0 * math.log(p))
    c0, c1, c2 = _NORMAL_ISF_C
    d1, d2, d3 = _NORMAL_ISF_D
    z = t - (c0 + t * (c1 + t * c2)) / (1.0 + t * (d1 + t * (d2 + t * d3)))
    return z if alpha <= 0.5 else -z


def chi_squared_isf(alpha: float, dof: int) -> float:
    """Critical value x with chi_squared_sf(x, dof) = alpha.

    Starts from the Wilson-Hilferty approximation and takes Newton steps on
    log ``chi_squared_sf`` (nearly linear in the far tail), so the root is
    the one of the in-house survival function, found in a few sf calls over
    the usual range.  Steps that leave the bracket established by earlier
    evaluations fall back to bisection, or to doubling while no upper end
    is known.  Converges to ~1e-12 relative wherever the survival function
    itself resolves alpha (alpha close to 1 is limited by the spacing of
    doubles just below 1).
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha}")
    k = dof / 2.0
    log_norm = k * math.log(2.0) + math.lgamma(k)
    log_alpha = math.log(alpha)
    h = 2.0 / (9.0 * dof)
    x = dof * max(1.0 - h + _normal_isf_start(alpha) * math.sqrt(h), 0.1) ** 3
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_ITER):
        sf = chi_squared_sf(x, dof)
        if sf == alpha:
            return x
        if sf > alpha:
            lo = x
        else:
            hi = x
        step = math.nan
        if sf > 0.0:
            log_density = (k - 1.0) * math.log(x) - x / 2.0 - log_norm
            step = (math.log(sf) - log_alpha) * math.exp(math.log(sf) - log_density)
        if abs(step) <= 1e-7 * x:
            return x + step  # quadratic convergence: the error is ~ the step squared
        x += step
        if not lo < x < hi:
            x = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
            if hi - lo <= 1e-13 * hi:
                return x
    raise ArithmeticError(f"chi-squared quantile failed to converge for alpha={alpha}, dof={dof}")
