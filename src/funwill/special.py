"""The upper regularized incomplete gamma function and the chi-squared tail.

Self-contained double-precision evaluation in the classic style: power
series for the lower function P = 1 - Q when x < a + 1, modified-Lentz
continued fraction for the upper function otherwise.  Relative accuracy is
well inside 1e-8 over the chi-squared ranges used here (it is close to
machine precision away from the extreme tails), which keeps the statistics
stack free of any external dependency.

``chi_squared_isf`` inverts the upper tail: it returns the critical value
of a level-alpha test, so a batch of statistics can be decided against
one number instead of one survival-function call each.
"""

from __future__ import annotations

import math

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 500


def _lower_series(a: float, x: float) -> float:
    """P(a, x) by series: x^a e^-x / Gamma(a) * sum_k x^k / (a+1)...(a+k)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ArithmeticError(f"gamma series failed to converge for a={a}, x={x}")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by the Lentz-evaluated continued fraction."""
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if prefactor == 0.0:
        return 0.0  # Q underflows, and at such x the ratios below can cycle 1 ulp around 1 forever
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"gamma continued fraction failed to converge for a={a}, x={x}")
    return h * prefactor


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x < a + 1.0:
        return max(0.0, 1.0 - _lower_series(a, x))
    return min(1.0, _upper_continued_fraction(a, x))


def chi_squared_sf(statistic: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    Pr[X >= statistic] for X chi-squared with ``dof`` degrees of freedom,
    i.e. Q(dof/2, statistic/2).
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if statistic < 0.0:
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
    itself resolves alpha (alpha close to 1 is limited by 1 - P rounding).
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
