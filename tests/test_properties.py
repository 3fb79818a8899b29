"""Property tests: invariants of the blend, the collapse realization, the
batched detector and the weak-law outputs, over generated inputs.

Examples are derandomized, so every run checks the same inputs, and capped
so that the module stays a small share of the suite's time.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funwill.collapse import (
    COMPLETENESS_TOL,
    build_povm,
    check_completeness,
    outcome_distribution,
    prepare_state,
)
from funwill.detect import (
    DEVIATION,
    TrialCounts,
    chebyshev_bound,
    chi_squared_test,
    critical_band,
    deviation_verdicts,
    lln_concentration,
    payoff_mean_variance,
    pooling_plan,
)
from funwill.distributions import exercise_will, make_distribution
from funwill.errors import InsufficientExpected

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

sigmas = st.floats(0.0, 1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive_finite = st.floats(min_value=5e-324, allow_infinity=False)


@st.composite
def distributions(draw, dimension, least=0.0):
    """A distribution of ``dimension`` outcomes, every weight >= ``least`` before normalizing."""
    raw = draw(st.lists(st.floats(least, 1.0), min_size=dimension, max_size=dimension))
    assume(sum(raw) > 0.0)
    return make_distribution(raw, normalize=True)


@st.composite
def blend_inputs(draw):
    """(P, U, sigma) with P strictly positive, so every guidance is reachable."""
    dimension = draw(st.integers(2, 6))
    return draw(distributions(dimension, least=1e-6)), draw(distributions(dimension)), draw(sigmas)


@PROPERTY
@given(blend_inputs())
def test_blend_hits_its_endpoints(inputs):
    nature, understanding, _ = inputs
    assert exercise_will(nature, understanding, 0.0) == nature
    assert exercise_will(nature, understanding, 1.0) == understanding


@PROPERTY
@given(blend_inputs())
def test_collapse_realizes_the_blend(inputs):
    nature, understanding, sigma = inputs
    got = outcome_distribution(build_povm(nature, understanding, sigma), prepare_state(nature))
    want = exercise_will(nature, understanding, sigma)
    assert np.allclose(got.weights, want.weights, rtol=0.0, atol=1e-12)


@PROPERTY
@given(blend_inputs(), st.data())
def test_povm_complete_against_its_state_and_any_state_at_zero_will(inputs, data):
    nature, understanding, sigma = inputs
    povm = build_povm(nature, understanding, sigma)
    assert check_completeness(povm, prepare_state(nature)) <= COMPLETENESS_TOL
    # At sigma 0 every coefficient is 1: an ordinary projective measurement.
    other = prepare_state(data.draw(distributions(nature.dimension)))
    assert check_completeness(build_povm(nature, understanding, 0.0), other) <= COMPLETENESS_TOL


@PROPERTY
@given(
    st.integers(2, 5).flatmap(lambda d: st.tuples(distributions(d), distributions(d))),
    st.integers(1, 400),
    st.floats(1e-4, 1.0 - 1e-4),
    st.integers(0, 2**32),
)
def test_batched_verdicts_equal_per_row_tests(dists, n, alpha, seed):
    null, alternative = dists
    try:
        plan = pooling_plan(null, n)
    except InsufficientExpected:
        assume(False)
    counts = np.random.default_rng(seed).multinomial(n, alternative.weights, size=40)
    critical, band = critical_band(alpha, plan.dof)
    batched = deviation_verdicts(counts, null, alpha, plan, critical, band)
    per_row = [
        chi_squared_test(TrialCounts(tuple(row), n, 0), null, alpha).verdict == DEVIATION
        for row in counts.tolist()
    ]
    assert batched.tolist() == per_row


@PROPERTY
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.tuples(distributions(d), st.lists(finite, min_size=d, max_size=d))
    ),
    positive_finite,
    st.integers(1, 2**63 - 1),
)
def test_weak_law_outputs_are_never_nan(inputs, epsilon, n):
    dist, payoff = inputs
    mean, var = payoff_mean_variance(dist, payoff)
    assert not math.isnan(mean) and var >= 0.0
    assert chebyshev_bound(dist, payoff, epsilon, n) >= 0.0
    [(_, prob)] = lln_concentration(dist, payoff, epsilon, [min(n, 10**12)], reps=3, seed=n)
    assert 0.0 <= prob <= 1.0
