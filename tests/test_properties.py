"""Property tests: invariants of the blend, the collapse realization, the
batched detector, the weak-law outputs and the JSON emitter, over
generated inputs.

Examples are derandomized, so every run checks the same inputs, and capped
so that the module stays a small share of the suite's time.
"""

import json
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funwill.cli import ResultRecord, render_json
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


def oracle_json(record: ResultRecord) -> str:
    """``json.dumps(indent=2)`` of the record with every top-level config
    value and every row value that is a float rounded to 12 significant digits."""
    def round12(value):
        return float(f"{value:.12g}") if isinstance(value, float) else value

    doc = {
        "experiment_id": record.experiment_id,
        "config": {k: round12(v) for k, v in record.config.items()},
        "columns": record.columns,
        "rows": [{c: round12(row[c]) for c in record.columns} for row in record.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


# Values where 12-digit rounding and json's float repr part ways: non-finite
# values, -0.0, the smallest subnormal, [1e12, 1e16) where .12g writes an
# exponent and repr does not, and 1e16 and up where both do.
cell_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e12, 123456789012345.67, 1e16]),
    st.floats(1e12, 1e16, exclude_max=True),
    st.floats(min_value=1e16),
    st.floats(max_value=-1e12),
)
cells = st.one_of(st.none(), cell_floats, st.integers(), st.booleans(), st.text())
texts = st.one_of(st.text(), st.sampled_from(['"quoted"', "back\\slash", "new\nline", "café ☃ 𝄞"]))
echoes = st.dictionaries(
    texts,
    st.one_of(
        cells,
        st.lists(st.one_of(cell_floats, texts)),
        st.fixed_dictionaries({"start": cell_floats, "stop": cell_floats, "steps": st.integers(1, 200)}),
    ),
    max_size=5,
)


@st.composite
def records(draw):
    columns = draw(st.lists(texts, max_size=6, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({c: cells for c in columns}), max_size=4))
    return ResultRecord(draw(texts), draw(echoes), columns, rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(records())
def test_json_emitter_equals_json_dumps_of_the_rounded_document(record):
    assert render_json(record) == oracle_json(record)
