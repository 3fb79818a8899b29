"""Property tests: invariants of the blend, the collapse realization, the
single-draw samplers, the batched detector, the weak-law outputs, the
batched seed streams, the JSON emitter and the CLI's exit codes, over
generated inputs.

Examples are derandomized, so every run checks the same inputs, and capped
so that the module stays a small share of the suite's time.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from funwill.agents import archetype, choose
from funwill.cli import ResultRecord, build_config, main, render_json
from funwill.collapse import (
    COMPLETENESS_TOL,
    build_povm,
    check_completeness,
    collapse,
    collapse_many,
    outcome_distribution,
    prepare_state,
)
from funwill.detect import (
    DEVIATION,
    TrialCounts,
    _noisy,
    apply_noise,
    chebyshev_bound,
    chi_squared_test,
    _scaled_moments,
    critical_band,
    deviation_verdicts,
    lln_concentration,
    pooling_plan,
    simulate_trials,
)
from funwill.distributions import ProbabilityVector, _blend_weights, exercise_will, make_distribution
from funwill.errors import ConfigInvalid, InsufficientExpected
from funwill.seeding import BATCH_MIN, MAX_SEED, derive_seed, derive_seeds, validate_seed
from test_agents import _reference_choose
from test_collapse import _FixedUniform, _reference_collapse_index, boundary_uniforms

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
def test_blend_equals_the_reference_loop(inputs):
    nature, understanding, sigma = inputs
    want = tuple(
        min(sigma * u + (1.0 - sigma) * p, 1.0) for p, u in zip(nature.weights, understanding.weights)
    )
    assert exercise_will(nature, understanding, sigma).weights == want


@PROPERTY
@given(blend_inputs(), st.floats(0.0, 1.0))
def test_noise_channel_equals_the_reference_loop(inputs, lam):
    """One noise formula: ``apply_noise`` and the batched channel have the plain loop's bits."""
    nature, understanding, sigma = inputs
    d = nature.dimension
    for dist in (nature, understanding):
        want = tuple(min((1.0 - lam) * w + lam * (1.0 / d), 1.0) for w in dist.weights)
        assert apply_noise(dist, lam).weights == want
    batched = _noisy(_blend_weights(nature, understanding, [sigma]), lam)[0].tolist()
    assert batched == list(apply_noise(exercise_will(nature, understanding, sigma), lam).weights)


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


@st.composite
def sampler_natures(draw):
    """A distribution of 1 to 16 outcomes with zero weights, trailing ones among them."""
    d = draw(st.integers(1, 16))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.sampled_from([0.1, 1 / 3])),
                        min_size=d, max_size=d))
    trailing = draw(st.integers(0, d - 1))
    raw = raw[:d - trailing] + [0.0] * trailing
    assume(sum(raw) > 0.0)
    return make_distribution(raw, normalize=True)


@PROPERTY
@given(sampler_natures(), sigmas)
# Ten weights of 0.1 add up to 0.9999999999999999.
@example(make_distribution([1.0] * 10, normalize=True), 0.0)
@example(make_distribution([0.2, 0.0, 0.3, 0.5, 0.0, 0.0]), 0.5)
@example(make_distribution([1.0]), 1.0)
def test_single_draws_equal_the_sequential_loops_on_boundary_uniforms(nature, sigma):
    """``collapse``, ``collapse_many`` and ``choose`` pick what the plain
    ``acc += w; if u < acc`` loops pick at every running sum, next to it,
    and at or above the total."""
    povm, state = build_povm(nature, nature, sigma), prepare_state(nature)
    for value in boundary_uniforms(outcome_distribution(povm, state).weights):
        want = _reference_collapse_index(povm, state, _FixedUniform(value))
        assert collapse(povm, state, _FixedUniform(value)).index == want
        assert collapse_many(povm, state, _FixedUniform(value), 3).tolist() == [want] * 3
    particle = archetype("particle", nature=nature)
    for value in boundary_uniforms(particle.effective.weights):
        assert choose(particle, _FixedUniform(value)) == _reference_choose(particle, _FixedUniform(value))


@PROPERTY
@given(
    st.integers(2, 5).flatmap(lambda d: st.tuples(distributions(d), distributions(d))),
    st.integers(1, 400),
    st.floats(1e-4, 1.0 - 1e-4),
    st.integers(0, 2**32),
)
# A hit on the pooled cell of this null overflows the batched statistic to +inf.
@example(
    dists=(ProbabilityVector((0.0, 2.2250738585e-313, 0.0, 1.0)), ProbabilityVector((0.0, 1.0, 0.0, 0.0))),
    n=5, alpha=0.5, seed=0,
)
def test_batched_verdicts_equal_per_row_tests(dists, n, alpha, seed):
    null, alternative = dists
    try:
        plan = pooling_plan(null, n)
    except InsufficientExpected:
        assume(False)
    counts = np.random.default_rng(seed).multinomial(n, alternative.weights, size=40)
    critical, band = critical_band(alpha, plan.dof)
    batched = deviation_verdicts(counts, plan, alpha, critical, band)
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
    s, _, mean, var = _scaled_moments(dist, payoff)
    assert not math.isnan(mean * s) and var * s * s >= 0.0
    assert chebyshev_bound(dist, payoff, epsilon, n) >= 0.0
    [(_, prob)] = lln_concentration(dist, payoff, epsilon, [min(n, 10**12)], reps=3, seed=n)
    assert 0.0 <= prob <= 1.0


# Seeds and path entries of one and two 32-bit words, with the word edges.
stream_seeds = st.one_of(st.integers(0, MAX_SEED), st.sampled_from([0, 2**32 - 1, 2**32, MAX_SEED]))
path_entries = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1])
)
# Runs on both sides of the batch break-even, paths of mixed lengths.
stream_paths = st.integers(1, 2 * BATCH_MIN + 4).flatmap(
    lambda rows: st.lists(st.lists(path_entries, min_size=1, max_size=3).map(tuple), min_size=rows, max_size=rows)
)


@PROPERTY
@given(stream_seeds, stream_paths)
@example(MAX_SEED, [(i,) for i in range(BATCH_MIN)])
@example(0, [(i,) for i in range(BATCH_MIN - 1)])
def test_batched_streams_equal_numpy_seeding(seed, paths):
    """``derive_seeds`` gives ``derive_seed``'s seeds and generators in the state of
    ``default_rng`` of them, which draw the same counts row after row."""
    want = [derive_seed(seed, *path) for path in paths]
    assert list(derive_seeds(seed, paths)) == want
    rows = 0
    for s, (got, rng) in zip(want, derive_seeds(seed, iter(paths), generators=True)):
        reference = np.random.default_rng(s)
        assert got == s
        assert rng.bit_generator.state == reference.bit_generator.state
        draws = [g.multinomial(1000, [0.2, 0.3, 0.5]).tolist() for g in (rng, reference)]
        assert draws[0] == draws[1]
        rows += 1
    assert rows == len(paths)


@pytest.mark.parametrize("rows", [1, BATCH_MIN])
@pytest.mark.parametrize("seed, entry", [
    (-1, 0), (MAX_SEED + 1, 0), (True, 0), (1.0, 0), ("1", 0),
    (1, -1), (1, 2**63), (1, True), (1, 2.0), (1, None),
])
def test_batched_streams_refuse_what_derive_seed_refuses(rows, seed, entry):
    paths = [(i,) for i in range(rows - 1)] + [(0, entry)]
    with pytest.raises(ValueError) as scalar:
        derive_seed(seed, 0, entry)
    for generators in (False, True):
        with pytest.raises(ValueError) as batched:
            list(derive_seeds(seed, paths, generators=generators))
        assert str(batched.value) == str(scalar.value)


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
# exponent and repr does not, and 1e16 and up where both do.  The emitter
# copies .12g's text when it is fixed notation with a ".", so values on both
# sides of its edges at 1e-4 and 1e12 (before and after rounding) and the
# smallest normal double are drawn too.
cell_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e12, 123456789012345.67, 1e16,
                     9.99999999999995e-05, 999999999999.5, 2.2250738585072014e-308]),
    st.floats(-1e13, 1e13),
    st.floats(1e-6, 1e-3),
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


FAIR = make_distribution([0.5, 0.5])

# Config key -> the library call that takes the same input, as a function of it.
LIBRARY_TWINS = {
    "alpha": lambda v: chi_squared_test(TrialCounts((500, 500), 1000, 0), FAIR, v),
    "trials": lambda v: simulate_trials(FAIR, v, 1),
    "seed": validate_seed,
    "noise": lambda v: apply_noise(FAIR, v),
    "sigma": lambda v: exercise_will(FAIR, make_distribution([1.0, 0.0]), v),
    "epsilon": lambda v: lln_concentration(FAIR, [1.0, 0.0], v, [10], 1, 1),
}

json_scalars = st.one_of(
    st.integers(), st.integers(-2, 2**64), st.floats(), st.booleans(), st.none(),
    st.integers().map(str), st.floats(allow_nan=False).map(str),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(LIBRARY_TWINS)), json_scalars)
@example("trials", 2**63 - 1)
@example("trials", 2**63)
@example("seed", 2**64 - 1)
@example("seed", 2**64)
@example("epsilon", 5e-324)
@example("alpha", 10**400)
def test_config_and_library_refuse_the_same_values(key, value):
    """A config key and its library twin share one rule: one refuses a value exactly when the other does."""
    try:
        build_config({key: value})
        config_refuses = False
    except ConfigInvalid as err:
        assert err.field == key
        config_refuses = True
    try:
        LIBRARY_TWINS[key](value)
        library_refuses = False
    except ValueError:
        library_refuses = True
    assert config_refuses == library_refuses, (key, value)


# A config every subcommand accepts; the property below spoils some of its keys.
CLI_BASE = {
    "labels": ["a", "b", "c"],
    "nature": [0.5, 0.3, 0.2],
    "understanding": [1.0, 0.0, 0.0],
    "sigma": {"start": 0.0, "stop": 0.5, "steps": 3},
    "trials": 200,
    "alpha": 0.05,
    "noise": 0.0,
    "reps": 100,
    "seed": 7,
    "payoff": [1.0, 0.0, -1.0],
    "epsilon": 0.1,
    "n_schedule": [10, 100],
}
extreme_numbers = st.sampled_from([1e308, -1e308, 5e-324, -0.0, 0.0, 1.0, 2**64])
junk = st.sampled_from([True, False, "0.5", [[0.5]], [], None])
extremes = st.one_of(extreme_numbers, junk)
unit_or_extreme = st.one_of(st.floats(0.0, 1.0), extreme_numbers, junk)
# Counts stay at 1,000 or below, so that every accepted config is cheap to
# run; power takes 100 replications or more.
COUNTS = {
    "trials": st.sampled_from([1, 2, 10, 100, 1000]),
    "reps": st.sampled_from([100, 1000]),
    "n_schedule": st.lists(st.sampled_from([1, 10, 1000]), min_size=1, max_size=3),
}
bad_counts = st.sampled_from([0, -1, 1.5, True, "10", [10], None])
sweeps = st.fixed_dictionaries({
    "start": unit_or_extreme, "stop": unit_or_extreme, "steps": st.sampled_from([1, 2, 3, 11, 0, True]),
})
WILD_KEYS = ("nature", "understanding", "payoff", "sigma", "alpha", "noise", "epsilon", *COUNTS)


@st.composite
def cli_configs(draw):
    """``CLI_BASE`` with its counts redrawn and up to two keys spoilt: one
    entry of a list, or the whole value."""
    config = {**CLI_BASE, **{key: draw(counts) for key, counts in COUNTS.items()}}
    for key in draw(st.sets(st.sampled_from(WILD_KEYS), max_size=2)):
        value = list(config[key]) if isinstance(config[key], list) else config[key]
        spoilt = bad_counts if key in COUNTS else unit_or_extreme
        if isinstance(value, list) and draw(st.booleans()):
            value[draw(st.integers(0, len(value) - 1))] = draw(spoilt)
        elif key in COUNTS:
            value = draw(bad_counts)
        else:
            value = draw(st.one_of(extremes, st.lists(unit_or_extreme, min_size=1, max_size=4), sweeps))
        config[key] = value
    return config


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_configs())
@example({**CLI_BASE, "nature": [1e308, 1e308]})
@example({**CLI_BASE, "understanding": [1e308, 1e308, 1e308]})
@example({**CLI_BASE, "nature": [0.5, 0.5, 0.0], "understanding": [0.0, 0.0, 1.0]})
def test_the_cli_ends_only_in_a_documented_exit_code(config):
    """Valid or not, a config ends every subcommand in 0, 2 or 3, never in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**config, "out": os.path.join(tmp, "out.csv")}, fh)
        for command in ("distort", "collapse", "power", "lln"):
            assert main([command, "--config", path, "--quiet"]) in (0, 2, 3), command
