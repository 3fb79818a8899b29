"""Directed-collapse pipeline: state prep, nonlinear measurement, sampling."""

import importlib
import math
from itertools import accumulate

import numpy as np
import pytest

from funwill.collapse import (
    COMPLETENESS_TOL,
    AmplitudeState,
    CollapseOutcome,
    PovmSet,
    _table,
    build_povm,
    check_completeness,
    collapse,
    collapse_many,
    outcome_distribution,
    prepare_state,
)
from funwill.distributions import exercise_will, make_distribution
from funwill.errors import (
    DimensionMismatch,
    IncompletePovm,
    NotNormalized,
    UnreachableGuidance,
)

# The package's ``collapse`` attribute is the function; the module is in sys.modules.
collapse_module = importlib.import_module("funwill.collapse")


def random_positive_dist(rng, n):
    w = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
    return make_distribution(w.tolist(), normalize=True)


class TestPrepareState:
    def test_deterministic_nature(self):
        assert prepare_state(make_distribution([1.0, 0.0])).amplitudes == (1.0, 0.0)

    def test_fair_binary(self):
        amps = prepare_state(make_distribution([0.5, 0.5])).amplitudes
        assert amps == pytest.approx((0.7071067811865476,) * 2, abs=1e-15)

    def test_componentwise_square_root(self):
        amps = prepare_state(make_distribution([0.25, 0.25, 0.5])).amplitudes
        assert amps == pytest.approx((0.5, 0.5, math.sqrt(0.5)), abs=1e-15)

    def test_norm_enforced(self):
        with pytest.raises(NotNormalized):
            AmplitudeState((0.5, 0.5))
        with pytest.raises(ValueError):
            AmplitudeState((1.0, -0.1))


class TestBuildPovm:
    def test_zero_will_gives_projective_coefficients(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            p, u = random_positive_dist(rng, n), random_positive_dist(rng, n)
            povm = build_povm(p, u, 0.0)
            assert povm.coefficients == (1.0,) * n

    def test_hand_coefficients(self):
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 0.5)
        assert povm.coefficients == pytest.approx(
            (math.sqrt(1.5), math.sqrt(0.5)), abs=1e-15
        )

    def test_unreachable_guidance_rejected(self):
        with pytest.raises(UnreachableGuidance):
            build_povm(make_distribution([0.0, 1.0]), make_distribution([1.0, 0.0]), 0.5)

    def test_zero_weight_outside_both_supports_is_fine(self):
        povm = build_povm(
            make_distribution([0.5, 0.5, 0.0]),
            make_distribution([1.0, 0.0, 0.0]),
            0.5,
        )
        assert povm.coefficients[2] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_povm(make_distribution([1.0]), make_distribution([0.5, 0.5]), 0.1)

    def test_coefficients_have_the_scalar_formulas_bits(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p, u = random_positive_dist(rng, n), random_positive_dist(rng, n)
            sigma = float(rng.random())
            expected = tuple(
                math.sqrt((sigma * uj + (1.0 - sigma) * pj) / pj) for pj, uj in zip(p.weights, u.weights)
            )
            assert build_povm(p, u, sigma).coefficients == expected

    def test_subnormal_baseline_weight_gives_a_finite_coefficient(self):
        # (0.5 / 1e-310) overflows; sqrt(0.5) / sqrt(1e-310) does not.
        nature = make_distribution([1.0, 1e-310])
        povm = build_povm(nature, make_distribution([0.0, 1.0]), 0.5)
        assert povm.coefficients == (math.sqrt(0.5), math.sqrt(0.5) / math.sqrt(1e-310))
        state = prepare_state(nature)
        assert check_completeness(povm, state) <= COMPLETENESS_TOL
        assert outcome_distribution(povm, state).weights == pytest.approx((0.5, 0.5), abs=1e-15)


class TestCompleteness:
    def test_built_povm_complete_against_its_state(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p, u = random_positive_dist(rng, n), random_positive_dist(rng, n)
            povm = build_povm(p, u, float(rng.random()))
            assert check_completeness(povm, prepare_state(p)) < 1e-9

    def test_identity_povm_complete_for_exactly_normalized_state(self):
        povm = PovmSet((1.0, 1.0))
        assert check_completeness(povm, AmplitudeState((0.6, 0.8))) == 0.0

    def test_state_dependence_hand_value(self):
        # Built for (0.5, 0.5) but applied to (0.9, 0.1): |1.5*0.9 + 0.5*0.1 - 1| = 0.4
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 0.5)
        residual = check_completeness(povm, prepare_state(make_distribution([0.9, 0.1])))
        assert residual == pytest.approx(0.4, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_completeness(PovmSet((1.0, 1.0)), AmplitudeState((1.0,)))

    @pytest.mark.parametrize("coefficients", [
        (1e300, 1e300),  # each square passes the largest double
        (1.6e154, 1.2e154),  # each square is finite, their sum is not
    ])
    def test_overflowing_terms_are_an_infinite_residual(self, coefficients):
        povm, state = PovmSet(coefficients), AmplitudeState((0.6, 0.8))
        assert check_completeness(povm, state) == math.inf
        for sample in (outcome_distribution, lambda *a: collapse(*a, np.random.default_rng(0))):
            with pytest.raises(IncompletePovm) as exc:
                sample(povm, state)
            assert exc.value.residual == math.inf


class TestOutcomeDistribution:
    def test_quantum_classical_equivalence_on_random_triples(self):
        """The central check: measuring prepare_state(P) with the set built
        from (P, U, sigma) reproduces the classical blend within 1e-10."""
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            p, u = random_positive_dist(rng, n), random_positive_dist(rng, n)
            s = float(rng.random())
            povm = build_povm(p, u, s)
            state = prepare_state(p)
            assert check_completeness(povm, state) < 1e-9
            got = outcome_distribution(povm, state)
            want = exercise_will(p, u, s)
            assert got.weights == pytest.approx(want.weights, abs=1e-10)

    def test_full_will_routes_to_guidance(self):
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 1.0)
        got = outcome_distribution(povm, prepare_state(make_distribution([0.5, 0.5])))
        assert got.weights == (1.0, 0.0)

    def test_zero_will_recovers_born_statistics(self):
        p = make_distribution([0.3, 0.7])
        povm = build_povm(p, make_distribution([0.9, 0.1]), 0.0)
        got = outcome_distribution(povm, prepare_state(p))
        assert got.weights == pytest.approx((0.3, 0.7), abs=1e-12)

    def test_cross_module_oracle_blend(self):
        povm = build_povm(
            make_distribution([0.25, 0.25, 0.5]), make_distribution([0.5, 0.5, 0.0]), 0.5
        )
        got = outcome_distribution(povm, prepare_state(make_distribution([0.25, 0.25, 0.5])))
        assert got.weights == pytest.approx((0.375, 0.375, 0.25), abs=1e-12)

    def test_mismatched_state_rejected(self):
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 0.5)
        with pytest.raises(IncompletePovm) as exc:
            outcome_distribution(povm, prepare_state(make_distribution([0.9, 0.1])))
        assert exc.value.residual == pytest.approx(0.4, abs=1e-12)


class TestCollapse:
    def test_deterministic_distribution_always_first_outcome(self):
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 1.0)
        state = prepare_state(make_distribution([0.5, 0.5]))
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = collapse(povm, state, rng)
            assert out.index == 0
            assert out.post_state.amplitudes == (1.0, 0.0)

    def test_post_state_is_always_a_basis_vector(self):
        povm = build_povm(make_distribution([0.2, 0.3, 0.5]), make_distribution([0.5, 0.5, 0.0]), 0.4)
        state = prepare_state(make_distribution([0.2, 0.3, 0.5]))
        rng = np.random.default_rng(11)
        for _ in range(200):
            out = collapse(povm, state, rng)
            assert out.post_state == AmplitudeState.basis(out.index, 3)

    def test_fair_frequencies_within_binomial_interval(self):
        # q = (0.5, 0.5), 1e5 draws: 99.9% binomial interval is inside [0.494, 0.506].
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([0.5, 0.5]), 0.7)
        state = prepare_state(make_distribution([0.5, 0.5]))
        rng = np.random.default_rng(123)
        hits = sum(collapse(povm, state, rng).index == 0 for _ in range(100_000))
        assert 0.494 <= hits / 100_000 <= 0.506

    def test_million_draw_frequencies_match_outcome_distribution(self):
        p = make_distribution([0.25, 0.25, 0.5])
        u = make_distribution([0.5, 0.5, 0.0])
        povm = build_povm(p, u, 0.5)
        state = prepare_state(p)
        q = outcome_distribution(povm, state).weights
        n = 1_000_000
        rng = np.random.default_rng(2718)
        counts = np.bincount(collapse_many(povm, state, rng, n), minlength=3)
        for j, qj in enumerate(q):
            slack = 4.0 * math.sqrt(qj * (1.0 - qj) / n)
            assert abs(counts[j] / n - qj) <= slack, (j, counts[j] / n, qj)

    def test_incomplete_povm_blocks_sampling(self):
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 0.5)
        with pytest.raises(IncompletePovm):
            collapse(povm, prepare_state(make_distribution([0.9, 0.1])), np.random.default_rng(0))


def test_collapse_outcome_validates_basis():
    for index in (-1, 3):
        with pytest.raises(ValueError):
            CollapseOutcome(index, 3)
    assert CollapseOutcome(1, 3).post_state is AmplitudeState.basis(1, 3)


class _FixedUniform:
    """Generator stand-in whose ``random`` always returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def _sampler_cases():
    """(povm, state) pairs: random triples, plus one with a zero-probability outcome."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(4):
        n = int(rng.integers(2, 17))
        p, u = random_positive_dist(rng, n), random_positive_dist(rng, n)
        cases.append((build_povm(p, u, float(rng.random())), prepare_state(p)))
    p = make_distribution([0.2, 0.0, 0.3, 0.5])
    u = make_distribution([0.6, 0.0, 0.0, 0.4])
    cases.append((build_povm(p, u, 0.7), prepare_state(p)))
    return cases


def _reference_collapse_index(povm, state, rng):
    """The original sequential accumulate loop, kept as an oracle."""
    weights = outcome_distribution(povm, state).weights
    u = rng.random()
    acc = 0.0
    for j, q in enumerate(weights):
        acc += q
        if u < acc:
            return j
    return len(weights) - 1


class TestSampler:
    @pytest.mark.parametrize("seed", [0, 1, 2718])
    def test_collapse_matches_reference_loop(self, seed):
        for povm, state in _sampler_cases():
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert [collapse(povm, state, rng).index for _ in range(2000)] == [
                _reference_collapse_index(povm, state, ref) for _ in range(2000)
            ]

    @pytest.mark.parametrize("seed", [0, 1, 2718, 2**63 + 5])
    def test_equals_sequential_collapse_calls(self, seed):
        for povm, state in _sampler_cases():
            many = collapse_many(povm, state, np.random.default_rng(seed), 3000)
            rng = np.random.default_rng(seed)
            one_by_one = [collapse(povm, state, rng).index for _ in range(3000)]
            assert many.tolist() == one_by_one

    def test_zero_probability_outcome_never_drawn(self):
        povm, state = _sampler_cases()[-1]
        assert 1 not in collapse_many(povm, state, np.random.default_rng(9), 20_000)

    def test_consumes_exactly_size_uniforms(self):
        povm, state = _sampler_cases()[0]
        rng = np.random.default_rng(17)
        collapse_many(povm, state, rng, 777)
        reference = np.random.default_rng(17)
        reference.random(777)
        assert rng.random() == reference.random()

    def test_size_zero_is_empty(self):
        povm, state = _sampler_cases()[0]
        rng = np.random.default_rng(3)
        out = collapse_many(povm, state, rng, 0)
        assert out.shape == (0,)
        assert np.issubdtype(out.dtype, np.integer)
        assert rng.random() == np.random.default_rng(3).random()

    def test_uniform_on_cumulative_boundaries(self):
        """u equal to a running sum picks the next outcome, as ``u < acc`` did;
        u at or above the total falls through to the last outcome."""
        for povm, state in _sampler_cases():
            q = outcome_distribution(povm, state).weights
            cdf = list(accumulate(q))
            for value in cdf + [cdf[-1] + 1e-9]:
                stub = _FixedUniform(value)
                want = _reference_collapse_index(povm, state, stub)
                assert collapse(povm, state, stub).index == want
                assert collapse_many(povm, state, stub, 4).tolist() == [want] * 4
            assert want == len(q) - 1

    @pytest.mark.parametrize("sample", ["collapse", "collapse_many"])
    def test_errors_raised_before_any_draw(self, sample):
        povm = build_povm(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 0.5)
        bad_states = {
            IncompletePovm: prepare_state(make_distribution([0.9, 0.1])),
            DimensionMismatch: AmplitudeState((1.0,)),
        }
        for error, state in bad_states.items():
            rng = np.random.default_rng(44)
            before = rng.bit_generator.state
            with pytest.raises(error):
                if sample == "collapse":
                    collapse(povm, state, rng)
                else:
                    collapse_many(povm, state, rng, 10)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("size", [-1, True, False, 2.0, "3", None])
    def test_bad_size_named(self, size):
        povm, state = _sampler_cases()[0]
        rng = np.random.default_rng(44)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="size"):
            collapse_many(povm, state, rng, size)
        assert rng.bit_generator.state == before

    def test_numpy_integer_size_accepted(self):
        povm, state = _sampler_cases()[0]
        assert collapse_many(povm, state, np.random.default_rng(1), np.int64(5)).shape == (5,)


class TestTableMemo:
    """Each (povm, state) pair is validated once; its errors are never cached."""

    def test_pair_validated_once(self, monkeypatch):
        povm, state = _sampler_cases()[0]
        calls = []
        realized = collapse_module._realized
        monkeypatch.setattr(collapse_module, "_realized", lambda *args: calls.append(args) or realized(*args))
        _table.cache_clear()
        rng = np.random.default_rng(8)
        for _ in range(1000):
            collapse(povm, state, rng)
        assert len(calls) == 1

    def test_mismatched_state_fails_on_every_call(self):
        nature = make_distribution([0.5, 0.5])
        povm = build_povm(nature, make_distribution([1.0, 0.0]), 0.5)
        assert collapse(povm, prepare_state(nature), np.random.default_rng(0)).index in (0, 1)
        other = prepare_state(make_distribution([0.9, 0.1]))
        rng = np.random.default_rng(44)
        before = rng.bit_generator.state
        for _ in range(3):
            for sample in (collapse, lambda *a: collapse_many(*a, 5), lambda p, s, _: outcome_distribution(p, s)):
                with pytest.raises(IncompletePovm):
                    sample(povm, other, rng)
                assert rng.bit_generator.state == before

    def test_equal_values_draw_the_same_indices(self):
        for povm, state in _sampler_cases():
            twin_povm, twin_state = PovmSet(list(povm.coefficients)), AmplitudeState(list(state.amplitudes))
            assert twin_povm is not povm and twin_state is not state
            rng, twin_rng = np.random.default_rng(6), np.random.default_rng(6)
            assert [collapse(povm, state, rng).index for _ in range(500)] == [
                collapse(twin_povm, twin_state, twin_rng).index for _ in range(500)
            ]

    def test_cache_is_bounded(self):
        assert _table.cache_info().maxsize is not None


def test_basis_states_are_shared():
    assert AmplitudeState.basis(2, 5) is AmplitudeState.basis(2, 5)
    assert AmplitudeState.basis(2, 5).amplitudes == (0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        AmplitudeState.basis(5, 5)
