"""Vector algebra: blend endpoints, entropy analytics, regimes, distances."""

import math

import numpy as np
import pytest

from funwill import detect
from funwill.agents import AgentProfile
from funwill.collapse import build_povm
from funwill.detect import detection_power
from funwill.distributions import (
    CERTAINTY_INCREASING,
    STATIONARY,
    UNCERTAINTY_INCREASING,
    ChoiceSpace,
    ProbabilityVector,
    _gradient,
    classify_regime,
    entropy_gradient,
    exercise_will,
    kl_divergence,
    make_distribution,
    total_variation,
    uniform_distribution,
    unpredictability,
)
from funwill.errors import (
    AllZero,
    DimensionMismatch,
    DivergentGradient,
    NegativeWeight,
    NotNormalized,
)


def random_dist(rng, n, interior=False):
    w = rng.dirichlet(np.ones(n))
    if interior:
        w = 0.9 * w + 0.1 / n
    return make_distribution(w.tolist(), normalize=True)


def fd_entropy_gradient(nature, understanding, sigma, h=1e-6):
    """Independent central finite difference of H(blend(sigma))."""
    hi = unpredictability(exercise_will(nature, understanding, sigma + h))
    lo = unpredictability(exercise_will(nature, understanding, sigma - h))
    return (hi - lo) / (2.0 * h)


FAIR = make_distribution([0.5, 0.5])
ETHICAL = make_distribution([1.0, 0.0])

# Every public entry that takes a will strength, called with sigma = s.
SIGMA_ENTRIES = {
    "exercise_will": lambda s: exercise_will(FAIR, ETHICAL, s),
    "build_povm": lambda s: build_povm(FAIR, ETHICAL, s),
    "entropy_gradient": lambda s: entropy_gradient(FAIR, ETHICAL, s),
    "classify_regime": lambda s: classify_regime(FAIR, ETHICAL, s),
    "detection_power": lambda s: detection_power(FAIR, ETHICAL, s, n=100, alpha=0.05, reps=100, seed=1),
    "AgentProfile": lambda s: AgentProfile(ChoiceSpace(("good", "evil")), FAIR, ETHICAL, will=s),
}


class TestConstruction:
    def test_already_normalized_passthrough(self):
        assert make_distribution([0.5, 0.5]).weights == (0.5, 0.5)

    def test_normalize_divides_by_sum(self):
        assert make_distribution([1, 1, 2], normalize=True).weights == (0.25, 0.25, 0.5)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            make_distribution([0.3, 0.3])
        with pytest.raises(NotNormalized, match="exceeds 1"):  # not clamped to (1.0, 0.0)
            ProbabilityVector((1.5, 0.0))

    def test_an_overflowing_sum_is_not_normalized(self):
        for weights in ([1e308, 1e308], [1.7976931348623157e308] * 3):
            with pytest.raises(NotNormalized, match="largest double"):
                make_distribution(weights)

    def test_normalize_scales_past_an_overflowing_sum(self):
        assert make_distribution([1e308, 1e308], normalize=True).weights == (0.5, 0.5)
        top = 1.7976931348623157e308
        assert make_distribution([top, top, top, top], normalize=True).weights == (0.25,) * 4
        assert make_distribution([top, 5e-324, top], normalize=True).weights == (0.5, 0.0, 0.5)
        # A sum that stays finite is not scaled, so a weight that divides to a
        # subnormal keeps the bits of one division by the sum.
        for weights in ([3.0, 1.0, 7.0], [881234.0964544376, 6.864838541790798e-306, 639646.0613948228]):
            total = math.fsum(weights)
            assert make_distribution(weights, normalize=True).weights == tuple(w / total for w in weights)

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeight):
            make_distribution([-0.1, 1.1])
        with pytest.raises(NegativeWeight):
            make_distribution([float("nan"), 1.0])
        # Normalizing would divide the signs away: [-1, -1] / -2 is (0.5, 0.5).
        for weights in ([-1.0, -1.0], [-0.25, -0.75]):
            with pytest.raises(NegativeWeight):
                make_distribution(weights, normalize=True)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            make_distribution([0.0, 0.0], normalize=True)
        with pytest.raises(AllZero):
            make_distribution([])

    def test_weights_immutable(self):
        d = make_distribution([0.5, 0.5])
        with pytest.raises(AttributeError):
            d.weights = (1.0, 0.0)

    def test_choice_space_unique_labels(self):
        assert ChoiceSpace(("good", "evil")).dimension == 2
        with pytest.raises(ValueError):
            ChoiceSpace(("a", "a"))
        with pytest.raises(ValueError, match="at least one"):
            ChoiceSpace(())
        with pytest.raises(ValueError, match="strings"):
            ChoiceSpace((None, 1.5))

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan"), "0.5", True, None])
    @pytest.mark.parametrize("entry", list(SIGMA_ENTRIES))
    def test_will_strength_range(self, monkeypatch, entry, bad):
        monkeypatch.setattr(detect, "_hit_rate", lambda *a: pytest.fail("sampled before checking"))
        with pytest.raises(ValueError, match="will strength"):
            SIGMA_ENTRIES[entry](bad)


class TestExerciseWill:
    def test_full_will_returns_understanding(self):
        out = exercise_will(
            make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), 1.0
        )
        assert out.weights == (1.0, 0.0)

    def test_no_will_returns_nature(self):
        p = make_distribution([0.25, 0.25, 0.5])
        out = exercise_will(p, make_distribution([0.5, 0.5, 0.0]), 0.0)
        assert out.weights == p.weights

    def test_half_will_blend(self):
        out = exercise_will(
            make_distribution([0.25, 0.25, 0.5]), make_distribution([0.5, 0.5, 0.0]), 0.5
        )
        assert out.weights == pytest.approx((0.375, 0.375, 0.25), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exercise_will(make_distribution([1.0]), make_distribution([0.5, 0.5]), 0.5)

    def test_endpoints_exact_on_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            p, u = random_dist(rng, n), random_dist(rng, n)
            assert exercise_will(p, u, 0.0).weights == p.weights
            assert exercise_will(p, u, 1.0).weights == u.weights

    def test_output_is_valid_distribution_on_random_triples(self):
        # Convexity: nonnegative entries summing to 1 within 1e-12 always.
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            out = exercise_will(random_dist(rng, n), random_dist(rng, n), rng.random())
            assert all(w >= 0.0 for w in out.weights)
            assert abs(math.fsum(out.weights) - 1.0) <= 1e-12

    def test_linear_approach_to_guidance(self):
        # TV(blend, U) = (1 - sigma) * TV(P, U), an algebraic identity.
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            p, u, s = random_dist(rng, n), random_dist(rng, n), float(rng.random())
            lhs = total_variation(exercise_will(p, u, s), u)
            rhs = (1.0 - s) * total_variation(p, u)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestUnpredictability:
    def test_deterministic_is_zero_bits(self):
        assert unpredictability(make_distribution([1.0, 0.0])) == 0.0

    def test_fair_binary_is_one_bit(self):
        assert unpredictability(make_distribution([0.5, 0.5])) == 1.0

    def test_uniform_four_is_two_bits(self):
        assert unpredictability(uniform_distribution(4)) == 2.0

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5, 8):
            top = unpredictability(uniform_distribution(n))
            assert top == pytest.approx(math.log2(n), abs=1e-12)
            for _ in range(200):
                assert unpredictability(random_dist(rng, n)) <= top + 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = random_dist(rng, 5)
            perm = tuple(d.weights[j] for j in rng.permutation(5))
            assert unpredictability(ProbabilityVector(perm)) == unpredictability(d)


class TestEntropyGradient:
    def test_certainty_region_value(self):
        got = entropy_gradient(
            make_distribution([0.0, 1.0]), make_distribution([1.0, 0.0]), 0.75
        )
        assert got == pytest.approx(math.log2(0.25 / 0.75), abs=1e-12)
        assert got < 0.0

    def test_uncertainty_region_value(self):
        got = entropy_gradient(
            make_distribution([0.0, 1.0]), make_distribution([1.0, 0.0]), 0.25
        )
        assert got == pytest.approx(math.log2(0.75 / 0.25), abs=1e-12)
        assert got > 0.0

    def test_identical_vectors_zero(self):
        d = make_distribution([0.5, 0.5])
        for s in (0.0, 0.3, 1.0):
            assert entropy_gradient(d, d, s) == 0.0

    def test_matches_finite_difference_on_interior_points(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 300:
            n = int(rng.integers(2, 6))
            p = random_dist(rng, n, interior=True)
            u = random_dist(rng, n, interior=True)
            s = 0.01 + 0.98 * float(rng.random())
            blended = exercise_will(p, u, s)
            if min(blended.weights) <= 1e-3:
                continue
            assert entropy_gradient(p, u, s) == pytest.approx(
                fd_entropy_gradient(p, u, s), abs=1e-5
            )
            checked += 1

    def test_divergence_reported_with_sign(self):
        """``_gradient`` gives the divergence as +/-inf; ``entropy_gradient`` raises it."""
        u = make_distribution([1.0, 0.0])
        for nature, sigma, sign in (
            ([0.5, 0.5], 1.0, -1),  # the saint at full will: the blend loses the second outcome
            ([0.0, 1.0], 0.0, +1),  # the baseline lacks the outcome guidance wants
        ):
            p = make_distribution(nature)
            assert _gradient(p, u, exercise_will(p, u, sigma)) == sign * math.inf
            with pytest.raises(DivergentGradient) as exc:
                entropy_gradient(p, u, sigma)
            assert exc.value.sign == sign


class TestClassifyRegime:
    def test_three_examples(self):
        p, u = make_distribution([0.0, 1.0]), make_distribution([1.0, 0.0])
        assert classify_regime(p, u, 0.75) == CERTAINTY_INCREASING
        assert classify_regime(p, u, 0.25) == UNCERTAINTY_INCREASING
        assert classify_regime(p, u, 0.5) == STATIONARY

    def test_grid_of_99_points_flips_at_half(self):
        p, u = make_distribution([0.0, 1.0]), make_distribution([1.0, 0.0])
        for i in range(1, 100):
            s = i / 100.0
            expected = (
                UNCERTAINTY_INCREASING if s < 0.5
                else CERTAINTY_INCREASING if s > 0.5
                else STATIONARY
            )
            assert classify_regime(p, u, s) == expected, s

    def test_divergent_gradients_classified_by_sign(self):
        p, u = make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0])
        assert classify_regime(p, u, 1.0) == CERTAINTY_INCREASING
        assert classify_regime(make_distribution([0.0, 1.0]), u, 0.0) == UNCERTAINTY_INCREASING


class TestDistances:
    def test_total_variation_examples(self):
        assert total_variation(make_distribution([1.0, 0.0]), make_distribution([0.0, 1.0])) == 1.0
        d = make_distribution([0.5, 0.5])
        assert total_variation(d, d) == 0.0
        got = total_variation(
            make_distribution([0.375, 0.375, 0.25]), make_distribution([0.5, 0.5, 0.0])
        )
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_kl_identity_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = random_dist(rng, 4)
            assert kl_divergence(d, d) == 0.0

    def test_kl_hand_value(self):
        got = kl_divergence(make_distribution([0.5, 0.5]), make_distribution([0.25, 0.75]))
        assert got == pytest.approx(0.20751874963942185, abs=1e-12)

    def test_kl_support_violation_is_infinite(self):
        got = kl_divergence(make_distribution([1.0, 0.0]), make_distribution([0.0, 1.0]))
        assert math.isinf(got) and got > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            total_variation(make_distribution([1.0]), make_distribution([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            kl_divergence(make_distribution([1.0]), make_distribution([0.5, 0.5]))
