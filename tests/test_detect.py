"""Monte Carlo sampling, goodness-of-fit, power, noise masking, weak law."""

import functools
import math
import operator

import numpy as np
import pytest

from funwill import detect
from funwill.detect import (
    BLOCK,
    CONSISTENT,
    CRITICAL_BAND,
    DEVIATION,
    TestReport,
    TrialCounts,
    apply_noise,
    chebyshev_bound,
    chi_squared_test,
    critical_band,
    detection_power,
    deviation_verdicts,
    _scaled_moments,
    lln_concentration,
    pearson_statistics,
    pearson_tests,
    pooling_plan,
    simulate_trials,
)
from funwill.distributions import exercise_will, make_distribution, uniform_distribution
from funwill.errors import DimensionMismatch, InsufficientExpected
from funwill.seeding import derive_seed

FAIR = make_distribution([0.5, 0.5])
ETHICAL = make_distribution([1.0, 0.0])


def payoff_moments(dist, payoff):
    """Unscaled mean and variance from ``_scaled_moments``; ``inf`` where they overflow."""
    s, _, mean, var = _scaled_moments(dist, payoff)
    return mean * s, var * s * s


class TestSimulateTrials:
    def test_deterministic_distribution(self):
        assert simulate_trials(make_distribution([1.0, 0.0]), 100, 0).counts == (100, 0)

    def test_fair_coin_at_one_million(self):
        counts = simulate_trials(FAIR, 1_000_000, 2024).counts
        assert abs(counts[0] - 500_000) <= 2000  # 4-sigma binomial slack

    def test_reproducible(self):
        a = simulate_trials(FAIR, 5000, 99)
        b = simulate_trials(FAIR, 5000, 99)
        assert a.counts == b.counts and a.seed == b.seed == 99

    def test_total_and_frequencies(self):
        t = simulate_trials(make_distribution([0.2, 0.3, 0.5]), 1234, 5)
        assert sum(t.counts) == t.total == 1234
        assert math.fsum(t.frequencies().weights) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_n(self):
        for n in (0, 10.7, True, "10", math.inf, math.nan):
            with pytest.raises(ValueError, match="trial count"):
                simulate_trials(FAIR, n, 1)


class TestChiSquared:
    def test_exactly_proportional_counts(self):
        report = chi_squared_test(TrialCounts((500, 500), 1000, 0), FAIR, alpha=0.05)
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert report.dof == 1
        assert report.verdict == CONSISTENT

    def test_type_one_error_calibrated(self):
        # Born sampling tested against itself: deviation rate 0.05 +/- 0.02
        # over 1000 seeded runs at alpha = 0.05.
        hits = 0
        for r in range(1000):
            counts = simulate_trials(FAIR, 10_000, derive_seed(400, r))
            hits += chi_squared_test(counts, FAIR, 0.05).verdict == DEVIATION
        assert 0.03 <= hits / 1000 <= 0.07

    def test_effect_of_size_point_one_detected(self):
        # Blend at sigma=0.2 is (0.6, 0.4); against the (0.5, 0.5) null at
        # n=1e4 essentially every run must flag deviation.
        alt = exercise_will(FAIR, ETHICAL, 0.2)
        assert alt.weights == pytest.approx((0.6, 0.4), abs=1e-15)
        hits = 0
        for r in range(1000):
            counts = simulate_trials(alt, 10_000, derive_seed(77, r))
            hits += chi_squared_test(counts, FAIR, 0.05).verdict == DEVIATION
        assert hits / 1000 > 0.99

    def test_pooling_small_expected_cells(self):
        # Expected counts (90, 6, 2, 2): the two 2s pool into one cell.
        expected = make_distribution([0.90, 0.06, 0.02, 0.02])
        report = chi_squared_test(TrialCounts((90, 6, 2, 2), 100, 0), expected, 0.05)
        assert report.dof == 2  # 3 cells after pooling
        assert report.statistic == 0.0

    def test_insufficient_cells_after_pooling(self):
        with pytest.raises(InsufficientExpected):
            chi_squared_test(TrialCounts((3, 3), 6, 0), FAIR, 0.05)

    def test_impossible_observation_is_infinite_statistic(self):
        expected = make_distribution([0.5, 0.5, 0.0])
        report = chi_squared_test(TrialCounts((40, 50, 10), 100, 0), expected, 0.05)
        assert math.isinf(report.statistic)
        assert report.p_value == 0.0
        assert report.verdict == DEVIATION

    def test_alpha_validated(self):
        for alpha in (0.0, 1.0, "0.05", None, True, math.inf, math.nan):
            with pytest.raises(ValueError, match="significance level"):
                chi_squared_test(TrialCounts((500, 500), 1000, 0), FAIR, alpha=alpha)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chi_squared_test(TrialCounts((500, 500), 1000, 0), uniform_distribution(3), 0.05)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            TestReport(statistic=1.0, p_value=1.5, dof=1, verdict=CONSISTENT)
        with pytest.raises(ValueError):
            TestReport(statistic=1.0, p_value=0.5, dof=1, verdict="maybe")


class TestDetectionPower:
    def test_null_power_is_alpha(self):
        for seed in (0, 1, 42):
            rate = detection_power(FAIR, ETHICAL, 0.0, n=10_000, alpha=0.05, reps=1000, seed=seed)
            assert 0.03 <= rate <= 0.07, (seed, rate)

    def test_maximal_effect_saturates(self):
        power = detection_power(FAIR, ETHICAL, 1.0, n=100, alpha=0.05, reps=500, seed=6)
        assert power == 1.0

    def test_nondecreasing_in_sample_size(self):
        powers = [
            detection_power(FAIR, ETHICAL, 0.1, n=n, alpha=0.05, reps=1000, seed=8)
            for n in (100, 1000, 10_000)
        ]
        assert all(b >= a - 0.03 for a, b in zip(powers, powers[1:]))
        assert powers[0] < powers[-1]

    def test_nondecreasing_in_will(self):
        grid = [k / 10 for k in range(11)]
        powers = [
            detection_power(FAIR, ETHICAL, s, n=1000, alpha=0.05, reps=300, seed=11)
            for s in grid
        ]
        assert all(b >= a - 0.03 for a, b in zip(powers, powers[1:]))

    def test_noise_masks_the_deviation(self):
        # The masking claim made quantitative: propagating both the null and
        # the sigma = 0.2 alternative through a uniform-noise channel drains
        # detection power monotonically in the noise level.
        powers = [
            detection_power(FAIR, ETHICAL, 0.2, n=100, alpha=0.05, reps=1000, seed=3, noise=lam)
            for lam in (0.0, 0.25, 0.5)
        ]
        assert powers[0] > powers[1] > powers[2], powers

    def test_reps_floor(self, monkeypatch):
        monkeypatch.setattr(detect, "_hit_rate", lambda *a: pytest.fail("sampled before checking"))
        for reps in (50, detect.MIN_POWER_REPS - 1, 100.5, True, "100", math.inf, math.nan):
            with pytest.raises(ValueError, match="replication count"):
                detection_power(FAIR, ETHICAL, 0.5, n=100, alpha=0.05, reps=reps, seed=0)


class TestApplyNoise:
    def test_zero_noise_is_identity(self):
        d = make_distribution([0.6, 0.4])
        assert apply_noise(d, 0.0).weights == d.weights

    def test_full_noise_is_uniform(self):
        d = make_distribution([0.6, 0.4])
        assert apply_noise(d, 1.0).weights == (0.5, 0.5)

    def test_half_noise_hand_value(self):
        got = apply_noise(make_distribution([0.6, 0.4]), 0.5)
        assert got.weights == pytest.approx((0.55, 0.45), abs=1e-15)

    def test_normalization_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            d = make_distribution(rng.dirichlet(np.ones(n)).tolist(), normalize=True)
            noisy = apply_noise(d, float(rng.random()))
            assert math.fsum(noisy.weights) == pytest.approx(1.0, abs=1e-12)

    def test_level_validated(self, monkeypatch):
        monkeypatch.setattr(detect, "_hit_rate", lambda *a: pytest.fail("sampled before checking"))
        for bad in (-0.01, 1.01, float("nan"), "0.5", True, None):
            with pytest.raises(ValueError, match="noise level"):
                apply_noise(FAIR, bad)
            with pytest.raises(ValueError, match="noise level"):
                detection_power(FAIR, ETHICAL, 0.5, n=100, alpha=0.05, reps=100, seed=1, noise=bad)


class TestLlnConcentration:
    def test_fair_coin_squeeze(self):
        estimates = lln_concentration(FAIR, [1.0, 0.0], 0.1, [100, 10_000], reps=1000, seed=5)
        assert estimates[0][1] > estimates[1][1]

    def test_respects_chebyshev_cap_within_three_standard_errors(self):
        reps = 1000
        estimates = lln_concentration(FAIR, [1.0, 0.0], 0.1, [100, 1000, 10_000], reps=reps, seed=5)
        for n, est in estimates:
            cap = chebyshev_bound(FAIR, [1.0, 0.0], 0.1, n)
            se = math.sqrt(max(est * (1 - est), 1e-12) / reps)
            assert est <= min(1.0, cap) + 3 * se, (n, est, cap)

    def test_epsilon_beyond_payoff_range_never_deviates(self):
        # Payoffs live in [0, 1] so the sample mean can stray at most 0.5
        # from the mean of a fair coin.
        estimates = lln_concentration(FAIR, [1.0, 0.0], 0.6, [10, 100], reps=200, seed=1)
        assert all(est == 0.0 for _, est in estimates)

    def test_degenerate_distribution_never_deviates(self):
        d = make_distribution([1.0, 0.0])
        estimates = lln_concentration(d, [1.0, 0.0], 0.05, [10, 100, 1000], reps=200, seed=2)
        assert all(est == 0.0 for _, est in estimates)

    def test_chebyshev_bound_value(self):
        # Var of a fair-coin indicator payoff is 1/4: bound 0.25/(n eps^2).
        assert chebyshev_bound(FAIR, [1.0, 0.0], 0.1, 100) == pytest.approx(0.25)

    def test_chebyshev_bound_when_n_eps_squared_underflows(self):
        # 100 * 1e-200**2 is 0.0 in floats: the cap is inf, or 0 with no variance.
        assert chebyshev_bound(FAIR, [1.0, 0.0], 1e-200, 100) == math.inf
        assert chebyshev_bound(FAIR, [1.0, 1.0], 1e-200, 100) == 0.0

    def test_overflowing_variance_is_inf(self):
        assert payoff_moments(FAIR, [1e300, 0.0]) == (5e299, math.inf)
        assert chebyshev_bound(FAIR, [1e300, 0.0], 0.1, 100) == math.inf

    def test_huge_payoff_sample_mean_does_not_overflow(self):
        # The sample mean's SD at n = 1e9 is ~1.6e295, far below epsilon.
        assert lln_concentration(FAIR, [1e300, 0.0], 1e299, [10**9], reps=200, seed=3) == [(10**9, 0.0)]
        assert chebyshev_bound(FAIR, [1e300, 0.0], 1e299, 10**9) == pytest.approx(2.5e-8, rel=1e-12)

    def test_variance_survives_an_overflowing_second_moment(self):
        # E[v^2] overflows on both payoffs, but the variance is finite.
        assert payoff_moments(FAIR, [1e200, 1e200]) == (1e200, 0.0)
        _, var = payoff_moments(FAIR, [1.3e154, 1.4e154])
        assert var == pytest.approx(0.25 * 0.1e154**2, rel=1e-9)

    def test_inputs_validated(self, monkeypatch):
        # Each bad input raises a ValueError naming it, from both entries, before any draw.
        monkeypatch.setattr(detect, "_hit_rate", lambda *a: pytest.fail("sampled before checking"))
        cases = [
            *[(dict(epsilon=e), "epsilon") for e in (0.0, -0.1, "0.1", True, None, math.inf, math.nan)],
            *[(dict(n=n), "trial count") for n in (0, 10.7, 10.9, True, "10", math.inf, math.nan)],
            *[(dict(payoff=p), "payoff entry") for p in ([math.inf, 0.0], [math.nan, 0.0], ["1", 0], [True, 0])],
        ]
        for bad, name in cases:
            args = {"payoff": [1.0, 0.0], "epsilon": 0.1, "n": 10, **bad}
            with pytest.raises(ValueError, match=name):
                chebyshev_bound(FAIR, args["payoff"], args["epsilon"], args["n"])
            with pytest.raises(ValueError, match=name):
                lln_concentration(FAIR, args["payoff"], args["epsilon"], [args["n"]], reps=100, seed=0)
        for bad, name in [
            *[(dict(reps=r), "replication count") for r in (0, 10.7, True, "100", math.inf, math.nan)],
            *[(dict(seed=s), "seed") for s in (1.9, "1", True, -1, 2**64, math.nan)],
        ]:
            with pytest.raises(ValueError, match=name):
                lln_concentration(FAIR, [1.0, 0.0], 0.1, [10], **{"reps": 100, "seed": 1, **bad})
        with pytest.raises(DimensionMismatch):
            lln_concentration(FAIR, [1.0, 0.0, 2.0], 0.1, [100], reps=100, seed=0)


def test_trial_counts_validation():
    for counts, total, name in [
        ((5, -1), 4, "count"),
        ((1.5, 2.5), 3, "count"),
        ((True, 0), 1, "count"),
        (("5", 5), 10, "count"),
        ((5, 5), 11, "total"),
        ((1, 0), True, "total"),
        ((5, 5), 10.0, "total"),
        ((0, 0), 0, "total"),
    ]:
        with pytest.raises(ValueError, match=name):
            TrialCounts(counts, total, 0)
    for seed in ("x", -1, 2**64, True, 1.0):
        with pytest.raises(ValueError, match="seed"):
            TrialCounts((1, 1), 2, seed)


def per_row_verdicts(counts, null, alpha):
    n = int(counts[0].sum())
    return np.array([
        chi_squared_test(TrialCounts(tuple(row), n, 0), null, alpha).verdict == DEVIATION
        for row in counts.tolist()
    ])


# (null, sampling distribution, n, alpha, rows).  Every null pools at least
# one cell at its n; the second also has an impossible cell that the
# sampling distribution hits now and then.
EQUIVALENCE_CASES = [
    (apply_noise(make_distribution([0.35, 0.30, 0.20, 0.14, 0.007, 0.003]), 0.01),
     make_distribution([0.34, 0.29, 0.20, 0.15, 0.012, 0.008]), 1000, 0.05, 40_000),
    (make_distribution([0.5, 0.42, 0.06, 0.02, 0.0]),
     make_distribution([0.5, 0.4189, 0.06, 0.02, 0.0011]), 200, 0.01, 30_000),
    (make_distribution([0.02] * 8 + [0.105] * 8),
     make_distribution([0.021] * 8 + [0.104] * 8), 200, 0.1, 30_000),
]


class TestBatchedVerdicts:
    @pytest.mark.parametrize("case", range(len(EQUIVALENCE_CASES)))
    def test_match_per_row_chi_squared_test(self, case):
        null, sampling, n, alpha, rows = EQUIVALENCE_CASES[case]
        counts = np.random.default_rng(case).multinomial(n, sampling.weights, size=rows)
        plan = pooling_plan(null, n)
        assert plan.pooled
        batched = deviation_verdicts(counts, plan, alpha, *critical_band(alpha, plan.dof))
        exact = per_row_verdicts(counts, null, alpha)
        assert np.array_equal(batched, exact)
        assert 0.01 < exact.mean() < 0.99  # verdicts fall on both sides
        if plan.impossible:
            assert np.isinf(pearson_statistics(counts, plan)).any()

    def test_rows_forced_into_the_band(self):
        # alpha set to a row's own p-value puts that row's statistic on the
        # critical value: p < alpha is false there, and true one ulp above.
        null, sampling, n, _, _ = EQUIVALENCE_CASES[0]
        counts = np.random.default_rng(99).multinomial(n, sampling.weights, size=2000)
        plan = pooling_plan(null, n)
        statistic = pearson_statistics(counts, plan)
        forced = 0
        for r in range(0, 2000, 200):
            p_value = chi_squared_test(TrialCounts(tuple(counts[r]), n, 0), null, 0.5).p_value
            if not 0.0 < p_value < 1.0:
                continue
            forced += 1
            for alpha in (p_value, math.nextafter(p_value, 1.0)):
                critical, band = critical_band(alpha, plan.dof)
                assert band == CRITICAL_BAND
                assert abs(statistic[r] - critical) <= band * critical
                batched = deviation_verdicts(counts, plan, alpha, critical, band)
                assert np.array_equal(batched, per_row_verdicts(counts, null, alpha))
                assert batched[r] == (alpha > p_value)
        assert forced >= 8

    def test_impossible_hit_is_a_deviation(self):
        null = make_distribution([0.5, 0.5, 0.0])
        counts = np.array([[50, 49, 1], [50, 50, 0]])
        plan = pooling_plan(null, 100)
        assert plan.impossible == (2,)
        got = deviation_verdicts(counts, plan, 0.05, *critical_band(0.05, plan.dof))
        assert got.tolist() == [True, False]

    def test_alpha_next_to_one_falls_back_to_exact_tests(self):
        # (500, 500) against a null 2e-13 off one half has a statistic near
        # 1.6e-22 and a p-value near 1 - 1e-11, where the tail is flat to
        # rounding (doubles below 1 are ~1e-16 apart) over more than the 1e-6
        # band: the critical value alone misjudges that row at alpha =
        # p_value, so every row must go to chi_squared_test.
        null = make_distribution([0.5 + 2e-13, 0.5 - 2e-13])
        counts = np.array([[500, 500], [499, 501], [500, 500], [501, 499]])
        plan = pooling_plan(null, 1000)
        p_value = chi_squared_test(TrialCounts((500, 500), 1000, 0), null, 0.5).p_value
        assert 1.0 - 1e-9 < p_value < 1.0
        for alpha in (p_value, math.nextafter(p_value, 1.0)):
            _, band = critical_band(alpha, plan.dof)
            assert band == math.inf
            batched = deviation_verdicts(counts, plan, alpha, *critical_band(alpha, plan.dof))
            assert np.array_equal(batched, per_row_verdicts(counts, null, alpha))
            assert batched.tolist() == [alpha > p_value, True, alpha > p_value, True]

    def test_plan_is_the_rule_chi_squared_test_uses(self):
        null = make_distribution([0.90, 0.06, 0.02, 0.02, 0.0])
        plan = pooling_plan(null, 100)
        assert (plan.kept, plan.pooled, plan.impossible) == ((0, 1), (2, 3), (4,))
        assert plan.expected == pytest.approx((90.0, 6.0, 4.0)) and plan.dof == 2
        with pytest.raises(InsufficientExpected):
            pooling_plan(FAIR, 6)


# (null, sampling distribution, n): the benchmark's 16-outcome sweep null at
# 10,000 trials, which pools nothing, and a null that pools a cell and has an
# impossible one, which its sampling distribution hits now and then.
PEARSON_CASES = {
    "sweep16": (make_distribution([0.02] * 8 + [0.105] * 8),) * 2 + (10_000,),
    "pooled": EQUIVALENCE_CASES[1][:3],
}


def left_to_right_statistic(row, plan):
    """Pearson's sum over one row's test cells in order, pooled cell last."""
    if any(row[j] for j in plan.impossible):
        return math.inf
    observed = [row[j] for j in plan.kept] + ([sum(row[j] for j in plan.pooled)] if plan.pooled else [])
    terms = [(o - e) ** 2 / e for o, e in zip(observed, plan.expected)]
    return functools.reduce(operator.add, terms)  # uncompensated, as sum() is before Python 3.12


class TestOnePearsonSum:
    @pytest.mark.parametrize("case", PEARSON_CASES)
    def test_statistic_does_not_depend_on_block_size(self, case):
        null, sampling, n = PEARSON_CASES[case]
        counts = np.random.default_rng(20).multinomial(n, sampling.weights, size=BLOCK)
        plan = pooling_plan(null, n)
        block = pearson_statistics(counts, plan).tolist()
        assert block == [pearson_statistics(counts[r:r + 1], plan)[0] for r in range(BLOCK)]
        assert block == [left_to_right_statistic(row, plan) for row in counts.tolist()]
        assert (math.inf in block) == bool(plan.impossible)  # the pooled case hits its impossible cell

    @pytest.mark.parametrize("case", PEARSON_CASES)
    def test_pearson_tests_equal_chi_squared_test(self, case):
        null, sampling, n = PEARSON_CASES[case]
        counts = np.random.default_rng(21).multinomial(n, sampling.weights, size=300)
        reports = [chi_squared_test(TrialCounts(tuple(row), n, 0), null, 0.05) for row in counts.tolist()]
        assert pearson_tests(counts, pooling_plan(null, n), 0.05) == [
            (report.statistic, report.p_value, report.verdict) for report in reports
        ]


def reference_power(nature, understanding, sigma, n, alpha, reps, seed):
    """detection_power spelled out: one chi_squared_test per row of each block."""
    alt = exercise_will(nature, understanding, sigma)
    hits = 0
    for b, start in enumerate(range(0, reps, BLOCK)):
        rows = min(BLOCK, reps - start)
        counts = np.random.default_rng(derive_seed(seed, b)).multinomial(n, alt.weights, size=rows)
        hits += int(per_row_verdicts(counts, nature, alpha).sum())
    return hits / reps


class TestBlockStreams:
    def test_power_matches_per_row_reference(self):
        reps = 2 * BLOCK + 452  # two full blocks and a partial one
        args = (FAIR, ETHICAL, 0.05, 1000, 0.05, reps, 17)
        assert detection_power(*args) == reference_power(*args)

    def test_lln_uses_seed_schedule_block_path(self):
        reps = BLOCK + 76
        payoff = [1.0, 0.0]
        got = lln_concentration(FAIR, payoff, 0.02, [100, 2500], reps=reps, seed=23)
        for i, (n, est) in enumerate(got):
            hits = 0
            for b, start in enumerate(range(0, reps, BLOCK)):
                rng = np.random.default_rng(derive_seed(23, i, b))
                counts = rng.multinomial(n, FAIR.weights, size=min(BLOCK, reps - start))
                hits += sum(abs(c[0] / n - 0.5) > 0.02 for c in counts.tolist())
            assert est == hits / reps

    def test_seed_path_entries_are_nonnegative_integers(self):
        assert derive_seed(1, np.int64(2)) == derive_seed(1, 2)
        for entry in (2.9, True, -1, "2"):
            with pytest.raises(ValueError, match="seed path entry"):
                derive_seed(1, entry)


def _no_sampling(*args):
    raise AssertionError("sampling started before validation finished")


class TestValidationBeforeSampling:
    POWER = dict(nature=FAIR, understanding=ETHICAL, will=0.3, n=1000, alpha=0.05, reps=200, seed=1)

    @pytest.mark.parametrize("bad, error", [
        (dict(reps=99), ValueError),
        (dict(n=0), ValueError),
        (dict(alpha=0.0), ValueError),
        (dict(alpha=1.0), ValueError),
        (dict(seed=-1), ValueError),
        (dict(seed=2**64), ValueError),
        (dict(will=1.5), ValueError),
        (dict(noise=-0.1), ValueError),
        (dict(understanding=uniform_distribution(3)), DimensionMismatch),
        (dict(n=6), InsufficientExpected),
    ])
    def test_detection_power(self, monkeypatch, bad, error):
        monkeypatch.setattr(detect, "derive_seed", _no_sampling)
        with pytest.raises(error):
            detection_power(**{**self.POWER, **bad})

    @pytest.mark.parametrize("bad, error", [
        (dict(seeds=[1, 2, -1]), ValueError),
        (dict(seeds=[1, 2, 2**64]), ValueError),
        (dict(sigmas=[0.0, 0.1, 1.5]), ValueError),
        (dict(understanding=uniform_distribution(3)), DimensionMismatch),
    ])
    def test_power_curve_checks_every_point_before_the_first_draw(self, monkeypatch, bad, error):
        monkeypatch.setattr(detect, "_hit_rate", _no_sampling)
        curve = dict(nature=FAIR, understanding=ETHICAL, sigmas=[0.0, 0.1, 0.2], seeds=[1, 2, 3],
                     n=1000, alpha=0.05, reps=200, noise=0.0)
        with pytest.raises(error):
            detect._power_curve(**{**curve, **bad})

    LLN = dict(dist=FAIR, payoff=[1.0, 0.0], epsilon=0.1, n_schedule=[100, 1000], reps=100, seed=1)

    @pytest.mark.parametrize("bad, error", [
        (dict(epsilon=0.0), ValueError),
        (dict(reps=0), ValueError),
        (dict(seed=-1), ValueError),
        (dict(seed=2**64), ValueError),
        (dict(payoff=[1.0, 0.0, 2.0]), DimensionMismatch),
        (dict(n_schedule=[100, 0]), ValueError),
    ])
    def test_lln_concentration(self, monkeypatch, bad, error):
        monkeypatch.setattr(detect, "derive_seed", _no_sampling)
        with pytest.raises(error):
            lln_concentration(**{**self.LLN, **bad})
