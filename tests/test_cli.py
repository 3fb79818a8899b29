"""Experiment runner: config validation, runners, emission, exit codes."""

import json
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from funwill.cli import (
    ResultRecord,
    build_config,
    emit,
    format_archetypes,
    load_config,
    main,
    render_csv,
    run_collapse,
    run_distort,
    run_lln,
    run_power,
)
from funwill.collapse import build_povm, check_completeness, outcome_distribution, prepare_state
from funwill import detect
from funwill.detect import chi_squared_test, detection_power, simulate_trials
from funwill.distributions import (
    classify_regime,
    entropy_gradient,
    exercise_will,
    make_distribution,
    unpredictability,
)
from funwill.errors import (
    ConfigInvalid,
    DivergentGradient,
    InsufficientExpected,
    IoFailure,
    UnreachableGuidance,
)
from funwill.seeding import derive_seed
from test_golden import CONFIGS as GOLDEN_CONFIGS

SAINT_CFG = {
    "labels": ["good", "evil"],
    "nature": [0.5, 0.5],
    "understanding": [1.0, 0.0],
    "sigma": {"start": 0.0, "stop": 1.0, "steps": 11},
    "trials": 1000,
    "alpha": 0.05,
    "reps": 200,
    "seed": 12,
}

LLN_CFG = {
    "nature": [0.5, 0.5], "payoff": [1.0, 0.0], "epsilon": 0.1,
    "n_schedule": [100, 1000], "reps": 300, "seed": 5,
}


EXPECTED_HEADER = (
    "sigma,p_prime_0,p_prime_1,xi_bits,dh_dsigma,regime,"
    "residual,chi2,p_value,verdict,power"
)


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigValidation:
    def test_valid_config_round_trips(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SAINT_CFG))
        assert cfg.labels == ("good", "evil")
        assert cfg.sigmas[0] == 0.0 and cfg.sigmas[-1] == 1.0 and len(cfg.sigmas) == 11
        assert cfg.seed == 12

    def test_unknown_field_named(self):
        with pytest.raises(ConfigInvalid) as exc:
            build_config({**SAINT_CFG, "sigmas": 0.5})
        assert exc.value.field == "sigmas"

    def test_unnormalized_nature_named(self):
        with pytest.raises(ConfigInvalid) as exc:
            build_config({**SAINT_CFG, "nature": [0.3, 0.3]})
        assert exc.value.field == "nature"

    def test_bad_sigma_sweep(self):
        for bad in ({"start": 0.6, "stop": 0.4, "steps": 3},
                    {"start": 0.0, "stop": 1.0, "steps": 0},
                    {"start": 0.0, "stop": 1.0},
                    "half"):
            with pytest.raises(ConfigInvalid):
                build_config({**SAINT_CFG, "sigma": bad})

    @pytest.mark.parametrize("steps", [10**6 + 1, 10**9])
    def test_sigma_steps_capped_before_the_grid(self, tmp_path, caplog, steps):
        sweep = {"start": 0.0, "stop": 1.0, "steps": steps}
        with pytest.raises(ConfigInvalid) as exc:
            build_config({**SAINT_CFG, "sigma": sweep})
        assert exc.value.field == "sigma"
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "sigma": sweep, "out": str(tmp_path / "s.csv")})
        assert main(["distort", "--config", cfg_path, "--quiet"]) == 2
        assert "config error: sigma:" in caplog.text

    def test_sigma_steps_cap_itself_accepted(self):
        # The grid is built only when ``sigmas`` is read, so this allocates nothing.
        build_config({**SAINT_CFG, "sigma": {"start": 0.0, "stop": 1.0, "steps": 10**6}})

    def test_one_step_sweep_must_stop_where_it_starts(self, tmp_path, caplog):
        sweep = {"start": 0.2, "stop": 0.8, "steps": 1}
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "sigma": sweep, "out": str(tmp_path / "s.csv")})
        assert main(["distort", "--config", cfg_path, "--quiet"]) == 2
        assert "config error: sigma:" in caplog.text
        assert build_config({"sigma": {"start": 0.3, "stop": 0.3, "steps": 1}}).sigmas == (0.3,)

    def test_scalar_sigma(self):
        cfg = build_config({**SAINT_CFG, "sigma": 0.5})
        assert cfg.sigmas == (0.5,)

    @pytest.mark.parametrize("sigma", [
        -0.0, {"start": -0.0, "stop": -0.0, "steps": 1}, {"start": -0.0, "stop": 1.0, "steps": 3},
    ])
    def test_negative_zero_sigma_is_written_as_zero(self, sigma):
        rec = run_distort(build_config({**SAINT_CFG, "sigma": sigma}))
        assert math.copysign(1.0, rec.rows[0]["sigma"]) == 1.0
        assert render_csv(rec).splitlines()[1].startswith("0,")

    @pytest.mark.parametrize("field, value", [
        ("trials", True),
        ("reps", True),
        ("seed", True),
        ("seed", False),
        ("seed", 3.7),
        ("seed", "12"),
        ("n_schedule", [100, True]),
        ("epsilon", math.nan),
        ("epsilon", math.inf),
        ("epsilon", "0.1"),
        ("noise", True),
        ("noise", "0.1"),
        ("sigma", {"start": 0.0, "stop": 1.0, "steps": 5.7}),
        ("sigma", {"start": 0.0, "stop": 1.0, "steps": True}),
        ("sigma", {"start": 0.0, "stop": 1.0, "steps": "3"}),
        ("sigma", {"start": "0", "stop": 1.0, "steps": 3}),
        ("alpha", "0.05"),
        pytest.param("alpha", 10**400, id="alpha-1e400"),
        ("payoff", [math.nan, 0.0]),
        ("payoff", [True, False]),
        ("payoff", ["1", "0"]),
        ("nature", [True, False]),
        ("nature", ["0.5", "0.5"]),
        ("nature", 0.5),
        ("nature", []),
        ("labels", [None, 1.5]),
        ("labels", ["a", ["b"]]),
        ("labels", "ab"),
    ])
    def test_bool_and_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigInvalid) as exc:
            build_config({**SAINT_CFG, field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("trials", 2**63),
        ("trials", 10**20),
        ("n_schedule", [100, 2**63]),
    ])
    def test_counts_numpy_cannot_take_rejected(self, field, value):
        with pytest.raises(ConfigInvalid) as exc:
            build_config({**SAINT_CFG, field: value})
        assert exc.value.field == field

    def test_largest_trial_count_accepted(self):
        cfg = build_config({**SAINT_CFG, "trials": 2**63 - 1, "n_schedule": [2**63 - 1]})
        assert cfg.trials == cfg.n_schedule[0] == 2**63 - 1

    def test_sweep_endpoints_pinned_over_random_sweeps(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            start, stop = sorted(rng.random(2).tolist())
            steps = int(rng.integers(2, 200))
            grid = build_config({"sigma": {"start": start, "stop": stop, "steps": steps}}).sigmas
            assert len(grid) == steps
            assert grid[0] == start and grid[-1] == stop
            assert all(a <= b for a, b in zip(grid, grid[1:]))

    def test_dimension_cross_check(self):
        with pytest.raises(ConfigInvalid) as exc:
            build_config({**SAINT_CFG, "understanding": [0.2, 0.3, 0.5]})
        assert exc.value.field == "understanding"
        assert str(exc.value) == "understanding: has 3 entries, but labels has 2"

    def test_dimension_cross_check_names_the_mismatched_field(self, tmp_path, caplog):
        doc = {**LLN_CFG, "payoff": [1, 0, 3], "out": str(tmp_path / "l.csv")}
        assert main(["lln", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 2
        assert "config error: payoff: has 3 entries, but nature has 2" in caplog.text

    def test_missing_required_field_for_runner(self):
        cfg = build_config({"labels": ["a", "b"], "nature": [0.5, 0.5], "sigma": 0.1, "seed": 0})
        with pytest.raises(ConfigInvalid) as exc:
            run_distort(cfg)
        assert exc.value.field == "understanding"

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_config(str(bad))
        bad.write_bytes(b'{"seed": 1, "labels": ["\xff"]}')
        with pytest.raises(ConfigInvalid):
            load_config(str(bad))
        bad.write_text("[]")
        with pytest.raises(ConfigInvalid) as exc:
            load_config(str(bad))
        assert exc.value.field == "config"


@pytest.mark.parametrize("runner, doc", [
    (run_distort, SAINT_CFG),
    (run_collapse, SAINT_CFG),
    (run_power, SAINT_CFG),
    (run_lln, LLN_CFG),
])
def test_every_row_is_laid_out_under_the_header(runner, doc):
    rec = runner(build_config(doc))
    assert rec.rows
    assert all(list(row) == rec.columns for row in rec.rows)


@pytest.mark.parametrize("runner", [run_collapse, run_power])
def test_too_few_trials_raise_insufficient_expected(runner):
    # main maps the error to exit 2 naming trials (TestMain.test_too_few_trials_exit_code).
    with pytest.raises(InsufficientExpected):
        runner(build_config({**SAINT_CFG, "trials": 3}))


class TestRunDistort:
    def test_saint_sweep_endpoint(self):
        rec = run_distort(build_config(SAINT_CFG))
        assert len(rec.rows) == 11
        last = rec.rows[-1]
        assert last["sigma"] == 1.0
        assert (last["p_prime_0"], last["p_prime_1"]) == (1.0, 0.0)
        assert last["xi_bits"] == 0.0
        assert last["dh_dsigma"] == -math.inf
        assert last["regime"] == "certainty_increasing"

    def test_particle_rows_identical_to_nature(self):
        cfg = build_config({
            "labels": ["0", "1"], "nature": [0.3, 0.7], "understanding": [0.3, 0.7],
            "sigma": {"start": 0.0, "stop": 1.0, "steps": 5}, "seed": 0,
        })
        rec = run_distort(cfg)
        for row in rec.rows:
            assert (row["p_prime_0"], row["p_prime_1"]) == (0.3, 0.7)

    def test_three_way_blend_row(self):
        cfg = build_config({
            "labels": ["coffee", "tea", "alcohol"],
            "nature": [0.25, 0.25, 0.5],
            "understanding": [0.5, 0.5, 0.0],
            "sigma": 0.5,
            "seed": 0,
        })
        row = run_distort(cfg).rows[0]
        assert (row["p_prime_0"], row["p_prime_1"], row["p_prime_2"]) == pytest.approx(
            (0.375, 0.375, 0.25), abs=1e-15
        )

    def test_one_gradient_per_row(self, monkeypatch):
        """The sweep blends once for the whole grid, and each row's gradient
        and regime reuse its row of that blend."""
        from funwill import cli, distributions

        calls = Counter()
        for module, name in ((cli, "_gradient"), (cli, "_blend_weights"), (distributions, "exercise_will")):
            monkeypatch.setattr(
                module, name,
                lambda *args, _f=getattr(module, name), _n=name: calls.update([_n]) or _f(*args),
            )
        rec = run_distort(build_config(SAINT_CFG))
        assert len(rec.rows) == 11
        assert calls == {"_gradient": 11, "_blend_weights": 1}
        assert [row["regime"] for row in rec.rows] == [
            classify_regime(make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0]), s)
            for s in (row["sigma"] for row in rec.rows)
        ]

    def test_detector_columns_stay_empty(self):
        rec = run_distort(build_config(SAINT_CFG))
        assert all(
            row["residual"] is None and row["verdict"] is None and row["power"] is None
            for row in rec.rows
        )


# Nulls with one outcome of positive probability: no trial count gives two test cells.
DEGENERATE_NULLS = {
    "certain": {"labels": ["a", "b"], "nature": [1.0, 0.0], "understanding": [1.0, 0.0]},
    "one_outcome": {"labels": ["a"], "nature": [1.0], "understanding": [1.0]},
}


@pytest.mark.parametrize("command", ["collapse", "power"])
@pytest.mark.parametrize("space", DEGENERATE_NULLS)
def test_degenerate_null_is_a_config_error_naming_nature(tmp_path, caplog, command, space):
    doc = {**SAINT_CFG, **DEGENERATE_NULLS[space], "sigma": 0.5, "trials": 10**6,
           "out": str(tmp_path / "n.csv")}
    assert main([command, "--config", write_cfg(tmp_path, doc), "--quiet"]) == 2
    assert "config error: nature: no trial count gives a chi-squared test" in caplog.text
    assert "config error: trials:" not in caplog.text


def test_noise_makes_a_certain_nature_testable(tmp_path):
    doc = {**SAINT_CFG, **DEGENERATE_NULLS["certain"], "sigma": 0.5, "noise": 0.1,
           "out": str(tmp_path / "n.csv")}
    assert main(["power", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 0


class TestRunCollapse:
    def test_zero_will_mostly_consistent_over_100_seeds(self):
        base = {**SAINT_CFG, "sigma": 0.0, "trials": 10_000}
        consistent = 0
        for seed in range(100):
            rec = run_collapse(build_config({**base, "seed": seed}))
            consistent += rec.rows[0]["verdict"] == "consistent"
        assert consistent >= 93

    def test_full_will_routes_every_sample_to_good(self):
        rec = run_collapse(build_config({**SAINT_CFG, "sigma": 1.0}))
        assert rec.rows[0]["p_prime_0"] >= 0.99

    def test_residual_below_tolerance_in_every_row(self):
        rec = run_collapse(build_config(SAINT_CFG))
        assert all(row["residual"] < 1e-9 for row in rec.rows)

    def test_unreachable_guidance_propagates(self):
        cfg = build_config({
            "labels": ["good", "evil"], "nature": [0.0, 1.0], "understanding": [1.0, 0.0],
            "sigma": 0.5, "trials": 100, "seed": 0,
        })
        from funwill.errors import UnreachableGuidance
        with pytest.raises(UnreachableGuidance):
            run_collapse(cfg)

    def test_collapse_frequencies_track_distort_rows(self):
        # Cross-pipeline consistency: the sampled frequencies sit within a
        # 4-sigma binomial band of the analytic blend for the same config.
        doc = {**SAINT_CFG, "sigma": {"start": 0.1, "stop": 0.9, "steps": 3}, "trials": 20_000}
        cfg = build_config(doc)
        analytic = run_distort(build_config(doc)).rows
        sampled = run_collapse(cfg).rows
        for a_row, s_row in zip(analytic, sampled):
            for j in (0, 1):
                p = a_row[f"p_prime_{j}"]
                slack = 4.0 * math.sqrt(p * (1.0 - p) / doc["trials"])
                assert abs(s_row[f"p_prime_{j}"] - p) <= slack


# The benchmark's 16-outcome sweep at 21 sigma points.
SWEEP16_CFG = {
    "labels": [f"o{j}" for j in range(16)],
    "nature": [0.02] * 8 + [0.105] * 8,
    "understanding": [0.25, 0.25, 0.5] + [0.0] * 13,
    "sigma": {"start": 0.0, "stop": 1.0, "steps": 21},
    "trials": 10_000,
    "seed": 1414,
}

# The same model at the benchmark's 101 sigma points: enough rows that
# collapse derives its row streams in a batch.
SWEEP101_CFG = {**SWEEP16_CFG, "sigma": {"start": 0.0, "stop": 1.0, "steps": 101}}

# Outcome 3 is expected 3 times in 1000 trials, so Pearson pools it, and
# outcome 4 has probability zero under both vectors: an impossible cell.
POOLED_CFG = {
    "labels": ["a", "b", "c", "d", "e"],
    "nature": [0.5, 0.3, 0.197, 0.003, 0.0],
    "understanding": [0.1, 0.1, 0.1, 0.7, 0.0],
    "sigma": {"start": 0.0, "stop": 1.0, "steps": 11},
    "trials": 1000,
    "seed": 77,
}


def reference_rows(kind, config):
    """The rows of ``kind`` from the public per-row API, one sigma at a time."""
    nature, understanding = config.nature, config.understanding
    state = prepare_state(nature)
    rows = []
    for i, sigma in enumerate(config.sigmas):
        row = dict.fromkeys(["dh_dsigma", "regime", "residual", "chi2", "p_value", "verdict", "power"])
        if kind == "distort":
            dist = exercise_will(nature, understanding, sigma)
            try:
                grad = entropy_gradient(nature, understanding, sigma)
            except DivergentGradient as err:
                grad = math.copysign(math.inf, err.sign)
            row.update(dh_dsigma=grad, regime=classify_regime(nature, understanding, sigma))
        else:
            povm = build_povm(nature, understanding, sigma)
            residual = check_completeness(povm, state)
            dist = outcome_distribution(povm, state)
            counts = simulate_trials(dist, config.trials, derive_seed(config.seed, i))
            report = chi_squared_test(counts, nature, config.alpha)
            dist = counts.frequencies()
            row.update(residual=residual, chi2=report.statistic, p_value=report.p_value,
                       verdict=report.verdict)
        row.update({f"p_prime_{j}": w for j, w in enumerate(dist.weights)})
        row.update(sigma=sigma, xi_bits=unpredictability(dist))
        rows.append(row)
    return rows


class TestSweepEquivalence:
    """The array-native sweeps give exactly the rows of the per-row API."""

    @pytest.mark.parametrize(
        "doc", [SWEEP16_CFG, SWEEP101_CFG, POOLED_CFG, SAINT_CFG], ids=["sweep16", "sweep101", "pooled", "saint"]
    )
    @pytest.mark.parametrize("runner", [run_distort, run_collapse], ids=["distort", "collapse"])
    def test_rows_equal_the_per_row_api(self, runner, doc):
        config = build_config(doc)
        assert runner(config).rows == reference_rows(runner.__name__.removeprefix("run_"), config)

    def test_one_pooling_plan_and_one_seed_per_row(self, monkeypatch):
        from funwill import cli

        plans, seeds = [], []
        pooling_plan, derive = cli.pooling_plan, cli.derive_seeds

        def derive_seeds(seed, paths, **kwargs):
            paths = list(paths)
            seeds.extend((seed, *path) for path in paths)
            return derive(seed, paths, **kwargs)

        monkeypatch.setattr(cli, "pooling_plan", lambda *a: plans.append(a) or pooling_plan(*a))
        monkeypatch.setattr(cli, "derive_seeds", derive_seeds)
        config = build_config(SWEEP16_CFG)
        run_collapse(config)
        assert plans == [(config.nature, config.trials)]
        assert seeds == [(config.seed, i) for i in range(21)]

    def test_unreachable_guidance_names_the_first_outcome(self, tmp_path, caplog):
        doc = {**SWEEP16_CFG, "labels": list("abcd"), "nature": [0.5, 0.0, 0.5, 0.0],
               "understanding": [0.2, 0.3, 0.1, 0.4], "out": str(tmp_path / "u.csv")}
        assert main(["collapse", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 3
        assert "guidance weight 0.3 on outcome 1 is unreachable" in caplog.text
        with pytest.raises(UnreachableGuidance, match="weight 0.3 on outcome 1 "):
            run_collapse(build_config(doc))

    @pytest.mark.parametrize("sigma, code", [
        (0.5, 3),  # the first row's measurement is unreachable before any test
        ({"start": 0.0, "stop": 1.0, "steps": 3}, 2),  # the first row reaches its too-small test
    ])
    def test_first_row_error_takes_precedence(self, tmp_path, sigma, code):
        doc = {"labels": ["g", "e"], "nature": [0.0, 1.0], "understanding": [1.0, 0.0],
               "sigma": sigma, "trials": 3, "seed": 1, "out": str(tmp_path / "p.csv")}
        assert main(["collapse", "--config", write_cfg(tmp_path, doc), "--quiet"]) == code

    @pytest.mark.parametrize("sigma, code, logged", [
        (0.5, 3, "is unreachable"),  # the only row's measurement is unreachable
        ({"start": 0.0, "stop": 1.0, "steps": 3}, 2, "config error: trials:"),  # row 0 tests first
    ])
    def test_row_0_trials_error_comes_before_a_later_model_error(self, tmp_path, caplog, sigma, code, logged):
        doc = {"labels": ["a", "b", "c"], "nature": [0.5, 0.5, 0.0], "understanding": [0, 0, 1],
               "sigma": sigma, "trials": 3, "seed": 1, "out": str(tmp_path / "p.csv")}
        assert main(["collapse", "--config", write_cfg(tmp_path, doc), "--quiet"]) == code
        assert logged in caplog.text

    def test_subnormal_baseline_weight_exit_0(self, tmp_path):
        out = tmp_path / "s.json"
        doc = {"labels": ["a", "b"], "nature": [1.0, 1e-310], "understanding": [0.0, 1.0],
               "sigma": 0.5, "trials": 1000, "seed": 3, "out": str(out), "format": "json"}
        assert main(["collapse", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 0
        assert json.loads(out.read_text())["rows"][0]["residual"] <= 1e-9


def test_collapse_rows_are_tested_in_one_batched_call(monkeypatch):
    shapes = []
    statistics = detect.pearson_statistics
    monkeypatch.setattr(detect, "pearson_statistics",
                        lambda c, plan: shapes.append(c.shape) or statistics(c, plan))
    run_collapse(build_config(SWEEP16_CFG))
    assert shapes == [(21, 16)]


# Full noise: the null and every alternative are uniform, so power stays near alpha.
FULL_NOISE_CFG = {
    "labels": list("abcd"), "nature": [0.4, 0.3, 0.2, 0.1], "understanding": [0.1, 0.2, 0.3, 0.4],
    "sigma": {"start": 0.0, "stop": 1.0, "steps": 5}, "trials": 200, "noise": 1.0, "reps": 300, "seed": 7,
}


class TestRunPower:
    def test_null_row_calibrates_to_alpha(self):
        # The exact size of this two-outcome test at n=1000 is 0.0537, so
        # 2000 reps keep both window edges at least 3.2 Monte Carlo SE away.
        cfg = build_config({**SAINT_CFG, "sigma": 0.0, "reps": 2000, "seed": 2})
        assert 0.03 <= run_power(cfg).rows[0]["power"] <= 0.07

    def test_rows_monotone_in_sigma(self):
        cfg = build_config({**SAINT_CFG, "sigma": {"start": 0.0, "stop": 1.0, "steps": 6},
                            "reps": 300, "seed": 2})
        powers = [row["power"] for row in run_power(cfg).rows]
        assert all(b >= a - 0.03 for a, b in zip(powers, powers[1:]))

    def test_noise_degrades_power(self):
        powers = {}
        for lam in (0.0, 0.5):
            cfg = build_config({**SAINT_CFG, "sigma": 0.2, "trials": 100,
                                "reps": 400, "noise": lam, "seed": 2})
            powers[lam] = run_power(cfg).rows[0]["power"]
        assert powers[0.5] <= powers[0.0]

    def test_reps_floor_maps_to_config_error(self, tmp_path, caplog):
        for reps in (50, detect.MIN_POWER_REPS - 1):
            cfg = build_config({**SAINT_CFG, "reps": reps})
            with pytest.raises(ConfigInvalid) as exc:
                run_power(cfg)
            assert exc.value.field == "reps"
        doc = {**SAINT_CFG, "reps": detect.MIN_POWER_REPS - 1, "out": str(tmp_path / "p.csv")}
        assert main(["power", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 2
        assert f"config error: reps: power estimates need at least {detect.MIN_POWER_REPS}" in caplog.text

    @pytest.mark.parametrize("doc", [GOLDEN_CONFIGS["power"], GOLDEN_CONFIGS["power_edges"], FULL_NOISE_CFG],
                             ids=["power", "power_edges", "full_noise"])
    def test_rows_equal_detection_power(self, doc):
        config = build_config(doc)
        for i, row in enumerate(run_power(config).rows):
            assert row["power"] == detection_power(
                config.nature, config.understanding, row["sigma"], n=config.trials,
                alpha=config.alpha, reps=config.reps, seed=derive_seed(config.seed, i), noise=config.noise,
            )

    @pytest.mark.parametrize("steps", [1, 11])
    def test_one_plan_and_one_critical_value_per_run(self, monkeypatch, steps):
        plans, bands = [], []
        pooling_plan, critical_band = detect.pooling_plan, detect.critical_band
        monkeypatch.setattr(detect, "pooling_plan", lambda *a: plans.append(a) or pooling_plan(*a))
        monkeypatch.setattr(detect, "critical_band", lambda *a: bands.append(a) or critical_band(*a))
        stop = 0.1 if steps > 1 else 0.0  # a one-step sweep stops where it starts
        run_power(build_config({**SAINT_CFG, "sigma": {"start": 0.0, "stop": stop, "steps": steps}}))
        assert len(plans) == 1 and len(bands) == 1


class TestRunLln:
    def test_fair_coin_table(self):
        rec = run_lln(build_config(LLN_CFG))
        assert rec.columns == ["n", "deviation_prob", "chebyshev_bound"]
        assert rec.rows[0]["chebyshev_bound"] == pytest.approx(0.25)
        assert rec.rows[0]["deviation_prob"] >= rec.rows[1]["deviation_prob"]


class TestEmit:
    def test_header_only_csv_for_empty_record(self, tmp_path):
        rec = ResultRecord("distort-x", {}, EXPECTED_HEADER.split(","), [])
        path = str(tmp_path / "empty.csv")
        emit(rec, path, "csv")
        assert Path(path).read_text() == EXPECTED_HEADER + "\n"

    def test_one_row_record_is_two_lines(self, tmp_path):
        cfg = build_config({**SAINT_CFG, "sigma": 0.5})
        rec = run_distort(cfg)
        path = str(tmp_path / "one.csv")
        emit(rec, path, "csv")
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == EXPECTED_HEADER

    def test_floats_carry_twelve_significant_digits(self):
        cfg = build_config({
            "labels": ["a", "b", "c"], "nature": [1 / 3, 1 / 3, 1 / 3],
            "understanding": [0.5, 0.5, 0.0], "sigma": 0.0, "seed": 0,
        })
        text = render_csv(run_distort(cfg))
        assert "0.333333333333," in text.splitlines()[1]

    def test_json_round_trip(self, tmp_path):
        rec = run_distort(build_config(SAINT_CFG))
        path = str(tmp_path / "rec.json")
        emit(rec, path, "json")
        doc = json.loads(Path(path).read_text())
        assert doc["experiment_id"] == rec.experiment_id
        assert doc["columns"] == rec.columns
        assert len(doc["rows"]) == len(rec.rows)
        for parsed, row in zip(doc["rows"], rec.rows):
            for col in rec.columns:
                want = row[col]
                if isinstance(want, float) and math.isfinite(want):
                    assert parsed[col] == pytest.approx(want, rel=1e-11)
                elif isinstance(want, float):
                    assert parsed[col] == want  # json handles +/-Infinity
                else:
                    assert parsed[col] == want

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        rec = ResultRecord("x", {}, ["sigma"], [])
        with pytest.raises(IoFailure):
            emit(rec, str(tmp_path / "no" / "such" / "dir.csv"), "csv")

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_write_keeps_old_output_and_leaves_no_temp(self, tmp_path, monkeypatch, stage):
        from funwill import cli

        target = tmp_path / "out.csv"
        target.write_text("previous run\n")
        if stage == "write":
            real_open = open

            def failing_open(path, *args, **kwargs):
                fh = real_open(path, *args, **kwargs)
                fh.write("partial")
                fh.flush()
                fh.close()
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(cli, "open", failing_open, raising=False)
        else:
            def failing_replace(src, dst):
                raise OSError(13, "Permission denied")

            monkeypatch.setattr(cli.os, "replace", failing_replace)
        rec = run_distort(build_config(SAINT_CFG))
        with pytest.raises(IoFailure):
            emit(rec, str(target), "csv")
        assert target.read_text() == "previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_replaces_existing_output(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("previous run\n")
        rec = run_distort(build_config(SAINT_CFG))
        emit(rec, str(target), "csv")
        assert target.read_text() == render_csv(rec)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


class TestMain:
    def test_distort_end_to_end(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "out": str(tmp_path / "d.csv")})
        assert main(["distort", "--config", cfg_path, "--quiet"]) == 0
        lines = (tmp_path / "d.csv").read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 12

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "trials": 2000})
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["collapse", "--config", cfg_path, "--out", a, "--quiet"]) == 0
        assert main(["collapse", "--config", cfg_path, "--out", b, "--quiet"]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "trials": 2000})
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["collapse", "--config", cfg_path, "--out", a, "--quiet"]) == 0
        assert main(["collapse", "--config", cfg_path, "--out", b, "--seed", "999", "--quiet"]) == 0
        assert Path(a).read_text() != Path(b).read_text()

    def test_env_seed_fallback(self, tmp_path, caplog, monkeypatch):
        doc = {k: v for k, v in SAINT_CFG.items() if k != "seed"}
        cfg_path = write_cfg(tmp_path, doc)
        out = str(tmp_path / "env.csv")
        monkeypatch.delenv("FUNWILL_SEED", raising=False)
        assert main(["distort", "--config", cfg_path, "--out", out, "--quiet"]) == 2
        monkeypatch.setenv("FUNWILL_SEED", "abc")
        assert main(["distort", "--config", cfg_path, "--out", out]) == 2
        assert "config error: seed: FUNWILL_SEED='abc'" in caplog.text
        monkeypatch.setenv("FUNWILL_SEED", "31")
        assert main(["distort", "--config", cfg_path, "--out", out, "--quiet"]) == 0

    def test_config_error_exit_code(self, tmp_path, caplog):
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "nature": [0.3, 0.3]})
        assert main(["distort", "--config", cfg_path, "--out", "x.csv", "--quiet"]) == 2
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "labels": [None, 1.5]})
        assert main(["distort", "--config", cfg_path, "--out", "x.csv"]) == 2
        assert "config error: labels: labels must be strings" in caplog.text

    def test_model_error_exit_code(self, tmp_path):
        doc = {**SAINT_CFG, "nature": [0.0, 1.0], "sigma": 0.5, "out": str(tmp_path / "m.csv")}
        cfg_path = write_cfg(tmp_path, doc)
        assert main(["collapse", "--config", cfg_path, "--quiet"]) == 3

    @pytest.mark.parametrize("command", ["collapse", "power"])
    def test_too_few_trials_exit_code(self, tmp_path, caplog, command):
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "trials": 3})
        out = str(tmp_path / "t.csv")
        assert main([command, "--config", cfg_path, "--out", out]) == 2
        assert "config error: trials:" in caplog.text
        assert not os.path.exists(out)

    def test_huge_chi_squared_statistic_exit_0(self, tmp_path):
        # One hit on a 1e-263 cell gives a statistic of ~4e263, whose tail is 0.
        out = tmp_path / "h.csv"
        doc = {**SAINT_CFG, "nature": [1.0, 1e-263], "understanding": [0.0, 1.0],
               "sigma": 0.5, "trials": 12, "seed": 1, "out": str(out)}
        assert main(["collapse", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert (row[8], row[9]) == ("0", "deviation")

    def test_twenty_thousand_dof_collapse_exit_0(self, tmp_path):
        # dof 20,000 with the statistic near dof, the largest tail sum the tests take.
        out = tmp_path / "u.json"
        uniform = [1 / 20_001] * 20_001
        doc = {"labels": [f"o{j}" for j in range(20_001)], "nature": uniform, "understanding": uniform,
               "sigma": 0.0, "trials": 100_055, "seed": 7, "out": str(out), "format": "json"}
        assert main(["collapse", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 0
        [row] = json.loads(out.read_text())["rows"]
        assert 0.0 <= row["p_value"] <= 1.0

    def test_overflowing_pooled_cell_power_exit_0(self, tmp_path):
        # Every replication hits the pooled ~2e-307 cell, so each statistic
        # overflows to +inf: the right value, reached without a RuntimeWarning.
        out = tmp_path / "p.json"
        doc = {"labels": list("abc"), "nature": [0.5, 2.2250738585e-310, 0.5], "understanding": [0, 1, 0],
               "sigma": 0.5, "trials": 1000, "reps": 100, "seed": 1, "out": str(out), "format": "json"}
        assert main(["power", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 0
        assert json.loads(out.read_text())["rows"][0]["power"] == 1

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SAINT_CFG)
        out = str(tmp_path / "no" / "dir.csv")
        assert main(["distort", "--config", cfg_path, "--out", out, "--quiet"]) == 4

    @pytest.mark.parametrize("flag, field", [
        ("--out=", "out"),
        ("--seed=-1", "seed"),
        ("--format=xml", "format"),
    ])
    def test_bad_flag_is_config_error_naming_its_key(self, tmp_path, caplog, flag, field):
        cfg_path = write_cfg(tmp_path, {**SAINT_CFG, "out": str(tmp_path / "d.csv")})
        assert main(["distort", "--config", cfg_path, flag]) == 2
        assert f"config error: {field}:" in caplog.text
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_missing_out_is_config_error(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SAINT_CFG)
        assert main(["distort", "--config", cfg_path, "--quiet"]) == 2

    def test_archetypes_prints_profiles(self, capsys):
        assert main(["archetypes"]) == 0
        out = capsys.readouterr().out
        for name in ("saint", "conscientious_criminal", "hardcore_criminal", "particle"):
            assert name in out
        assert "sigma=0.99" in out

    def test_format_flag_switches_to_json(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SAINT_CFG)
        out = str(tmp_path / "d.json")
        assert main(["distort", "--config", cfg_path, "--out", out, "--format", "json", "--quiet"]) == 0
        assert json.loads(Path(out).read_text())["experiment_id"].startswith("distort-")

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path, caplog, monkeypatch):
        monkeypatch.delenv("FUNWILL_SEED", raising=False)
        doc = {k: v for k, v in SAINT_CFG.items() if k != "seed"}
        cfg_path = write_cfg(tmp_path, {**doc, "out": str(tmp_path / "d.csv")})
        first = ["distort", "--config", cfg_path, "--seed", "5", "--format", "json"]
        assert main(first) == 0
        assert json.loads((tmp_path / "d.csv").read_text())["config"]["seed"] == 5
        assert main(["distort", "--config", cfg_path]) == 2
        assert "config error: seed:" in caplog.text

    @pytest.mark.parametrize("command, field, value", [
        ("collapse", "trials", 10**20),
        ("power", "trials", 10**20),
        ("lln", "n_schedule", [100, 10**20]),
    ])
    def test_counts_numpy_cannot_take_exit_2(self, tmp_path, caplog, command, field, value):
        base = LLN_CFG if command == "lln" else SAINT_CFG
        cfg_path = write_cfg(tmp_path, {**base, field: value, "out": str(tmp_path / "c.csv")})
        assert main([command, "--config", cfg_path]) == 2
        assert f"config error: {field}:" in caplog.text

    @pytest.mark.parametrize("change", [{"epsilon": 1e-200}, {"payoff": [1e300, 0.0]}])
    def test_chebyshev_column_overflow_is_inf(self, tmp_path, change):
        out = tmp_path / "l.csv"
        cfg_path = write_cfg(tmp_path, {**LLN_CFG, **change, "out": str(out)})
        assert main(["lln", "--config", cfg_path, "--quiet"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["inf", "inf"]


    def test_huge_payoff_lln_row_is_finite(self, tmp_path):
        out = tmp_path / "l.csv"
        doc = {**LLN_CFG, "payoff": [1e300, 0.0], "epsilon": 1e299, "n_schedule": [10**9], "out": str(out)}
        assert main(["lln", "--config", write_cfg(tmp_path, doc), "--quiet"]) == 0
        assert out.read_text().splitlines()[1] == "1000000000,0,2.5e-08"


def test_archetypes_text_is_deterministic():
    assert format_archetypes() == format_archetypes()
