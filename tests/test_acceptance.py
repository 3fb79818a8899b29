"""Acceptance suite: the nine release criteria, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible under
``pytest -s`` or ``pytest -v -rA``).  Tolerances are pinned here and match
the module-level contracts; everything runs in well under two minutes.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

import funwill
from funwill.agents import agent_unpredictability, archetype
from funwill.collapse import build_povm, check_completeness, outcome_distribution, prepare_state
from funwill.detect import DEVIATION, chebyshev_bound, chi_squared_test, detection_power, lln_concentration, simulate_trials
from funwill.distributions import (
    CERTAINTY_INCREASING,
    STATIONARY,
    UNCERTAINTY_INCREASING,
    classify_regime,
    entropy_gradient,
    exercise_will,
    make_distribution,
    unpredictability,
)
from funwill.seeding import derive_seed

FAIR = make_distribution([0.5, 0.5])
ETHICAL = make_distribution([1.0, 0.0])


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL — {summary}")
        raise
    print(f"criterion {num}: PASS — {summary}")


def random_dist(rng, n, interior=False):
    w = rng.dirichlet(np.ones(n))
    if interior:
        w = 0.9 * w + 0.1 / n
    return make_distribution(w.tolist(), normalize=True)


def test_criterion_1_endpoint_identities():
    with criterion(1, "blend returns nature at sigma=0 and guidance at sigma=1, exactly"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            p, u = random_dist(rng, n), random_dist(rng, n)
            assert exercise_will(p, u, 0.0).weights == p.weights
            assert exercise_will(p, u, 1.0).weights == u.weights


def test_criterion_2_saint_predictability():
    with criterion(2, "saint entropy < 0.05 bits at sigma=0.99 and falls to 0 as sigma -> 1"):
        assert agent_unpredictability(archetype("saint")) < 0.05
        rng = np.random.default_rng(102)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            p = random_dist(rng, n)
            pure = make_distribution([1.0] + [0.0] * (n - 1))
            grid = [0.9 + 0.01 * k for k in range(11)]
            entropies = [unpredictability(exercise_will(p, pure, s)) for s in grid]
            assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:])), (trial, entropies)
            assert entropies[-1] == 0.0


def test_criterion_3_conscientious_criminal_randomness():
    with criterion(3, "conscientious criminal entropy in [0.99, 1.0] bits at sigma=0.5"):
        cc = archetype("conscientious_criminal")
        assert cc.will == 0.5
        xi = agent_unpredictability(cc)
        assert 0.99 <= xi <= 1.0


def test_criterion_4_regime_boundary():
    with criterion(4, "regime flips exactly at sigma=0.5 on a 99-point grid; gradient matches FD to 1e-5"):
        p, u = make_distribution([0.0, 1.0]), make_distribution([1.0, 0.0])
        h = 1e-6
        for i in range(1, 100):
            s = i / 100.0
            expected = (
                UNCERTAINTY_INCREASING if s < 0.5
                else CERTAINTY_INCREASING if s > 0.5
                else STATIONARY
            )
            assert classify_regime(p, u, s) == expected, s
            grad = entropy_gradient(p, u, s)
            fd = (
                unpredictability(exercise_will(p, u, s + h))
                - unpredictability(exercise_will(p, u, s - h))
            ) / (2 * h)
            assert abs(grad - fd) < 1e-5, (s, grad, fd)


def test_criterion_5_quantum_classical_equivalence():
    with criterion(5, "measurement statistics equal the classical blend to 1e-10; residual < 1e-9"):
        rng = np.random.default_rng(105)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            p = random_dist(rng, n, interior=True)
            u = random_dist(rng, n, interior=True)
            s = float(rng.random())
            povm = build_povm(p, u, s)
            state = prepare_state(p)
            assert check_completeness(povm, state) < 1e-9
            got = outcome_distribution(povm, state).weights
            want = exercise_will(p, u, s).weights
            assert all(abs(g - w) < 1e-10 for g, w in zip(got, want))


def test_criterion_6_born_reduction_type_one_error():
    with criterion(6, "sigma=0 measurement reproduces Born statistics: type-I rate 0.05 +/- 0.02"):
        povm = build_povm(FAIR, ETHICAL, 0.0)
        born = outcome_distribution(povm, prepare_state(FAIR))
        hits = 0
        for r in range(1000):
            counts = simulate_trials(born, 10_000, derive_seed(106, r))
            hits += chi_squared_test(counts, FAIR, 0.05).verdict == DEVIATION
        rate = hits / 1000
        assert 0.03 <= rate <= 0.07, rate


def test_criterion_7_deviation_detectability_and_masking():
    with criterion(7, "sigma=0.2 deviation detected with power > 0.99; noise only degrades it"):
        powers = [
            detection_power(FAIR, ETHICAL, 0.2, n=10_000, alpha=0.05, reps=1000, seed=2026, noise=lam)
            for lam in (0.0, 0.25, 0.5)
        ]
        assert powers[0] > 0.99, powers
        assert all(b <= a + 0.03 for a, b in zip(powers, powers[1:])), powers


def test_criterion_8_weak_law_concentration():
    with criterion(8, "fair-coin deviation estimates shrink with n and respect the Chebyshev cap"):
        reps = 1000
        payoff = [1.0, 0.0]
        estimates = lln_concentration(FAIR, payoff, 0.1, [100, 1000, 10_000], reps=reps, seed=108)
        probs = [est for _, est in estimates]
        assert all(b <= a for a, b in zip(probs, probs[1:])), probs
        assert probs[0] > probs[-1], probs
        for n, est in estimates:
            cap = chebyshev_bound(FAIR, payoff, 0.1, n)
            se = math.sqrt(max(est * (1 - est), 1e-12) / reps)
            assert est <= min(1.0, cap) + 3 * se, (n, est, cap)


def test_criterion_9_cli_reproducibility(tmp_path):
    with criterion(9, "fixed config and seed give byte-identical CLI output"):
        cfg = {
            "labels": ["good", "evil"],
            "nature": [0.5, 0.5],
            "understanding": [1.0, 0.0],
            "sigma": {"start": 0.0, "stop": 1.0, "steps": 5},
            "trials": 5000,
            "alpha": 0.05,
            "seed": 109,
            "format": "json",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # The child imports the funwill under test, however this process found it.
        src = str(pathlib.Path(funwill.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "funwill", "collapse",
                 "--config", str(cfg_path), "--out", str(out), "--quiet"],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
