"""Canonical archetypes and choice sampling.

The headline facts these tests pin down:

* the saint is near-deterministic *because* of near-maximal will,
* the conscientious criminal is near-maximally random at will 0.5,
* the hardcore criminal is near-deterministic because of near-zero will,

so unpredictability alone cannot reveal how much will an agent has.
"""

import numpy as np
import pytest

from funwill.agents import (
    ARCHETYPE_KINDS,
    AgentProfile,
    agent_unpredictability,
    archetype,
    choose,
)
from funwill.detect import chi_squared_test, TrialCounts
from funwill.distributions import (
    ChoiceSpace,
    exercise_will,
    make_distribution,
    unpredictability,
)
from funwill.errors import DimensionMismatch


class TestArchetypes:
    def test_saint_profile(self):
        saint = archetype("saint")
        assert saint.space.labels == ("good", "evil")
        assert saint.understanding.weights == (1.0, 0.0)
        assert saint.will == 0.99
        assert saint.effective.weights == pytest.approx((0.995, 0.005), abs=1e-12)
        assert agent_unpredictability(saint) == pytest.approx(0.04541469233379414, abs=1e-12)

    def test_conscientious_criminal_profile(self):
        cc = archetype("conscientious_criminal")
        assert cc.will == 0.5
        assert cc.effective.weights == pytest.approx((0.5005, 0.4995), abs=1e-12)
        assert agent_unpredictability(cc) == pytest.approx(0.9999992786523593, abs=1e-12)

    def test_hardcore_criminal_profile(self):
        hc = archetype("hardcore_criminal")
        assert hc.will == 0.01
        assert hc.effective.weights == pytest.approx((0.01099, 0.98901), abs=1e-12)
        assert agent_unpredictability(hc) == pytest.approx(0.0872870093327654, abs=1e-12)

    def test_particle_takes_caller_nature(self):
        p = make_distribution([0.3, 0.7])
        particle = archetype("particle", nature=p)
        assert particle.will == 0.0
        assert particle.understanding == p
        assert particle.effective.weights == p.weights
        assert particle.space.labels == ("0", "1")

    def test_particle_requires_nature(self):
        with pytest.raises(ValueError):
            archetype("particle")

    def test_moral_archetypes_reject_overrides(self):
        with pytest.raises(ValueError):
            archetype("saint", nature=make_distribution([0.5, 0.5]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            archetype("trickster")

    def test_profile_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            AgentProfile(
                space=ChoiceSpace(("a", "b", "c")),
                nature=make_distribution([0.5, 0.5]),
                understanding=make_distribution([1.0, 0.0]),
                will=0.5,
            )


class TestPredictabilityVersusWill:
    def test_saint_family_entropy_vanishes_as_will_grows(self):
        """High predictability coexisting with maximal will: entropy of the
        saint blend decreases monotonically on sigma in (0.5, 1] and is
        under 0.05 bits at the canonical sigma = 0.99."""
        p, u = make_distribution([0.5, 0.5]), make_distribution([1.0, 0.0])
        grid = [0.5 + 0.05 * k for k in range(11)]
        entropies = [unpredictability(exercise_will(p, u, s)) for s in grid]
        assert all(a > b for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] == 0.0
        assert agent_unpredictability(archetype("saint")) < 0.05

    def test_randomness_coexists_with_nonzero_will(self):
        cc = archetype("conscientious_criminal")
        assert cc.will == 0.5 > 0.0
        assert agent_unpredictability(cc) > 0.99

    def test_entropy_does_not_determine_will(self):
        saint, hc = archetype("saint"), archetype("hardcore_criminal")
        assert agent_unpredictability(saint) < 0.1
        assert agent_unpredictability(hc) < 0.1
        assert abs(saint.will - hc.will) == pytest.approx(0.98)

    def test_particle_uniform_is_maximally_random(self):
        particle = archetype("particle", nature=make_distribution([0.5, 0.5]))
        assert agent_unpredictability(particle) == 1.0


class TestChoose:
    def test_saint_overwhelmingly_chooses_good(self):
        rng = np.random.default_rng(42)
        saint = archetype("saint")
        draws = [choose(saint, rng) for _ in range(10_000)]
        assert draws.count("good") / 10_000 >= 0.98

    def test_particle_frequency_tracks_nature(self):
        rng = np.random.default_rng(7)
        particle = archetype("particle", nature=make_distribution([0.3, 0.7]))
        draws = [choose(particle, rng) for _ in range(100_000)]
        assert abs(draws.count("0") / 100_000 - 0.3) <= 0.006  # 4-sigma binomial slack

    def test_single_draw_returns_a_label(self):
        for seed in (0, 1, 99):
            label = choose(archetype("hardcore_criminal"), np.random.default_rng(seed))
            assert label in ("good", "evil")

    def test_frequencies_fit_effective_distribution(self):
        # Goodness of fit against the blend at N = 1e5 for a fixed seed.
        rng = np.random.default_rng(1234)
        agent = AgentProfile(
            space=ChoiceSpace(("a", "b", "c")),
            nature=make_distribution([0.2, 0.3, 0.5]),
            understanding=make_distribution([0.6, 0.4, 0.0]),
            will=0.35,
            name="custom",
        )
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(100_000):
            counts[choose(agent, rng)] += 1
        observed = TrialCounts(
            counts=tuple(counts[l] for l in agent.space.labels), total=100_000, seed=1234
        )
        report = chi_squared_test(observed, agent.effective, alpha=0.001)
        assert report.p_value > 0.001
        assert report.verdict == "consistent"


def _reference_choose(agent, rng):
    """The original sequential accumulate loop, kept as an oracle."""
    u = rng.random()
    acc = 0.0
    index = agent.space.dimension - 1
    for j, w in enumerate(agent.effective.weights):
        acc += w
        if u < acc:
            index = j
            break
    return agent.space.labels[index]


@pytest.mark.parametrize("kind", ARCHETYPE_KINDS)
def test_choose_matches_reference_loop(kind):
    nature = make_distribution([0.1, 0.0, 0.6, 0.3]) if kind == "particle" else None
    agent = archetype(kind, nature=nature)
    for seed in (0, 1, 31337):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [choose(agent, rng) for _ in range(5000)] == [
            _reference_choose(agent, ref) for _ in range(5000)
        ]


def test_choose_on_cumulative_boundaries():
    """u equal to a running sum picks the next label; at the total, the last."""
    class FixedUniform:
        def random(self):
            return value

    for kind in ("saint", "hardcore_criminal"):
        agent = archetype(kind)
        for value in agent.cumulative:
            assert choose(agent, FixedUniform()) == _reference_choose(agent, FixedUniform())
        assert choose(agent, FixedUniform()) == agent.space.labels[-1]


def test_effective_distribution_cached_and_immutable():
    saint = archetype("saint")
    assert saint.effective is saint.effective
    with pytest.raises(AttributeError):
        saint.nature = make_distribution([0.9, 0.1])
