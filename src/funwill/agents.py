"""Canonical agent archetypes and choice sampling.

An agent bundles a choice space with its (nature, understanding, will)
triple.  The four canonical archetypes pin down the informal limits
"near-maximal will", "near-zero will" and "near-deterministic nature" to
concrete numbers so tests stay deterministic:

    saint                  P = (0.5, 0.5),     U = (1, 0), sigma = 0.99
    conscientious_criminal P = (0.001, 0.999), U = (1, 0), sigma = 0.5
    hardcore_criminal      P = (0.001, 0.999), U = (1, 0), sigma = 0.01
    particle               P caller-supplied,  U = P,      sigma = 0

The moral archetypes live on the two-outcome space {good, evil}.  The
particle sets U = P so the will strength is irrelevant by construction:
nothing distorts the baseline, and sampling follows plain squared-amplitude
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .collapse import _pick
from .distributions import (
    ChoiceSpace, ProbabilityVector, _check_dims, _unit_interval, exercise_will, unpredictability,
)

_MORAL_SPACE = ChoiceSpace(("good", "evil"))
_ETHICAL_GUIDANCE = ProbabilityVector((1.0, 0.0))

# kind -> (P, sigma) of each moral archetype; all share the space and U above.
_MORAL = {
    "saint": (ProbabilityVector((0.5, 0.5)), 0.99),
    "conscientious_criminal": (ProbabilityVector((0.001, 0.999)), 0.5),
    "hardcore_criminal": (ProbabilityVector((0.001, 0.999)), 0.01),
}

ARCHETYPE_KINDS = (*_MORAL, "particle")


@dataclass(frozen=True)
class AgentProfile:
    """One choosing agent: labels plus the (P, U, sigma) triple."""

    space: ChoiceSpace
    nature: ProbabilityVector
    understanding: ProbabilityVector
    will: float
    name: str = "agent"

    def __post_init__(self):
        object.__setattr__(self, "will", _unit_interval(self.will, "will strength"))
        _check_dims(self.space.labels, self.nature, "space and nature")
        _check_dims(self.nature, self.understanding, "nature and understanding")

    @cached_property
    def effective(self) -> ProbabilityVector:
        """The blended distribution the agent actually samples from."""
        return exercise_will(self.nature, self.understanding, self.will)

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        """Running sums of ``effective``, the inverse-CDF table ``choose`` samples."""
        return tuple(accumulate(self.effective.weights))


def archetype(kind: str, nature: ProbabilityVector | None = None) -> AgentProfile:
    """Build one of the canonical profiles.

    ``nature`` applies only to the particle archetype (which has no
    canonical baseline of its own; its outcomes are labelled "0", "1", ...);
    supplying it for a moral archetype is an error.
    """
    if kind not in ARCHETYPE_KINDS:
        raise ValueError(f"unknown archetype {kind!r}; expected one of {ARCHETYPE_KINDS}")
    if kind == "particle":
        if nature is None:
            raise ValueError("the particle archetype needs a caller-supplied nature vector")
        space = ChoiceSpace(tuple(str(j) for j in range(nature.dimension)))
        return AgentProfile(space=space, nature=nature, understanding=nature, will=0.0, name="particle")
    if nature is not None:
        raise ValueError(f"archetype {kind!r} is canonical; its nature is fixed")
    base, sigma = _MORAL[kind]
    return AgentProfile(_MORAL_SPACE, base, _ETHICAL_GUIDANCE, will=sigma, name=kind)


def choose(agent: AgentProfile, rng: np.random.Generator) -> str:
    """Sample one outcome label from the agent's effective distribution."""
    return agent.space.labels[_pick(agent.cumulative, rng.random())]


def agent_unpredictability(agent: AgentProfile) -> float:
    """Shannon entropy (bits) of the agent's effective distribution."""
    return unpredictability(agent.effective)
