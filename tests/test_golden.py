"""Byte-level goldens for the CLI subcommands and the library draw stream.

Every subcommand output depends on the seeded streams (see README
§Determinism), on numpy's samplers and on the 12-digit formatting; the
draw golden pins the indices of ``collapse`` and the labels of ``choose``
for a fixed generator.  Any change to one of them shows up here as a diff
of a checked-in file, so a stream change is always deliberate.  After such
a change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and record the reason in CHANGES.md.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from funwill.agents import ARCHETYPE_KINDS, archetype, choose
from funwill.cli import main
from funwill.collapse import build_povm, collapse, collapse_many, prepare_state
from funwill.distributions import make_distribution

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CONFIGS = {
    # Two blocks per estimate (BLOCK = 1024), one of them partial; the
    # power null pools its last cell.
    "power": {
        "labels": [f"o{j}" for j in range(6)],
        "nature": [0.35, 0.30, 0.20, 0.14, 0.007, 0.003],
        "understanding": [0.1, 0.1, 0.1, 0.1, 0.3, 0.3],
        "sigma": {"start": 0.0, "stop": 0.03, "steps": 4},
        "trials": 1000,
        "alpha": 0.05,
        "noise": 0.01,
        "reps": 1500,
        "seed": 2012,
    },
    "lln": {
        "nature": [0.3, 0.7],
        "payoff": [1.0, 0.0],
        "epsilon": 0.01,
        "n_schedule": [10, 1000, 100000],
        "reps": 1100,
        "seed": 4440,
    },
    # Gradient +inf at sigma 0, exactly stationary at 0.5 (the uniform
    # blend), -inf at sigma 1: every regime branch and both divergences.
    "distort": {
        "labels": ["a", "b", "c", "d"],
        "nature": [0.5, 0.25, 0.25, 0.0],
        "understanding": [0.0, 0.25, 0.25, 0.5],
        "sigma": {"start": 0.0, "stop": 1.0, "steps": 5},
        "seed": 1,
    },
    "collapse": {
        "labels": ["a", "b", "c", "d"],
        "nature": [0.4, 0.3, 0.2, 0.1],
        "understanding": [0.1, 0.2, 0.3, 0.4],
        "sigma": {"start": 0.0, "stop": 1.0, "steps": 5},
        "trials": 5000,
        "seed": 2012,
    },
    # Integer-valued inputs: the echo shows integer weights, noise, payoff
    # and epsilon as floats, and the sigma spec exactly as given.
    "distort_ints": {
        "labels": ["g", "e"],
        "nature": [0.5, 0.5],
        "understanding": [1, 0],
        "sigma": {"start": 0, "stop": 1, "steps": 3},
        "trials": 100,
        "alpha": 0.05,
        "noise": 0,
        "reps": 100,
        "seed": 5,
    },
    "lln_ints": {
        "nature": [0.5, 0.5],
        "payoff": [1, 0],
        "epsilon": 1,
        "n_schedule": [10, 20],
        "reps": 100,
        "seed": 9,
    },
}

# The benchmark's 16-outcome sweep at 21 sigma points: 16 p_prime columns
# per row, 13 zero-guidance outcomes that empty out as sigma -> 1 (so -inf
# gradients and zero frequencies at sigma 1).  Every null cell expects at
# least 200 counts, so nothing pools here; tests/test_cli.py covers pooling.
SWEEP16 = {
    "labels": [f"o{j}" for j in range(16)],
    "nature": [0.02] * 8 + [0.105] * 8,
    "understanding": [0.25, 0.25, 0.5] + [0.0] * 13,
    "sigma": {"start": 0.0, "stop": 1.0, "steps": 21},
    "trials": 10000,
    "seed": 1414,
}
CONFIGS["distort_sweep16"] = CONFIGS["collapse_sweep16"] = SWEEP16

OUTPUTS = (
    "collapse.csv", "collapse.json", "distort.csv", "distort.json", "distort_ints.json",
    "lln.csv", "lln.json", "lln_ints.json", "power.csv", "power.json",
    "distort_sweep16.json", "collapse_sweep16.json",
)

DRAW_SEED = 1789
DRAWS = 2000
# 16 outcomes; outcome 7 has zero probability under both vectors.
DRAW_NATURE = [0.0 if j == 7 else float(j + 1) for j in range(16)]
DRAW_UNDERSTANDING = [0.0 if j == 7 else float(16 - j) ** 2 for j in range(16)]


def render(name: str, workdir: pathlib.Path) -> bytes:
    """Run the subcommand named by the golden's stem up to its first ``_``."""
    stem, fmt = name.split(".")
    command = stem.split("_")[0]
    cfg_path = workdir / f"{stem}-config.json"
    cfg_path.write_text(json.dumps(CONFIGS[stem]))
    out = workdir / name
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--format", fmt, "--quiet"]) == 0
    return out.read_bytes()


def draw_inputs():
    """The 16-outcome POVM at sigma 0.5, its state, and one agent per archetype."""
    nature = make_distribution(DRAW_NATURE, normalize=True)
    povm = build_povm(nature, make_distribution(DRAW_UNDERSTANDING, normalize=True), 0.5)
    agents = [
        archetype(kind, nature=make_distribution([0.3, 0.7])) if kind == "particle" else archetype(kind)
        for kind in ARCHETYPE_KINDS
    ]
    return povm, prepare_state(nature), agents


def render_draws() -> bytes:
    """One line per stream, each from a fresh ``default_rng(DRAW_SEED)``:
    2000 collapse indices as hex digits, then 2000 choose label indices
    per archetype."""
    povm, state, agents = draw_inputs()
    rng = np.random.default_rng(DRAW_SEED)
    lines = ["collapse16 " + "".join(f"{collapse(povm, state, rng).index:x}" for _ in range(DRAWS))]
    for agent in agents:
        rng = np.random.default_rng(DRAW_SEED)
        labels = agent.space.labels
        lines.append(
            f"choose_{agent.name} " + "".join(str(labels.index(choose(agent, rng))) for _ in range(DRAWS))
        )
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name", OUTPUTS, ids=lambda name: name.replace(".csv", "").replace(".", "-"))
def test_output_matches_golden(tmp_path, name):
    assert render(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


def test_draws_match_golden():
    assert render_draws() == (GOLDEN_DIR / "draws.txt").read_bytes()


def test_collapse_many_matches_draw_golden():
    povm, state, _ = draw_inputs()
    indices = collapse_many(povm, state, np.random.default_rng(DRAW_SEED), DRAWS)
    golden = (GOLDEN_DIR / "draws.txt").read_text().splitlines()[0]
    assert golden == "collapse16 " + "".join(f"{j:x}" for j in indices)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in OUTPUTS:
            (GOLDEN_DIR / name).write_bytes(render(name, pathlib.Path(tmp)))
            sys.stdout.write(f"wrote {GOLDEN_DIR / name}\n")
    (GOLDEN_DIR / "draws.txt").write_bytes(render_draws())
    sys.stdout.write(f"wrote {GOLDEN_DIR / 'draws.txt'}\n")
