"""Byte-level goldens for the Monte Carlo subcommands.

``power`` and ``lln`` outputs depend on the block streams (see README
§Determinism), on numpy's multinomial sampler and on the 12-digit
formatting.  Any change to one of them shows up here as a diff of a
checked-in file, so a stream change is always deliberate.  After such a
change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and record the reason in CHANGES.md.
"""

import json
import pathlib
import sys

import pytest

from funwill.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# Two blocks per estimate (BLOCK = 1024), one of them partial; the power
# null pools its last cell.
CONFIGS = {
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
}


def render(command: str, workdir: pathlib.Path) -> bytes:
    cfg_path = workdir / f"{command}.json"
    cfg_path.write_text(json.dumps(CONFIGS[command]))
    out = workdir / f"{command}.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_output_matches_golden(tmp_path, command):
    assert render(command, tmp_path) == (GOLDEN_DIR / f"{command}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command in sorted(CONFIGS):
            (GOLDEN_DIR / f"{command}.csv").write_bytes(render(command, pathlib.Path(tmp)))
            sys.stdout.write(f"wrote {GOLDEN_DIR / command}.csv\n")
