"""The four benchmark workloads: inputs from a seed, the timed work, and output checks.

Each workload drives funwill through its public entry points only:
``funwill.cli.main`` for the CLI workloads and the documented library API
for ``draws``.  The benchmark seed is the only source of randomness; the
program receives the generated config and that seed, nothing else.

Every workload records why it was chosen (``why``) and its row of the
layer -> end-to-end metric table (``moves``): which layer metrics should
move ``wall_s``/``units_per_s`` on it, and which should stay flat.

Output checks hold for any seed and for any correct sampler, so they
survive a deliberate change of the random stream: they test statistical
properties and closed forms, never bytes.  Byte identity is checked only
between iterations of one run, which all use the same seed.

This module imports no funwill code at import time: the set-up probe
times that import itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

ALPHA = 0.05

# ``power``: 6 outcomes, the last cell expected 4.6 times in 1000 trials
# after noise, so Pearson pools a cell on every replication.
POWER_CONFIG = {
    "labels": [f"o{j}" for j in range(6)],
    "nature": [0.35, 0.30, 0.20, 0.14, 0.007, 0.003],
    "understanding": [0.1, 0.1, 0.1, 0.1, 0.3, 0.3],
    "sigma": {"start": 0.0, "stop": 0.02, "steps": 11},
    "trials": 1000,
    "alpha": ALPHA,
    "noise": 0.01,
    "reps": 100,
    "format": "csv",
}

LLN_CONFIG = {
    "nature": [0.3, 0.7],
    "payoff": [1.0, 0.0],
    "epsilon": 0.01,
    "n_schedule": [10, 100, 1000, 10000, 100000, 1000000],
    "reps": 100,
    "format": "csv",
}

NATURE_16 = [0.02] * 8 + [0.105] * 8
UNDERSTANDING_16 = [0.25, 0.25, 0.5] + [0.0] * 13

SWEEP_CONFIG = {
    "labels": [f"o{j}" for j in range(16)],
    "nature": NATURE_16,
    "understanding": UNDERSTANDING_16,
    "sigma": {"start": 0.0, "stop": 1.0, "steps": 101},
    "trials": 10000,
    "alpha": ALPHA,
    "format": "json",
}

# Draws per batch in ``draws``; one batch per POVM and per archetype.
DRAWS_PER_BATCH = 750
ARCHETYPES = ("saint", "conscientious_criminal", "hardcore_criminal", "particle")

# Output checks allow this many binomial or Monte Carlo standard errors.
SE_SLACK = 6.0
MC_SE_SLACK = 4.0


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def within(observed: float, expected: float, n: int, slack: float = SE_SLACK) -> bool:
    # 1e-11 absorbs the 12-significant-digit rounding of written values.
    return abs(observed - expected) <= slack * binomial_se(expected, n) + 1e-11


def frequency_failure(what: str, counts, expected, n: int) -> str | None:
    for j, (c, q) in enumerate(zip(counts, expected)):
        if not within(c / n, q, n):
            return f"{what}: frequency {c / n:.6g} of outcome {j} is not within {SE_SLACK} SE of {q:.6g}"
    return None


def _sigma_grid(spec) -> list[float]:
    start, stop, steps = spec["start"], spec["stop"], spec["steps"]
    return [start + i * (stop - start) / (steps - 1) for i in range(steps)]


class CliWorkload:
    """A workload of ``funwill.cli.main`` runs on one generated config."""

    writes_files = True

    def __init__(self, name, config, commands, units, why, moves):
        self.name = name
        self.config = config
        self.commands = commands
        self.units = units
        self.why = why
        self.moves = moves

    def config_path(self, workdir):
        return os.path.join(workdir, f"{self.name}.json")

    def write_inputs(self, workdir):
        with open(self.config_path(workdir), "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)

    def setup(self, seed, workdir):
        """Import funwill and validate the config, as the CLI does first."""
        from funwill import cli

        cli.load_config(self.config_path(workdir))
        return {"cli": cli, "seed": seed, "workdir": workdir}

    def run(self, state):
        """The timed work: one ``cli.main`` call per command."""
        cli = state["cli"]
        codes = []
        for command in self.commands:
            argv = [
                command, "--config", self.config_path(state["workdir"]),
                "--seed", str(state["seed"]), "--out", self._out(state, command), "--quiet",
            ]
            try:
                codes.append(cli.main(argv))
            except Exception as err:  # a traceback is a failed operation, not a crash of the run
                codes.append(f"raised {type(err).__name__}: {err}")
        return codes

    def _out(self, state, command):
        return os.path.join(state["workdir"], f"{self.name}-{command}.out")

    def outputs(self, state, codes):
        """(operation, output bytes, error) per command, read after timing."""
        result = []
        for command, code in zip(self.commands, codes):
            if code != 0:
                result.append((command, None, f"exit {code}" if isinstance(code, int) else code))
                continue
            path = self._out(state, command)
            with open(path, "rb") as fh:
                result.append((command, fh.read(), None))
            os.remove(path)
        return result


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


class PowerWorkload(CliWorkload):
    def check(self, state, op, data):
        rows = _csv_rows(data)
        steps = self.config["sigma"]["steps"]
        if len(rows) != steps:
            return f"expected {steps} rows, got {len(rows)}"
        first, last = float(rows[0]["power"]), float(rows[-1]["power"])
        reps = self.config["reps"]
        if not within(first, ALPHA, reps, MC_SE_SLACK):
            return f"power at sigma=0 is {first}, not within {MC_SE_SLACK} SE of alpha={ALPHA}"
        if not last > first:
            return f"power at the last sigma ({last}) does not exceed power at sigma=0 ({first})"
        return None


class LlnWorkload(CliWorkload):
    def check(self, state, op, data):
        rows = _csv_rows(data)
        schedule = self.config["n_schedule"]
        if [int(r["n"]) for r in rows] != schedule:
            return f"n column {[r['n'] for r in rows]} does not match the schedule"
        reps = self.config["reps"]
        for r in rows:
            cap = min(1.0, float(r["chebyshev_bound"]))
            prob = float(r["deviation_prob"])
            if prob > cap + MC_SE_SLACK * binomial_se(cap, reps) + 1.0 / reps:
                return f"deviation_prob {prob} at n={r['n']} exceeds min(1, chebyshev_bound)={cap}"
        return None


class SweepWorkload(CliWorkload):
    def check(self, state, op, data):
        rows = json.loads(data)["rows"]
        sigmas = _sigma_grid(self.config["sigma"])
        if len(rows) != len(sigmas):
            return f"{op}: expected {len(sigmas)} rows, got {len(rows)}"
        nature, guidance, trials = NATURE_16, UNDERSTANDING_16, self.config["trials"]
        for row, s in zip(rows, sigmas):
            blend = [s * u + (1.0 - s) * p for p, u in zip(nature, guidance)]
            written = [row[f"p_prime_{j}"] for j in range(len(nature))]
            if op == "distort":
                worst = max(abs(w - b) for w, b in zip(written, blend))
                if worst > 1e-12:
                    return f"distort: p_prime at sigma={s} is {worst:.3g} from the closed-form blend"
                continue
            if not row["residual"] <= 1e-9:
                return f"collapse: completeness residual {row['residual']} at sigma={s} exceeds 1e-9"
            counts = [round(w * trials) for w in written]
            failure = frequency_failure(f"collapse at sigma={s}", counts, blend, trials)
            if failure:
                return failure
        return None


class DrawsWorkload:
    """Single-draw library calls that no CLI subcommand reaches."""

    name = "draws"
    writes_files = False
    units = DRAWS_PER_BATCH * (2 + len(ARCHETYPES))
    why = (
        "no CLI subcommand reaches collapse.collapse or agents.choose; this is the only "
        "workload on which a batched draw (collapse_many) can show"
    )
    moves = {
        "moves": "collapse.collapse.*, collapse.CollapseOutcome, collapse.AmplitudeState.per_unit, "
                 "agents.choose.*",
        "flat": "seeding.*, detect.*, special.* and cli.* (0 calls)",
    }

    def write_inputs(self, workdir):
        pass  # the inputs are fixed; only the generator seed varies

    def setup(self, seed, workdir):
        """Import funwill and build the validated inputs of every batch."""
        import numpy as np

        import funwill

        nature = funwill.make_distribution(NATURE_16)
        state16 = funwill.prepare_state(nature)
        povm16 = funwill.build_povm(nature, funwill.make_distribution(UNDERSTANDING_16), 0.5)
        fair = funwill.make_distribution([0.5, 0.5])
        saint_state = funwill.prepare_state(fair)
        saint_povm = funwill.build_povm(fair, funwill.make_distribution([1.0, 0.0]), 0.99)
        agents = [
            funwill.archetype(kind, nature=fair) if kind == "particle" else funwill.archetype(kind)
            for kind in ARCHETYPES
        ]
        return {
            "funwill": funwill,
            "default_rng": np.random.default_rng,
            "seed": seed,
            "collapse16": (povm16, state16),
            "collapse_saint": (saint_povm, saint_state),
            "agents": agents,
        }

    def run(self, state):
        """The timed work: every draw from one generator seeded per iteration."""
        funwill = state["funwill"]
        rng = state["default_rng"](state["seed"])
        drawn = {}
        for op in ("collapse16", "collapse_saint"):
            povm, amp = state[op]
            drawn[op] = [funwill.collapse(povm, amp, rng) for _ in range(DRAWS_PER_BATCH)]
        for agent in state["agents"]:
            drawn[f"choose_{agent.name}"] = [funwill.choose(agent, rng) for _ in range(DRAWS_PER_BATCH)]
        return drawn

    def outputs(self, state, drawn):
        result = []
        for op, draws in drawn.items():
            if op.startswith("collapse"):
                error = None
                for outcome in draws:
                    amps = outcome.post_state.amplitudes
                    if amps != tuple(1.0 if j == outcome.index else 0.0 for j in range(len(amps))):
                        error = f"{op}: post-state {amps} is not basis vector {outcome.index}"
                        break
                result.append((op, bytes(o.index for o in draws), error))
            else:
                result.append((op, "\n".join(draws).encode(), None))
        return result

    def check(self, state, op, data):
        funwill = state["funwill"]
        if op.startswith("collapse"):
            povm, amp = state[op]
            expected = funwill.outcome_distribution(povm, amp).weights
            counts = [data.count(j) for j in range(len(expected))]
        else:
            agent = next(a for a in state["agents"] if op == f"choose_{a.name}")
            expected = agent.effective.weights
            labels = data.decode().split("\n")
            counts = [labels.count(label) for label in agent.space.labels]
        if sum(counts) != DRAWS_PER_BATCH:
            return f"{op}: {sum(counts)} draws landed on a known outcome, expected {DRAWS_PER_BATCH}"
        return frequency_failure(op, counts, expected, DRAWS_PER_BATCH)


WORKLOADS = {
    "power": PowerWorkload(
        "power", POWER_CONFIG, ("power",),
        units=POWER_CONFIG["sigma"]["steps"] * POWER_CONFIG["reps"],
        why=(
            "every replication runs seeding, a multinomial draw, Pearson with pooling and the "
            "incomplete gamma; power rises from ~0.05 to ~0.7, so verdicts fall on both sides of alpha"
        ),
        moves={
            "moves": "seeding.derive_seed.*, detect.simulate_trials.*, detect.TrialCounts.per_unit, "
                     "detect.chi_squared_test.self_s, detect.TestReport.per_unit, special.chi_squared_sf.*, "
                     "detect.detection_power.self_s",
            "flat": "cli.emit.* (11 rows), collapse.collapse.* and agents.choose.* (0 calls)",
        },
    ),
    "lln": LlnWorkload(
        "lln", LLN_CONFIG, ("lln",),
        units=len(LLN_CONFIG["n_schedule"]) * LLN_CONFIG["reps"],
        why=(
            "the same per-replication seeding and multinomial draw as power with n over six decades, "
            "but no Pearson test: a chi_squared_test or special change must leave it flat"
        ),
        moves={
            "moves": "seeding.derive_seed.*, detect.simulate_trials.*, detect.TrialCounts.per_unit, "
                     "detect.lln_concentration.self_s",
            "flat": "detect.chi_squared_test.*, detect.TestReport.*, special.* (0 calls), "
                    "distributions.*, collapse.*, cli.emit.* (6 rows)",
        },
    ),
    "sweep": SweepWorkload(
        "sweep", SWEEP_CONFIG, ("distort", "collapse"),
        units=2 * SWEEP_CONFIG["sigma"]["steps"],
        why=(
            "no replication loop: each row is one blend evaluation, POVM build and completeness check, "
            "draw and test, so validation and JSON emission dominate; sigma=1 hits the divergent gradient"
        ),
        moves={
            "moves": "distributions.*, collapse.build_povm/check_completeness/outcome_distribution, "
                     "cli.run_*.self_s, cli.emit.self_s, cli.emit.bytes",
            "flat": "seeding.derive_seed.* and detect.simulate_trials.* (1 per collapse row), "
                    "detect.detection_power/lln_concentration (0 calls)",
        },
    ),
    "draws": DrawsWorkload(),
}
