"""Config-driven experiment runner.

Subcommands
-----------
distort     sweep sigma and tabulate the blended distribution with its
            entropy, entropy gradient and regime per grid point
collapse    prepare the amplitude state, build the measurement set per
            sigma, sample collapses and test the counts against the
            baseline (Born) statistics
power       Monte Carlo detection power per sigma grid point, optionally
            through a uniform-noise channel
lln         weak-law concentration estimates for a payoff sample mean
archetypes  print the canonical agent profiles

Configs are flat JSON objects (see README for the schema).  The ``--seed``
flag overrides the config's ``seed`` key, which overrides the FUNWILL_SEED
environment variable; every run with identical config and seed produces
byte-identical output.

Exit codes: 0 success, 2 config error, 3 model error (unreachable guidance
or incomplete measurement set), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field

from . import agents
from .collapse import build_povm, check_completeness, outcome_distribution, prepare_state
from .detect import (
    NoiseLevel,
    chebyshev_bound,
    chi_squared_test,
    detection_power,
    lln_concentration,
    simulate_trials,
)
from .distributions import (
    ChoiceSpace,
    ProbabilityVector,
    _regime,
    entropy_gradient,
    exercise_will,
    make_distribution,
    unpredictability,
)
from .errors import (
    ConfigInvalid,
    DivergentGradient,
    IncompletePovm,
    InsufficientExpected,
    IoFailure,
    UnreachableGuidance,
)
from .seeding import derive_seed, validate_seed

logger = logging.getLogger("funwill")

SEED_ENV_VAR = "FUNWILL_SEED"

_CONFIG_KEYS = {
    "labels", "nature", "understanding", "sigma", "trials", "alpha",
    "noise", "reps", "seed", "out", "format", "payoff", "epsilon", "n_schedule",
}


@dataclass
class ExperimentConfig:
    """Validated experiment inputs; optional fields stay None until needed."""

    labels: tuple[str, ...] | None = None
    nature: ProbabilityVector | None = None
    understanding: ProbabilityVector | None = None
    sigma_spec: object = None          # scalar or {start, stop, steps}, as given
    sigmas: tuple[float, ...] = ()
    trials: int | None = None
    alpha: float = 0.05
    noise: NoiseLevel = field(default_factory=lambda: NoiseLevel(0.0))
    reps: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"
    payoff: tuple[float, ...] | None = None
    epsilon: float | None = None
    n_schedule: tuple[int, ...] | None = None

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigInvalid(name, "required for this subcommand")
        return value

    def echo(self, kind: str) -> dict:
        """Model inputs as a plain dict, for the output's input echo."""
        doc = {
            "labels": list(self.labels) if self.labels else None,
            "nature": list(self.nature.weights) if self.nature else None,
            "understanding": list(self.understanding.weights) if self.understanding else None,
            "sigma": self.sigma_spec,
            "trials": self.trials,
            "alpha": self.alpha,
            "noise": self.noise.lam,
            "reps": self.reps,
            "seed": self.seed,
        }
        if kind == "lln":
            doc["payoff"] = list(self.payoff) if self.payoff else None
            doc["epsilon"] = self.epsilon
            doc["n_schedule"] = list(self.n_schedule) if self.n_schedule else None
        return doc


@dataclass
class ResultRecord:
    """One experiment's identity, input echo and tabulated rows."""

    experiment_id: str
    config: dict
    columns: list[str]
    rows: list[dict]


def _sigma_grid(spec) -> tuple[float, ...]:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        s = float(spec)
        if not 0.0 <= s <= 1.0:
            raise ConfigInvalid("sigma", f"must lie in [0, 1], got {spec}")
        return (s,)
    if isinstance(spec, dict):
        extra = set(spec) - {"start", "stop", "steps"}
        if extra:
            raise ConfigInvalid("sigma", f"unknown sweep keys {sorted(extra)}")
        try:
            start, stop = float(spec["start"]), float(spec["stop"])
            steps = int(spec["steps"])
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigInvalid("sigma", f"bad sweep spec: {err}") from None
        if not 0.0 <= start <= stop <= 1.0:
            raise ConfigInvalid("sigma", f"need 0 <= start <= stop <= 1, got {spec}")
        if steps < 1:
            raise ConfigInvalid("sigma", f"steps must be >= 1, got {steps}")
        if steps == 1:
            return (start,)
        width = stop - start
        # The last point is pinned: start + width can round past stop.
        return tuple(start + i * width / (steps - 1) for i in range(steps - 1)) + (stop,)
    raise ConfigInvalid("sigma", f"expected a number or {{start, stop, steps}}, got {spec!r}")


def _is_int(value) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(raw: dict, name: str) -> int:
    value = raw[name]
    if not _is_int(value) or value < 1:
        raise ConfigInvalid(name, f"expected a positive integer, got {value!r}")
    return value


def _vector(raw, name: str) -> ProbabilityVector:
    if not isinstance(raw, list) or not raw:
        raise ConfigInvalid(name, "expected a non-empty array of weights")
    try:
        return make_distribution(raw, normalize=False)
    except ValueError as err:
        raise ConfigInvalid(name, str(err)) from None


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed config document field by field."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config", "top level must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigInvalid(sorted(unknown)[0], "unknown config field")

    cfg = ExperimentConfig()
    if "labels" in raw:
        if not isinstance(raw["labels"], list) or not all(isinstance(x, str) for x in raw["labels"]):
            raise ConfigInvalid("labels", "expected an array of strings")
        try:
            cfg.labels = ChoiceSpace(tuple(raw["labels"])).labels
        except ValueError as err:
            raise ConfigInvalid("labels", str(err)) from None
    if "nature" in raw:
        cfg.nature = _vector(raw["nature"], "nature")
    if "understanding" in raw:
        cfg.understanding = _vector(raw["understanding"], "understanding")
    if "sigma" in raw:
        cfg.sigma_spec = raw["sigma"]
        cfg.sigmas = _sigma_grid(raw["sigma"])
    if "trials" in raw:
        cfg.trials = _positive_int(raw, "trials")
    if "alpha" in raw:
        try:
            cfg.alpha = float(raw["alpha"])
        except (TypeError, ValueError):
            raise ConfigInvalid("alpha", f"expected a number, got {raw['alpha']!r}") from None
        if not 0.0 < cfg.alpha < 1.0:
            raise ConfigInvalid("alpha", f"must lie in (0, 1), got {cfg.alpha}")
    if "noise" in raw:
        try:
            cfg.noise = NoiseLevel(float(raw["noise"]))
        except (TypeError, ValueError) as err:
            raise ConfigInvalid("noise", str(err)) from None
    if "reps" in raw:
        cfg.reps = _positive_int(raw, "reps")
    if "seed" in raw:
        if not _is_int(raw["seed"]):
            raise ConfigInvalid("seed", f"expected an integer, got {raw['seed']!r}")
        try:
            cfg.seed = validate_seed(raw["seed"])
        except (TypeError, ValueError) as err:
            raise ConfigInvalid("seed", str(err)) from None
    if "out" in raw:
        if not isinstance(raw["out"], str) or not raw["out"]:
            raise ConfigInvalid("out", "expected a non-empty path string")
        cfg.out = raw["out"]
    if "format" in raw:
        if raw["format"] not in ("csv", "json"):
            raise ConfigInvalid("format", f"expected 'csv' or 'json', got {raw['format']!r}")
        cfg.format = raw["format"]
    if "payoff" in raw:
        if not isinstance(raw["payoff"], list) or not raw["payoff"]:
            raise ConfigInvalid("payoff", "expected a non-empty array of numbers")
        try:
            cfg.payoff = tuple(float(v) for v in raw["payoff"])
        except (TypeError, ValueError):
            raise ConfigInvalid("payoff", "expected a non-empty array of numbers") from None
    if "epsilon" in raw:
        try:
            cfg.epsilon = float(raw["epsilon"])
        except (TypeError, ValueError):
            raise ConfigInvalid("epsilon", f"expected a number, got {raw['epsilon']!r}") from None
        if cfg.epsilon <= 0.0:
            raise ConfigInvalid("epsilon", f"must be positive, got {cfg.epsilon}")
    if "n_schedule" in raw:
        sched = raw["n_schedule"]
        if (
            not isinstance(sched, list)
            or not sched
            or not all(_is_int(n) and n >= 1 for n in sched)
        ):
            raise ConfigInvalid("n_schedule", "expected a non-empty array of positive integers")
        cfg.n_schedule = tuple(sched)

    # Cross-field shape checks.
    dims = {
        name: getattr(cfg, name).dimension
        for name in ("nature", "understanding")
        if getattr(cfg, name) is not None
    }
    if cfg.labels is not None:
        dims["labels"] = len(cfg.labels)
    if cfg.payoff is not None:
        dims["payoff"] = len(cfg.payoff)
    if len(set(dims.values())) > 1:
        raise ConfigInvalid(
            "labels", f"inconsistent dimensions across fields: {dims}"
        )
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigInvalid("config", f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigInvalid("config", f"{path} is not valid JSON: {err}") from None
    return build_config(raw)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _sigma_columns(dimension: int) -> list[str]:
    return (
        ["sigma"]
        + [f"p_prime_{j}" for j in range(dimension)]
        + ["xi_bits", "dh_dsigma", "regime", "residual", "chi2", "p_value", "verdict", "power"]
    )


def _blank_row(sigma: float, dimension: int) -> dict:
    row = {"sigma": sigma}
    for j in range(dimension):
        row[f"p_prime_{j}"] = None
    row.update(
        xi_bits=None, dh_dsigma=None, regime=None, residual=None,
        chi2=None, p_value=None, verdict=None, power=None,
    )
    return row


def _experiment_id(kind: str, echo: dict) -> str:
    digest = hashlib.sha256(
        json.dumps({"kind": kind, "config": echo}, sort_keys=True).encode()
    ).hexdigest()
    return f"{kind}-{digest[:12]}"


def _analytics(row: dict, nature, understanding, sigma):
    blended = exercise_will(nature, understanding, sigma)
    for j, w in enumerate(blended.weights):
        row[f"p_prime_{j}"] = w
    row["xi_bits"] = unpredictability(blended)
    try:
        row["dh_dsigma"] = entropy_gradient(nature, understanding, sigma)
    except DivergentGradient as err:
        row["dh_dsigma"] = math.copysign(math.inf, err.sign)
    row["regime"] = _regime(row["dh_dsigma"])


def _trials_checked(test, *args, **kwargs):
    """Run a goodness-of-fit step; too few expected counts is a ``trials`` error."""
    try:
        return test(*args, **kwargs)
    except InsufficientExpected as err:
        raise ConfigInvalid("trials", f"too few trials for a chi-squared test: {err}") from None


def run_distort(config: ExperimentConfig) -> ResultRecord:
    """Blend analytics per sigma: distribution, entropy, gradient, regime."""
    nature = config.require("nature")
    understanding = config.require("understanding")
    config.require("labels")
    if not config.sigmas:
        raise ConfigInvalid("sigma", "required for this subcommand")
    rows = []
    for sigma in config.sigmas:
        row = _blank_row(sigma, nature.dimension)
        _analytics(row, nature, understanding, sigma)
        rows.append(row)
    echo = config.echo("distort")
    return ResultRecord(_experiment_id("distort", echo), echo, _sigma_columns(nature.dimension), rows)


def run_collapse(config: ExperimentConfig) -> ResultRecord:
    """Sample directed collapses per sigma and test them against the baseline.

    Each row records the completeness residual of the measurement set, the
    empirical outcome frequencies of ``trials`` collapses (in the p_prime
    columns), their entropy, and the chi-squared report against the
    baseline distribution (the Born null).
    """
    nature = config.require("nature")
    understanding = config.require("understanding")
    config.require("labels")
    trials = config.require("trials")
    seed = config.require("seed")
    if not config.sigmas:
        raise ConfigInvalid("sigma", "required for this subcommand")
    state = prepare_state(nature)
    rows = []
    for i, sigma in enumerate(config.sigmas):
        povm = build_povm(nature, understanding, sigma)
        residual = check_completeness(povm, state)
        sampling = outcome_distribution(povm, state)
        counts = simulate_trials(sampling, trials, derive_seed(seed, i))
        freq = counts.frequencies()
        report = _trials_checked(chi_squared_test, counts, nature, config.alpha)
        row = _blank_row(sigma, nature.dimension)
        for j, w in enumerate(freq.weights):
            row[f"p_prime_{j}"] = w
        row["xi_bits"] = unpredictability(freq)
        row["residual"] = residual
        row["chi2"] = report.statistic
        row["p_value"] = report.p_value
        row["verdict"] = report.verdict
        rows.append(row)
    echo = config.echo("collapse")
    return ResultRecord(_experiment_id("collapse", echo), echo, _sigma_columns(nature.dimension), rows)


def run_power(config: ExperimentConfig) -> ResultRecord:
    """Detection power per sigma grid point at the configured noise level."""
    nature = config.require("nature")
    understanding = config.require("understanding")
    config.require("labels")
    trials = config.require("trials")
    reps = config.require("reps")
    if reps < 100:
        raise ConfigInvalid("reps", "power estimates need at least 100 replications")
    seed = config.require("seed")
    if not config.sigmas:
        raise ConfigInvalid("sigma", "required for this subcommand")
    rows = []
    for i, sigma in enumerate(config.sigmas):
        row = _blank_row(sigma, nature.dimension)
        _analytics(row, nature, understanding, sigma)
        row["power"] = _trials_checked(
            detection_power, nature, understanding, sigma,
            n=trials, alpha=config.alpha, reps=reps,
            seed=derive_seed(seed, i), noise=config.noise,
        )
        rows.append(row)
    echo = config.echo("power")
    return ResultRecord(_experiment_id("power", echo), echo, _sigma_columns(nature.dimension), rows)


def run_lln(config: ExperimentConfig) -> ResultRecord:
    """Weak-law concentration table for the configured payoff."""
    nature = config.require("nature")
    payoff = config.require("payoff")
    epsilon = config.require("epsilon")
    schedule = config.require("n_schedule")
    reps = config.require("reps")
    seed = config.require("seed")
    estimates = lln_concentration(nature, payoff, epsilon, schedule, reps, seed)
    rows = [
        {
            "n": n,
            "deviation_prob": prob,
            "chebyshev_bound": chebyshev_bound(nature, payoff, epsilon, n),
        }
        for n, prob in estimates
    ]
    echo = config.echo("lln")
    return ResultRecord(_experiment_id("lln", echo), echo, ["n", "deviation_prob", "chebyshev_bound"], rows)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def render_csv(record: ResultRecord) -> str:
    lines = [",".join(record.columns)]
    for row in record.rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in record.columns))
    return "\n".join(lines) + "\n"


def render_json(record: ResultRecord) -> str:
    doc = {
        "experiment_id": record.experiment_id,
        "config": {k: _round12(v) for k, v in record.config.items()},
        "columns": record.columns,
        "rows": [{c: _round12(row[c]) for c in record.columns} for row in record.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def emit(record: ResultRecord, path: str, fmt: str) -> str:
    """Write a record as CSV or JSON; floats carry 12 significant digits.

    Serialized rows are re-validated: any p_prime row must still sum to 1
    within 1e-9 after rounding.  The text goes to a temporary file in the
    destination directory, which is then renamed onto ``path``: a failed
    write removes the temporary file and leaves any existing ``path`` as
    it was.
    """
    if fmt not in ("csv", "json"):
        raise ConfigInvalid("format", f"expected 'csv' or 'json', got {fmt!r}")
    prime_cols = [c for c in record.columns if c.startswith("p_prime_")]
    for row in record.rows:
        written = [_round12(row[c]) for c in prime_cols if row[c] is not None]
        if written and abs(math.fsum(written) - 1.0) > 1e-9:
            raise ValueError(f"serialized p_prime row sums to {math.fsum(written)!r}, not 1")
    text = render_csv(record) if fmt == "csv" else render_json(record)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(err, OSError):
            raise IoFailure(f"cannot write {path}: {err}") from None
        raise
    return path


def format_archetypes() -> str:
    """Human-readable table of the canonical profiles."""
    lines = []
    profiles = [
        agents.archetype("saint"),
        agents.archetype("conscientious_criminal"),
        agents.archetype("hardcore_criminal"),
        agents.archetype("particle", nature=ProbabilityVector((0.5, 0.5))),
    ]
    for prof in profiles:
        eff = prof.effective
        lines.append(
            f"{prof.name}: labels={'/'.join(prof.space.labels)} "
            f"sigma={prof.will.sigma:.12g} "
            f"nature=({', '.join(f'{w:.12g}' for w in prof.nature.weights)}) "
            f"understanding=({', '.join(f'{w:.12g}' for w in prof.understanding.weights)}) "
            f"effective=({', '.join(f'{w:.12g}' for w in eff.weights)}) "
            f"xi_bits={agents.agent_unpredictability(prof):.12g}"
        )
    lines.append("note: the particle archetype takes a caller-supplied nature; (0.5, 0.5) shown")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_RUNNERS = {
    "distort": run_distort,
    "collapse": run_collapse,
    "power": run_power,
    "lln": run_lln,
}


def _resolve_seed(flag_seed: int | None, config: ExperimentConfig):
    if flag_seed is not None:
        try:
            config.seed = validate_seed(flag_seed)
        except ValueError as err:
            raise ConfigInvalid("seed", str(err)) from None
        return
    if config.seed is not None:
        return
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            config.seed = validate_seed(int(env))
        except (TypeError, ValueError):
            raise ConfigInvalid("seed", f"{SEED_ENV_VAR}={env!r} is not a valid seed") from None
        return
    raise ConfigInvalid(
        "seed", f"no seed given (use --seed, the config's 'seed' key, or {SEED_ENV_VAR})"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funwill",
        description="Willed-choice distortion, directed collapse sampling, and deviation detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("distort", "sweep sigma and tabulate blend analytics"),
        ("collapse", "sample directed collapses and test against the baseline"),
        ("power", "estimate deviation-detection power per sigma"),
        ("lln", "weak-law concentration of a payoff sample mean"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="unsigned 64-bit seed (overrides config)")
        p.add_argument("--out", default=None, help="output path (overrides config)")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="output format (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress logging")
    p = sub.add_parser("archetypes", help="print the canonical agent profiles")
    p.add_argument("--quiet", action="store_true", help="suppress progress logging")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    logger.setLevel(logging.WARNING if args.quiet else logging.INFO)

    if args.command == "archetypes":
        sys.stdout.write(format_archetypes())
        return 0

    try:
        config = load_config(args.config)
        _resolve_seed(args.seed, config)
        if args.out is not None:
            config.out = args.out
        if args.format is not None:
            config.format = args.format
        out = config.require("out")
        record = _RUNNERS[args.command](config)
        emit(record, out, config.format)
    except ConfigInvalid as err:
        logger.error("config error: %s", err)
        return 2
    except (UnreachableGuidance, IncompletePovm) as err:
        logger.error("model error: %s", err)
        return 3
    except IoFailure as err:
        logger.error("i/o error: %s", err)
        return 4
    logger.info("%s: wrote %d row(s) to %s", record.experiment_id, len(record.rows), out)
    return 0
