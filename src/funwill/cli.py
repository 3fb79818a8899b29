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

Configs are flat JSON objects (see README for the schema).  The ``--seed``,
``--out`` and ``--format`` flags override the config keys of the same name
and are validated by the same parsers; a seed from neither comes from the
FUNWILL_SEED environment variable.  Every run with identical config and
seed produces byte-identical output.

Exit codes: 0 success, 2 config error, 3 model error (unreachable guidance
or incomplete measurement set), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import agents
from .collapse import _realized_rows
from .detect import (
    _power_curve,
    chebyshev_bound,
    lln_concentration,
    pearson_tests,
    pooling_plan,
)
from .distributions import (
    ChoiceSpace,
    ProbabilityVector,
    _blend_weights,
    _entropy,
    _gradient,
    _regime,
    _unit_interval,
    make_distribution,
)
from .errors import (
    ConfigInvalid,
    DegenerateNull,
    IncompletePovm,
    InsufficientExpected,
    IoFailure,
    UnreachableGuidance,
)
from .seeding import derive_seed, validate_seed

logger = logging.getLogger("funwill")

SEED_ENV_VAR = "FUNWILL_SEED"
MAX_SIGMA_STEPS = 10**6  # the longest sigma sweep: its grid and table are held in memory


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _number(value) -> float:
    """A finite JSON number; ``bool`` is an ``int`` subclass but not a number."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, least: int = 1) -> int:
    """A JSON integer of at least ``least``; ``bool`` is not a count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"expected an integer >= {least}, got {value!r}")
    return value


def _trials(value) -> int:
    """A trial count; numpy's multinomial takes at most 2**63 - 1, a C long."""
    if _integer(value) > 2**63 - 1:
        raise ValueError(f"expected at most 2**63 - 1 trials, got {value}")
    return value


def _array(value, item) -> tuple:
    """A non-empty JSON array, each entry through ``item``."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a non-empty array, got {value!r}")
    return tuple(map(item, value))


def _label(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected an array of strings, got {value!r}")
    return value


def _vector(value) -> ProbabilityVector:
    return make_distribution(_array(value, _number), normalize=False)


def _sigma(spec):
    """A will strength in [0, 1] or a ``{start, stop, steps}`` sweep, kept as given."""
    if not isinstance(spec, dict):
        if not 0.0 <= _number(spec) <= 1.0:
            raise ValueError(f"must lie in [0, 1], got {spec!r}")
        return spec
    if set(spec) != {"start", "stop", "steps"}:
        raise ValueError(f"a sweep takes exactly start, stop and steps, got {sorted(spec)}")
    if _integer(spec["steps"]) > MAX_SIGMA_STEPS:
        raise ValueError(f"a sweep takes at most {MAX_SIGMA_STEPS} steps, got {spec['steps']}")
    if not 0.0 <= _number(spec["start"]) <= _number(spec["stop"]) <= 1.0:
        raise ValueError(f"need 0 <= start <= stop <= 1, got {spec}")
    if spec["steps"] == 1 and spec["start"] != spec["stop"]:
        raise ValueError(f"a one-step sweep needs start == stop, got {spec}")
    return spec


def _alpha(value) -> float:
    alpha = _number(value)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"must lie in (0, 1), got {alpha}")
    return alpha


def _positive(value) -> float:
    number = _number(value)
    if number <= 0.0:
        raise ValueError(f"must be positive, got {number}")
    return number


def _path(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError("expected a non-empty path string")
    return value


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError(f"expected 'csv' or 'json', got {value!r}")
    return value


def _key(parse, default=None, echo="all", per_outcome=False):
    """One config key.

    ``parse`` turns the key's JSON value into the stored value or raises
    ValueError.  ``echo`` names the subcommand whose input echo shows the
    key, or is "all" or "none".  ``per_outcome`` keys hold one entry per
    outcome, so their lengths must agree.
    """
    return field(default=default, metadata={"parse": parse, "echo": echo, "per_outcome": per_outcome})


@dataclass
class ExperimentConfig:
    """Validated experiment inputs.

    The fields are the config schema: one per key, in input-echo order,
    each with its parser.  A key the config does not give keeps its default.
    """

    labels: tuple[str, ...] | None = _key(
        lambda v: ChoiceSpace(_array(v, _label)).labels, per_outcome=True
    )
    nature: ProbabilityVector | None = _key(_vector, per_outcome=True)
    understanding: ProbabilityVector | None = _key(_vector, per_outcome=True)
    sigma: float | dict | None = _key(_sigma)
    trials: int | None = _key(_trials)
    alpha: float = _key(_alpha, default=0.05)
    noise: float = _key(lambda v: _unit_interval(_number(v), "noise level"), default=0.0)
    reps: int | None = _key(_integer)
    seed: int | None = _key(lambda v: validate_seed(_integer(v, least=0)))
    out: str | None = _key(_path, echo="none")
    format: str = _key(_format, default="csv", echo="none")
    payoff: tuple[float, ...] | None = _key(lambda v: _array(v, _number), echo="lln", per_outcome=True)
    epsilon: float | None = _key(_positive, echo="lln")
    n_schedule: tuple[int, ...] | None = _key(lambda v: _array(v, _trials), echo="lln")

    @property
    def sigmas(self) -> tuple[float, ...]:
        """The sigma grid: the scalar, or the sweep from ``start`` to ``stop``, -0.0 read as 0.0."""
        spec = self.sigma
        if spec is None:
            return ()
        if not isinstance(spec, dict):
            return (float(spec) + 0.0,)
        start, stop, steps = float(spec["start"]), float(spec["stop"]) + 0.0, spec["steps"]
        width = stop - start
        # The last point is pinned: start + width can round past stop.
        return tuple(start + i * width / (steps - 1) for i in range(steps - 1)) + (stop,)

    def require(self, *names: str) -> tuple:
        """The values of ``names``, in order; a missing one is a config error."""
        for name in names:
            if getattr(self, name) is None:
                raise ConfigInvalid(name, "required for this subcommand")
        return tuple(getattr(self, name) for name in names)

    def echo(self, kind: str) -> dict:
        """The model inputs that subcommand ``kind`` echoes, as plain JSON values."""
        return {
            name: _plain(getattr(self, name))
            for name, f in _SCHEMA.items()
            if f.metadata["echo"] in ("all", kind)
        }


_SCHEMA = {f.name: f for f in fields(ExperimentConfig)}


def _plain(value):
    """A stored value as the input echo shows it."""
    if isinstance(value, ProbabilityVector):
        return list(value.weights)
    if isinstance(value, tuple):
        return list(value)
    return value


def _parse(key: str, value):
    """Parse one value of config key ``key``; a bad value is a config error naming it."""
    try:
        return _SCHEMA[key].metadata["parse"](value)
    except ValueError as err:
        raise ConfigInvalid(key, str(err)) from None


@dataclass
class ResultRecord:
    """One experiment's identity, input echo and tabulated rows."""

    experiment_id: str
    config: dict
    columns: list[str]
    rows: list[dict]


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed config document, key by key in schema order."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config", "top level must be a JSON object")
    unknown = raw.keys() - _SCHEMA.keys()
    if unknown:
        raise ConfigInvalid(sorted(unknown)[0], "unknown config field")
    values = {key: _parse(key, raw[key]) for key in _SCHEMA if key in raw}
    dims = [(key, len(value)) for key, value in values.items() if _SCHEMA[key].metadata["per_outcome"]]
    for key, n in dims[1:]:
        if n != dims[0][1]:
            raise ConfigInvalid(key, f"has {n} entries, but {dims[0][0]} has {dims[0][1]}")
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigInvalid("config", f"cannot read {path}: {err}") from None
    except ValueError as err:  # JSONDecodeError, or UnicodeDecodeError from the read
        raise ConfigInvalid("config", f"{path} is not valid UTF-8 JSON: {err}") from None
    return build_config(raw)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

# Each subcommand's header; "p_prime" stands for p_prime_0..p_prime_{d-1}.
# Distort leaves the detector columns empty, so the three sigma tables agree.
_SIGMA_TABLE = ("sigma", "p_prime", "xi_bits", "dh_dsigma", "regime",
                "residual", "chi2", "p_value", "verdict", "power")
_COLUMNS = {
    "distort": _SIGMA_TABLE,
    "collapse": _SIGMA_TABLE,
    "power": _SIGMA_TABLE,
    "lln": ("n", "deviation_prob", "chebyshev_bound"),
}


def _record(kind: str, config: ExperimentConfig, cells: list[dict]) -> ResultRecord:
    """Lay out cells under ``kind``'s header, with the input echo and an id hashed from it.

    A cell's "p_prime" entry holds the values of p_prime_0..p_prime_{d-1}.
    """
    p_prime = [f"p_prime_{j}" for j in range(config.nature.dimension)]
    columns = [column for name in _COLUMNS[kind] for column in (p_prime if name == "p_prime" else [name])]
    rows = []
    for cell in cells:
        row = dict.fromkeys(columns)
        row.update(cell)
        row.update(zip(p_prime, row.pop("p_prime", ())))
        rows.append(row)
    echo = config.echo(kind)
    digest = hashlib.sha256(
        json.dumps({"kind": kind, "config": echo}, sort_keys=True).encode()
    ).hexdigest()
    return ResultRecord(f"{kind}-{digest[:12]}", echo, columns, rows)


def _distribution_cells(weights: list[float]) -> dict:
    """The p_prime cells of a distribution's weights and its entropy."""
    return {"p_prime": weights, "xi_bits": _entropy(weights)}


def _analytics(nature, understanding, sigmas) -> list[dict]:
    """Per sigma, the blend's cells, its gradient (+/-inf where it diverges) and the regime."""
    p, u = nature.weights, understanding.weights
    cells = []
    for sigma, blend in zip(sigmas, _blend_weights(nature, understanding, sigmas).tolist()):
        grad = _gradient(p, u, blend)
        cells.append(
            {"sigma": sigma, **_distribution_cells(blend), "dh_dsigma": grad, "regime": _regime(grad)}
        )
    return cells


def run_distort(config: ExperimentConfig) -> ResultRecord:
    """Blend analytics per sigma: distribution, entropy, gradient, regime."""
    nature, understanding, _, _ = config.require("nature", "understanding", "labels", "sigma")
    return _record("distort", config, _analytics(nature, understanding, config.sigmas))


def run_collapse(config: ExperimentConfig) -> ResultRecord:
    """Sample directed collapses per sigma and test them against the baseline.

    Each row takes its outcome weights and completeness residual from
    ``collapse._realized_rows`` and records the residual, the empirical
    frequencies of ``trials`` collapses (in the p_prime columns) and their
    entropy.  Row i draws from ``default_rng(derive_seed(seed, i))``; after
    the last draw, one ``pearson_tests`` call adds every row's chi-squared
    report against the baseline (the Born null).  Any row replays alone
    through ``build_povm``, ``outcome_distribution``, ``simulate_trials``
    and ``chi_squared_test``.
    """
    nature, understanding, _, trials, seed, _ = config.require(
        "nature", "understanding", "labels", "trials", "seed", "sigma"
    )
    sigmas = config.sigmas
    plan = None
    cells, rows = [], []
    realized = _realized_rows(nature, understanding, sigmas)
    for i, (sigma, (weights, residual)) in enumerate(zip(sigmas, realized)):
        counts = np.random.default_rng(derive_seed(seed, i)).multinomial(trials, weights).tolist()
        if plan is None:  # after the first row's model errors, which take precedence
            plan = pooling_plan(nature, trials)
        rows.append(counts)
        cells.append({"sigma": sigma, **_distribution_cells([c / trials for c in counts]),
                      "residual": residual})
    for cell, report in zip(cells, pearson_tests(np.array(rows), plan, config.alpha)):
        cell.update(zip(("chi2", "p_value", "verdict"), report))
    return _record("collapse", config, cells)


def run_power(config: ExperimentConfig) -> ResultRecord:
    """Detection power per sigma grid point; row i is ``detection_power`` at ``derive_seed(seed, i)``."""
    nature, understanding, _, trials, reps, seed, _ = config.require(
        "nature", "understanding", "labels", "trials", "reps", "seed", "sigma"
    )
    if reps < 100:
        raise ConfigInvalid("reps", "power estimates need at least 100 replications")
    sigmas = config.sigmas
    cells = _analytics(nature, understanding, sigmas)
    seeds = [derive_seed(seed, i) for i in range(len(sigmas))]
    powers = _power_curve(nature, understanding, sigmas, seeds, trials, config.alpha, reps, config.noise)
    for row, power in zip(cells, powers):
        row["power"] = power
    return _record("power", config, cells)


def run_lln(config: ExperimentConfig) -> ResultRecord:
    """Weak-law concentration table for the configured payoff."""
    nature, payoff, epsilon, schedule, reps, seed = config.require(
        "nature", "payoff", "epsilon", "n_schedule", "reps", "seed"
    )
    estimates = lln_concentration(nature, payoff, epsilon, schedule, reps, seed)
    cells = [
        {
            "n": n,
            "deviation_prob": prob,
            "chebyshev_bound": chebyshev_bound(nature, payoff, epsilon, n),
        }
        for n, prob in estimates
    ]
    return _record("lln", config, cells)


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


def _json_cell(value) -> str:
    """A flat row's value as ``json.dumps`` writes it after 12-digit rounding."""
    if value is None:
        return "null"
    if isinstance(value, float) and math.isfinite(value):
        return repr(float(f"{value:.12g}"))  # json writes finite floats by float.__repr__
    return json.dumps(_round12(value))


def render_json(record: ResultRecord) -> str:
    """The record as ``json.dumps(doc, indent=2)`` of its 12-digit-rounded document.

    The header goes through ``json.dumps``; the rows, whose values are flat,
    are joined line by line in the same layout.
    """
    head = json.dumps({
        "experiment_id": record.experiment_id,
        "config": {k: _round12(v) for k, v in record.config.items()},
        "columns": record.columns,
        "rows": [],
    }, indent=2)
    if not record.rows:
        return head + "\n"
    keys = [f'      {json.dumps(c)}: ' for c in record.columns]
    rows = []
    for row in record.rows:
        lines = [key + _json_cell(row[c]) for key, c in zip(keys, record.columns)]
        rows.append("    {\n" + ",\n".join(lines) + "\n    }" if lines else "    {}")
    return head[:-len("[]\n}")] + "[\n" + ",\n".join(rows) + "\n  ]\n}\n"


def emit(record: ResultRecord, path: str, fmt: str) -> str:
    """Write a record as CSV or JSON; floats carry 12 significant digits.

    The text goes to a temporary file in the destination directory, which
    is then renamed onto ``path``: a failed write removes the temporary
    file and leaves any existing ``path`` as it was.
    """
    text = render_csv(record) if _parse("format", fmt) == "csv" else render_json(record)
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


def _apply_flags(config: ExperimentConfig, args: argparse.Namespace) -> None:
    """Let each flag named after a config key override it, through the key's
    parser; with no seed from either, FUNWILL_SEED supplies it."""
    for key, value in vars(args).items():
        if key in _SCHEMA and value is not None:
            setattr(config, key, _parse(key, value))
    if config.seed is not None:
        return
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        raise ConfigInvalid(
            "seed", f"no seed given (use --seed, the config's 'seed' key, or {SEED_ENV_VAR})"
        )
    try:
        config.seed = _parse("seed", int(env))
    except ValueError:
        raise ConfigInvalid("seed", f"{SEED_ENV_VAR}={env!r} is not a valid seed") from None


@functools.cache
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
        p.add_argument("--format", default=None, help="output format, csv or json (overrides config)")
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
        _apply_flags(config, args)
        (out,) = config.require("out")
        record = _RUNNERS[args.command](config)
        emit(record, out, config.format)
    except ConfigInvalid as err:
        logger.error("config error: %s", err)
        return 2
    except DegenerateNull as err:  # the chi-squared test of collapse and power raises both
        logger.error("config error: nature: no trial count gives a chi-squared test: %s", err)
        return 2
    except InsufficientExpected as err:
        logger.error("config error: trials: too few trials for a chi-squared test: %s", err)
        return 2
    except (UnreachableGuidance, IncompletePovm) as err:
        logger.error("model error: %s", err)
        return 3
    except IoFailure as err:
        logger.error("i/o error: %s", err)
        return 4
    logger.info("%s: wrote %d row(s) to %s", record.experiment_id, len(record.rows), out)
    return 0
