"""Per-layer tracing of funwill from outside the package.

The tracer replaces each traced public name with a timing wrapper at every
``funwill.*`` module attribute that binds it, and in every module-level
dict that holds it (``cli._RUNNERS`` dispatches the ``run_*`` functions).
``from .seeding import derive_seed`` copies the binding into ``detect`` and
``cli``, so wrapping only the defining module would miss most calls.
Classes are traced by
wrapping ``__post_init__``, which their dataclass ``__init__`` calls once per
construction.

Spans are not stored one by one: a power run makes millions of calls.  Each
wrapper folds its span into per-name totals as it closes, using a stack of
child-time accumulators, so a name's self time is its span minus the parts
covered by traced calls nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer -> traced public names, in report order.  Capitalised names are
# classes, traced per construction.
TRACED = {
    "cli": ("load_config", "run_distort", "run_collapse", "run_power", "run_lln", "emit"),
    "distributions": (
        "exercise_will", "unpredictability", "entropy_gradient", "classify_regime",
        "make_distribution", "ProbabilityVector",
    ),
    "collapse": (
        "prepare_state", "build_povm", "check_completeness", "outcome_distribution", "collapse",
        "AmplitudeState", "PovmSet", "CollapseOutcome",
    ),
    "agents": ("archetype", "choose"),
    "detect": (
        "simulate_trials", "chi_squared_test", "apply_noise", "detection_power",
        "lln_concentration", "chebyshev_bound", "TrialCounts", "TestReport",
    ),
    "special": ("chi_squared_sf",),
    "seeding": ("derive_seed", "validate_seed"),
}

# Names whose calls per unit of work are reported as ``<key>.per_unit``.
PER_UNIT = (
    "seeding.derive_seed", "special.chi_squared_sf", "detect.simulate_trials",
    "detect.TrialCounts", "detect.TestReport", "distributions.ProbabilityVector",
    "collapse.outcome_distribution", "collapse.AmplitudeState",
)


class Tracer:
    """Counts calls, self time and raised exceptions per traced name."""

    def __init__(self):
        # key -> [calls, self seconds, errors]
        self.stats = {f"{layer}.{name}": [0, 0.0, 0] for layer, names in TRACED.items() for name in names}
        self._stack = [0.0]
        self._undo = []

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat[2] += 1
                raise
            finally:
                span = clock() - start
                stat[0] += 1
                stat[1] += span - stack.pop()
                stack[-1] += span

        return traced

    def install(self):
        """Wrap every traced name at every funwill module attribute binding it."""
        homes = {layer: importlib.import_module(f"funwill.{layer}") for layer in TRACED}
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "funwill" or name.startswith("funwill."))
        ]
        for layer, names in TRACED.items():
            home = homes[layer]
            for name in names:
                target = getattr(home, name)
                key = f"{layer}.{name}"
                if isinstance(target, type):
                    original = target.__dict__["__post_init__"]
                    self._undo.append((target, "__post_init__", original))
                    setattr(target, "__post_init__", self._wrap(key, original))
                    continue
                wrapper = self._wrap(key, target)
                namespaces = [vars(mod) for mod in modules]
                namespaces += [v for ns in namespaces for v in ns.values() if type(v) is dict]
                for namespace in namespaces:
                    for attr, value in list(namespace.items()):
                        if value is target:
                            self._undo.append((namespace, attr, value))
                            namespace[attr] = wrapper

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()
