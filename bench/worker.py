"""One fresh process per set-up probe or measured run of one workload.

    python3 bench/worker.py setup   SPEC_JSON
    python3 bench/worker.py measure SPEC_JSON

SPEC_JSON holds ``root``, ``workload``, ``seed``, ``workdir`` and
``result`` (where the findings are written as JSON); ``measure`` also takes
``warmup_s`` and ``phases``, a list of ``[label, seconds, traced, blocks]``.

After warming up the worker writes ``ready`` to standard output.  A
measured phase runs in ``blocks`` timed blocks.  Before each block the
worker waits for a line on standard input, moves itself to the next CPU it
may run on, runs one untimed iteration to re-warm, times the block, and
then writes ``done`` to standard output.  The caller runs set-up probes in
those pauses, spread over the measured window.

Why the worker changes CPU: on a VM on a shared host, load outside the VM
slows each virtual CPU in episodes that can outlast a whole run, and the
episodes of different virtual CPUs are independent.  Visiting every CPU
lets the fastest iteration, which ``wall_s`` reports, come from one the
host did not slow, and lets the tail see one it did.

A fresh interpreter per run keeps import state and peak RSS to one workload.
Iterations run back to back in one thread: a closed loop with one client.
"""

import time

_T0 = time.perf_counter()  # before funwill, or anything else, is imported

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _prepare(spec):
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import workloads

    return workloads.WORKLOADS[spec["workload"]]


def setup_probe(spec):
    """Seconds from process start, before ``import funwill``, to validated inputs."""
    workload = _prepare(spec)
    workload.setup(spec["seed"], spec["workdir"])
    return {"setup_s": time.perf_counter() - _T0}


class Outcomes:
    """Counts operations and checks each distinct output once."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first = {}     # op -> digest of the first output
        self.verdicts = {}  # digest -> check failure or None

    def record(self, outputs):
        for op, data, error in outputs:
            self.attempted += 1
            if error is None:
                digest = hashlib.sha256(data).hexdigest()
                if digest not in self.verdicts:
                    self.verdicts[digest] = self.workload.check(self.state, op, data)
                error = self.verdicts[digest]
                if error is None and self.first.setdefault(op, digest) != digest:
                    error = f"{op}: output differs from the first iteration at the same seed"
            if error is not None:
                self.failed += 1
                if error not in self.failures and len(self.failures) < 5:
                    self.failures.append(error)


def iterate(workload, state, outcomes):
    start = time.perf_counter()
    raw = workload.run(state)
    wall = time.perf_counter() - start
    outputs = workload.outputs(state, raw)
    outcomes.record(outputs)
    emitted = sum(len(data) for _, data, _ in outputs if data is not None) if workload.writes_files else 0
    return wall, emitted


def measure(spec):
    workload = _prepare(spec)
    state = workload.setup(spec["seed"], spec["workdir"])
    outcomes = Outcomes(workload, state)

    # Warm caches and lazy set-up; these iterations are checked but not timed.
    warm_until = time.perf_counter() + spec["warmup_s"]
    while True:
        iterate(workload, state, outcomes)
        if time.perf_counter() >= warm_until:
            break
    print("ready", flush=True)

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    block_index = 0
    phases = {}
    trace = counted = None
    for label, seconds, traced, blocks in spec["phases"]:
        if traced:
            import tracer

            trace = tracer.Tracer()
            trace.install()
            counted = {key: [0, 0.0, 0] for key in trace.stats}
        walls, emitted = [], 0
        for _ in range(blocks):
            if not sys.stdin.readline():
                sys.exit("the caller is gone")
            if cpus:
                os.sched_setaffinity(0, {cpus[block_index % len(cpus)]})
            block_index += 1
            iterate(workload, state, outcomes)  # re-warm after the pause
            if traced:
                before = {key: list(stat) for key, stat in trace.stats.items()}
            until = time.perf_counter() + seconds / blocks
            while True:
                wall, nbytes = iterate(workload, state, outcomes)
                walls.append(wall)
                emitted += nbytes
                if time.perf_counter() >= until:
                    break
            if traced:  # count the timed iterations only
                for key, stat in trace.stats.items():
                    counted[key] = [c + now - then for c, now, then in zip(counted[key], stat, before[key])]
            print("done", flush=True)
        phases[label] = {"walls": walls, "emitted_bytes": emitted}
    if trace is not None:
        trace.uninstall()

    import numpy

    import funwill

    source = os.path.join(spec["root"], "src", "funwill")
    if os.path.dirname(os.path.abspath(funwill.__file__)) != os.path.abspath(source):
        raise RuntimeError(f"measured {funwill.__file__}, not the checkout's {source}")
    return {
        "units": workload.units,
        "phases": phases,
        "trace": counted,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "funwill": funwill.__version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "bit_generator": type(numpy.random.default_rng(0).bit_generator).__name__,
        },
    }


def main():
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = {"setup": setup_probe, "measure": measure}[mode](spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
