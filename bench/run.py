"""Run one funwill benchmark workload (or all four) and print its metrics.

    python3 bench/run.py --workload power --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are defined in ``bench/workloads.py``, metric names and
units in ``BENCHMARK.json``.

With ``--trace 0`` the end-to-end metrics are measured with tracing off:

* ``setup_s``: median over fresh processes of the time from before
  ``import funwill`` until the workload's inputs are validated; two such
  processes run before each of the blocks the measured window is cut into;
* ``wall_s``: the wall time of the fastest workload iteration (see below
  for why not the median);
* ``wall_tail_s``: the highest percentile of iteration wall time with at
  least ten samples beyond it, i.e. the eleventh-slowest iteration (the
  report names the percentile);
* ``units_per_s``: units of work per iteration over ``wall_s``; the
  report also prints units over the summed time of all iterations;
* ``peak_rss_mb``: ``ru_maxrss`` of the fresh measuring process.

The machine this benchmark was written on (a 2-core VM on a shared host)
runs in fast and slow episodes, from load outside it, that hit each
virtual CPU separately and can outlast a run.  The median iteration flips
between them from run to run.  Over seven seeds under heavy outside load
the spread (interquartile distance over median) of the median iteration
was 19-31%, of the 10th percentile 14-17%, and of the fastest iteration
8-11%.  So ``wall_s`` is the fastest iteration, the one the host slowed
least, and the measuring process moves to the next CPU at every block
(see ``bench/worker.py``).  The median is printed next to it.

``failed_frac`` (operations that raised, exited nonzero or failed an output
check, over operations attempted) is printed with them; it is carried in
the ``attempted``/``failed`` fields of the result line.

With ``--trace 1`` half the run is untraced and half traced (see
``bench/tracer.py``), and the per-layer metrics are reported per iteration.

The human-readable report goes first; the last line of standard output is
the result as one JSON object.  The full result, with the seed, the
environment and every sample, is written under ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# The measured window is cut into BLOCKS; PROBES_PER_PAUSE set-up probes run before each.
BLOCKS = 9
PROBES_PER_PAUSE = 2
WARMUP_S = 1.0
TAIL_MIN_BEYOND = 10
PROBE_TIMEOUT_S = 60
# Beyond the measured seconds, the measuring worker and the probes between its
# blocks get this long to import, warm up and report.
WORKER_SLACK_S = 60


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    gitdir = os.path.join(ROOT, ".git")
    head = (read_text(os.path.join(gitdir, "HEAD")) or "").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[len("ref: "):]
    loose = read_text(os.path.join(gitdir, ref))
    if loose:
        return loose.strip()
    for line in (read_text(os.path.join(gitdir, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, to identify the measured tree without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "funwill")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model() -> str | None:
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def loadavg() -> str | None:
    text = read_text("/proc/loadavg")
    return text.strip() if text else None


def worker_argv(mode: str, spec: dict) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), mode, json.dumps(spec)]


def read_result(spec: dict) -> dict:
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def probe_setup(spec: dict) -> float:
    """Run one set-up probe process to completion."""
    proc = subprocess.run(worker_argv("setup", spec), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr.strip()}")
    return read_result(spec)["setup_s"]


def expect_line(proc, line: str, deadline: float) -> bool:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    return bool(ready) and proc.stdout.readline() == line


def measure(spec: dict, timeout: float, between_blocks) -> dict:
    """Run the measuring worker, calling ``between_blocks()`` in each pause.

    The first pause starts once the worker has warmed up, so that no probe
    runs beside the worker's import or warm-up.
    """
    deadline = time.monotonic() + timeout
    errpath = os.path.join(spec["workdir"], "measure.stderr")
    with open(errpath, "w+", encoding="utf-8") as err, subprocess.Popen(
        worker_argv("measure", spec), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True
    ) as proc:
        try:
            if expect_line(proc, "ready\n", deadline):
                for _ in range(sum(phase[3] for phase in spec["phases"])):
                    between_blocks()
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                    if not expect_line(proc, "done\n", deadline):
                        break
            proc.stdin.close()
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"measuring worker exited {proc.returncode}:\n{err.read().strip()}")
    return read_result(spec)


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile with ten beyond.

    That is the eleventh-slowest sample, at percentile 100 * (n - 10) / n.
    """
    n = len(ordered)
    beyond = min(TAIL_MIN_BEYOND, n - 1)
    return 100.0 * (n - beyond) / n, ordered[n - 1 - beyond], beyond


def end_to_end(workload, probes, measured):
    walls = measured["phases"]["plain"]["walls"]
    ordered = sorted(walls)
    pct, tail_value, beyond = tail(ordered)
    n = len(walls)
    wall = ordered[0]
    return {
        "wall_s": (
            wall,
            f"fastest of {n} iterations; median {statistics.median(walls):.6g} s",
        ),
        "wall_tail_s": (tail_value, f"p{pct:.4g}, {beyond} of {n} iterations beyond it"),
        "units_per_s": (
            workload.units / wall,
            f"{workload.units} units per iteration; {workload.units * n / math.fsum(walls):.6g}/s over all {n}",
        ),
        "setup_s": (statistics.median(probes), f"median of {len(probes)} fresh processes, spread over the run"),
        "peak_rss_mb": (measured["peak_rss_mb"], "ru_maxrss of the measuring process"),
    }


def per_layer(workload, measured):
    traced = measured["phases"]["traced"]
    n = len(traced["walls"])
    stats = measured["trace"]
    out = {}
    for layer, names in tracer.TRACED.items():
        layer_total = [0, 0.0, 0]
        for name in names:
            calls, self_s, errors = stats[f"{layer}.{name}"]
            per_call = f"{1e6 * self_s / calls:.3f} us/call" if calls else "no calls"
            out[f"{layer}.{name}.calls"] = (calls / n, f"per iteration, {n} traced iterations")
            out[f"{layer}.{name}.self_s"] = (self_s / n, per_call)
            layer_total = [a + b for a, b in zip(layer_total, (calls, self_s, errors))]
        calls, self_s, errors = layer_total
        out[f"{layer}.calls"] = (calls / n, "per iteration")
        out[f"{layer}.self_s"] = (self_s / n, f"{1e6 * self_s / calls:.3f} us/call" if calls else "no calls")
        out[f"{layer}.errors"] = (errors / n, "exceptions raised per iteration")
    for key in tracer.PER_UNIT:
        out[f"{key}.per_unit"] = (stats[key][0] / n / workload.units, f"calls per unit, {workload.units} units/iteration")
    out["cli.emit.bytes"] = (traced["emitted_bytes"] / n, "bytes written per iteration")
    plain = min(measured["phases"]["plain"]["walls"])
    with_trace = min(traced["walls"])
    out["trace.overhead_frac"] = (
        with_trace / plain - 1.0,
        f"fastest iteration traced {with_trace:.6g} s vs untraced {plain:.6g} s",
    )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, outdir: str, declared: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    load_before = loadavg()
    workdir = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=outdir)
    try:
        workload.write_inputs(workdir)
        base = {"root": ROOT, "workload": name, "seed": seed, "workdir": workdir}
        probes = []

        def probe():
            for _ in range(0 if trace else PROBES_PER_PAUSE):
                spec = dict(base, result=os.path.join(workdir, f"setup-{len(probes)}.json"))
                probes.append(probe_setup(spec))

        if trace:
            phases = [["plain", seconds / 2, False, 2], ["traced", seconds / 2, True, 2]]
        else:
            phases = [["plain", seconds, False, BLOCKS]]
        spec = dict(base, result=os.path.join(workdir, "measure.json"), warmup_s=WARMUP_S, phases=phases)
        measured = measure(spec, seconds + WORKER_SLACK_S, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    computed = per_layer(workload, measured) if trace else end_to_end(workload, probes, measured)
    if set(computed) != set(declared):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(computed) ^ set(declared))}")
    metrics = {key: {"value": computed[key][0], "unit": declared[key]} for key in declared}
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "why": workload.why,
        "moves": workload.moves,
        "environment": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            **measured["versions"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
        },
        "result": result,
        "failed_frac": measured["failed"] / measured["attempted"],
        "failures": measured["failures"],
        "notes": {key: computed[key][1] for key in declared},
        "samples": {
            "wall_s": measured["phases"].get("plain", {}).get("walls"),
            "traced_wall_s": measured["phases"].get("traced", {}).get("walls"),
            "setup_s": probes,
        },
    }


def report(doc: dict) -> None:
    env = doc["environment"]
    print(
        f"== {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
        f"({env['bit_generator']}, numpy {env['numpy']}, Python {env['python']}, "
        f"funwill {env['funwill']}, {env['nproc']} cpus, load {env['loadavg_before']})"
    )
    for key, metric in doc["result"]["metrics"].items():
        print(f"  {key:<42} {metric['value']:<14.6g} {metric['unit']:<12} {doc['notes'][key]}")
    result = doc["result"]
    print(
        f"  {'failed_frac':<42} {doc['failed_frac']:<14.6g} {'frac':<12} "
        f"{result['failed']} of {result['attempted']} operations failed"
    )
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="unsigned 64-bit workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"), help="directory for full results")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "funwill", "__init__.py")):
        print(f"no funwill sources under {os.path.join(ROOT, 'src')}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(args.out, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    docs = []
    for name in names:
        try:
            doc = run_workload(name, args.seed, args.seconds, bool(args.trace), args.out, declared)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 1
        path = os.path.join(args.out, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        report(doc)
        docs.append(doc)

    if len(docs) == 1:
        line = docs[0]["result"]
    else:
        line = {
            "correct": all(d["result"]["correct"] for d in docs),
            "attempted": sum(d["result"]["attempted"] for d in docs),
            "failed": sum(d["result"]["failed"] for d in docs),
            "metrics": {f"{d['workload']}.{k}": v for d in docs for k, v in d["result"]["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
