"""Compare benchmark results of a parent and a change, or summarise one side.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py --summary DIR

Each directory holds the full results ``bench/run.py`` writes under
``--out`` (one file per workload, seed and trace setting).  Runs of the two
sides are paired by workload and seed.

For every workload and end-to-end metric the comparison prints each side's
median and quartiles, the fraction of pairs the change won (ties count for
neither) and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than the bound;
* ``better``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile distance;
* ``unresolved``: neither, and either side's interquartile distance exceeds
  the bound, unless every change run is better than every parent run;
* ``unchanged``: otherwise.

No metric is ``better`` when the change failed more operations than the
parent.  From traced runs it prints every exact count (calls, errors, calls
per unit, bytes) that differs between the sides, and flags counts that do
not repeat across one side's runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BETTER_SHARE = 0.9
COUNT_SUFFIXES = (".calls", ".errors", ".per_unit", ".bytes")


def load(directory: str) -> dict:
    """{(workload, trace): {seed: result document}} for every result in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        runs.setdefault((doc["workload"], doc["trace"]), {})[doc["seed"]] = doc
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def value(doc: dict, metric: str) -> float:
    return doc["result"]["metrics"][metric]["value"]


def verdict(metric: dict, parent: dict, change: dict) -> tuple[str, str]:
    """(verdict, detail line) for one end-to-end metric of one workload."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p = [value(d, name) for d in parent.values()]
    c = [value(d, name) for d in change.values()]
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    seeds = sorted(set(parent) & set(change))
    diffs = [sign * (value(change[s], name) - value(parent[s], name)) for s in seeds]
    won = sum(d > 0 for d in diffs) / len(diffs) if diffs else 0.0
    gain = sign * (cm - pm) / pm
    more_failures = sum(d["result"]["failed"] for d in change.values()) > sum(
        d["result"]["failed"] for d in parent.values()
    )
    dominated = min(sign * x for x in c) > max(sign * x for x in p)
    if gain < -bound:
        outcome = "worse"
    elif won >= BETTER_SHARE and abs(cm - pm) > pq3 - pq1 and gain > 0 and not more_failures:
        outcome = "better"
    elif ((pq3 - pq1) / pm > bound or (cq3 - cq1) / cm > bound) and not (dominated and not more_failures):
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    detail = (
        f"{name:<12} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}] n={len(p)}  "
        f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] n={len(c)}  "
        f"{100 * gain:+.1f}%  won {won:.2f} of {len(diffs)} pairs  bound {bound:g}  -> {outcome}"
    )
    return outcome, detail


def count_diffs(parent: dict, change: dict) -> list[str]:
    lines = []
    for side, docs in (("parent", parent), ("change", change)):
        first = next(iter(docs.values()))["result"]["metrics"]
        for doc in docs.values():
            for key, metric in doc["result"]["metrics"].items():
                if key.endswith(COUNT_SUFFIXES) and metric["value"] != first[key]["value"]:
                    lines.append(f"{key}: {side} count does not repeat across its runs")
    p = next(iter(parent.values()))["result"]["metrics"]
    c = next(iter(change.values()))["result"]["metrics"]
    for key in p:
        if key.endswith(COUNT_SUFFIXES) and key in c and p[key]["value"] != c[key]["value"]:
            pv, cv = p[key]["value"], c[key]["value"]
            lines.append(f"{key:<42} parent {pv:<12.6g} change {cv:<12.6g} diff {cv - pv:+.6g}")
    return lines


def compare(parent_dir: str, change_dir: str, spec: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    verdicts = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        if trace:
            for line in count_diffs(parent[key], change[key]) or ["exact counts identical"]:
                print(f"  {line}")
            continue
        for metric in spec["end_to_end"]:
            outcome, detail = verdict(metric, parent[key], change[key])
            verdicts.append(outcome)
            print(f"  {detail}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"== {key[0]} (trace {key[1]}): only on one side, not compared")
    return 1 if "worse" in verdicts else 0


def summary(directory: str, spec: dict) -> dict:
    """Medians and quartiles per workload, for a trajectory point (units are in BENCHMARK.json)."""
    out = {}
    for (workload, trace), docs in sorted(load(directory).items()):
        entry = out.setdefault(workload, {"seeds": {}, "environment": None})
        entry["seeds"][f"trace{trace}"] = sorted(docs)
        entry["environment"] = entry["environment"] or next(iter(docs.values()))["environment"]
        if trace:  # exact counts and per-layer times: the median over the traced runs
            entry["per_layer"] = {
                m["name"]: statistics.median(value(d, m["name"]) for d in docs.values()) for m in spec["per_layer"]
            }
        else:
            entry["end_to_end"] = {}
            for metric in spec["end_to_end"]:
                values = [value(d, metric["name"]) for d in docs.values()]
                q1, median, q3 = quartiles(values)
                entry["end_to_end"][metric["name"]] = {
                    "median": median, "q1": q1, "q3": q3, "n": len(values), "unit": metric["unit"],
                }
        entry[f"failed_trace{trace}"] = sum(d["result"]["failed"] for d in docs.values())
        entry[f"attempted_trace{trace}"] = sum(d["result"]["attempted"] for d in docs.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", help="PARENT_DIR CHANGE_DIR, or DIR with --summary")
    parser.add_argument("--summary", action="store_true", help="summarise one directory as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.summary:
        if len(args.dirs) != 1:
            parser.error("--summary takes one directory")
        json.dump(summary(args.dirs[0], spec), sys.stdout, indent=1)
        print()
        return 0
    if len(args.dirs) != 2:
        parser.error("expected PARENT_DIR CHANGE_DIR")
    return compare(args.dirs[0], args.dirs[1], spec)


if __name__ == "__main__":
    sys.exit(main())
