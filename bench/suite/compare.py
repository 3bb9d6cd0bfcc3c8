#!/usr/bin/env python3
"""Compare two sets of CEJ benchmark runs, metric by metric.

    python3 bench/suite/compare.py BASE CAND [--manifest BENCHMARK.json]

BASE and CAND each name one set of runs: a results file written by run.sh
({"runs": [...]}), a single run record, a directory of run records (such
as build-bench/out/ after several run.sh calls), or one set of a baseline
file as PATH:SET (e.g. bench/suite/baseline.json:a).
Several sources may be joined with commas.

For every metric and workload it prints each side's median and quartiles
and a verdict. End-to-end metrics carry the bound BENCHMARK.json fixes:

  GAIN        the candidate wins at least 9 of 10 pairs (ties count for
              neither; runs pair by seed) and the medians differ by more
              than the base's interquartile distance
  REGRESSION  the candidate median is worse than the base by more than
              the bound
  unresolved  either side's interquartile spread exceeds the bound, and
              not every candidate run beats (or loses to) every base run
  same        within the bound

Per-layer metrics have no bound: they get GAIN by the same rule, or "-".
The exit status is 1 when any end-to-end metric regresses or any run was
incorrect.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def load_records(source):
    """Run records ({"workload", "seed", "result"}) named by `source`."""
    path, _, set_name = source.partition(":")
    if os.path.isdir(path):
        # Only the per-run records: a results file in the same directory
        # repeats some of them.
        records = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json") and not name.endswith(".trace.json"):
                with open(os.path.join(path, name)) as f:
                    data = json.load(f)
                if "result" in data:
                    records.append(data)
        return records
    with open(path) as f:
        data = json.load(f)
    if set_name:
        data = data["sets"][set_name]
    if "runs" in data:
        return data["runs"]
    if "result" in data:
        return [data]
    return []


def gather(sources):
    """{(workload, metric): [(seed, value)]}, units, and incorrect runs."""
    values, units, incorrect = {}, {}, []
    for source in sources.split(","):
        for record in load_records(source):
            result = record["result"]
            if not result.get("correct", False):
                incorrect.append((record["workload"], record.get("seed")))
            for name, metric in result["metrics"].items():
                key = (record["workload"], name)
                values.setdefault(key, []).append(
                    (record.get("seed"), metric["value"]))
                units[name] = metric["unit"]
    return values, units, incorrect


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, cand):
    """Pairs runs by seed when every seed appears once per side, else in
    order."""
    base_seeds = dict(base)
    cand_seeds = dict(cand)
    if (len(base_seeds) == len(base) and len(cand_seeds) == len(cand) and
            set(base_seeds) & set(cand_seeds)):
        return [(base_seeds[s], cand_seeds[s]) for s in base_seeds
                if s in cand_seeds]
    return list(zip([v for _, v in base], [v for _, v in cand]))


def verdict(base, cand, bound, lower_is_better):
    b = [v for _, v in base]
    c = [v for _, v in cand]
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)

    def better(x, y):
        return x < y if lower_is_better else x > y

    matched = pairs(base, cand)
    wins = sum(1 for x, y in matched if better(y, x))
    gain = (matched and wins >= 0.9 * len(matched) and better(cmed, bmed)
            and abs(cmed - bmed) > bq3 - bq1)
    if bound is None:
        return "GAIN" if gain else "-"
    if bmed == 0:
        return "same" if cmed == 0 else "unresolved"
    worse = (cmed - bmed) / bmed * (1 if lower_is_better else -1)
    spread = max((bq3 - bq1) / abs(bmed),
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound:
        if all(better(y, x) for x in b for y in c):
            return "GAIN" if gain else "better (every run)"
        if all(better(x, y) for x in b for y in c):
            return "REGRESSION" if worse > bound else "worse (every run)"
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if gain:
        return "GAIN"
    return "same"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("cand")
    parser.add_argument(
        "--manifest", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.manifest) as f:
        manifest = json.load(f)
    end_to_end = {m["name"]: m for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m for m in manifest["per_layer"]}
    workloads = [w["name"] for w in manifest["workloads"]]

    base, units, base_bad = gather(args.base)
    cand, _, cand_bad = gather(args.cand)
    failed = False
    for side, bad in (("base", base_bad), ("cand", cand_bad)):
        for workload, seed in bad:
            print(f"INCORRECT {side} run: {workload} seed {seed}")
            failed = True

    row = "  {:<16} {:>12} {:>12} {:>12}  {:>12} {:>12} {:>12} {:>8}  {}"
    for group, metrics in (("end-to-end", end_to_end),
                           ("per-layer", per_layer)):
        for name, spec in metrics.items():
            rows = [w for w in workloads
                    if (w, name) in base and (w, name) in cand]
            if not rows:
                continue
            lower = spec["better"] == "lower"
            bound = spec.get("bound")
            tail = f", bound {bound:.0%}" if bound is not None else ""
            print(f"\n{name} [{units.get(name, spec['unit'])}, "
                  f"{spec['better']} is better{tail}] ({group})")
            print(row.format("workload", "base q1", "base med", "base q3",
                             "cand q1", "cand med", "cand q3", "change",
                             "verdict"))
            for w in rows:
                bq1, bmed, bq3 = quartiles([v for _, v in base[(w, name)]])
                cq1, cmed, cq3 = quartiles([v for _, v in cand[(w, name)]])
                change = (f"{(cmed - bmed) / abs(bmed):+.1%}" if bmed
                          else "n/a")
                result = verdict(base[(w, name)], cand[(w, name)], bound,
                                 lower)
                failed |= result == "REGRESSION"
                print(row.format(w, f"{bq1:.4g}", f"{bmed:.4g}", f"{bq3:.4g}",
                                 f"{cq1:.4g}", f"{cmed:.4g}", f"{cq3:.4g}",
                                 change, result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
