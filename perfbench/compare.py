#!/usr/bin/env python3
"""Compare two sets of Gleambook benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds full reports as run.py appends them (.bench_out/reports.jsonl),
one run per line: run the parent commit into one file and the change into
another, alternating which side runs first, ten or more seeds per workload.
For every workload and metric, prints each side's median and quartiles and
a verdict:

  better      the change wins at least 9 in 10 pairs (runs paired by seed,
              ties count for neither) and the medians differ by more than
              the parent's own spread (the distance between its quartiles);
  worse       for a metric BENCHMARK.json bounds, the change's median is
              worse than the parent's by more than the bound; for any other
              metric, the parent wins as a gain would have to;
  unresolved  a bounded metric whose run-to-run spread (quartile distance
              over median, on either side) is wider than its bound, unless
              every run of the change reads better than every parent run;
  unchanged   otherwise.

Refuses (exit 2) to compare reports whose host fingerprints differ: core
count, compiler and version, build type, and the benchmark's own files.
Exits 1 when any verdict is "worse", else 0.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "compiler", "build_type", "bench_sha256")
RULE_PAIR_SHARE = 0.9


def load(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit("compare.py: %s:%d: %s" % (path, n, e))
    if not runs:
        sys.exit("compare.py: %s holds no reports" % path)
    return runs


def fingerprints(runs):
    return {tuple((k, r.get("host", {}).get(k)) for k in HOST_KEYS)
            for r in runs}


def load_spec(path):
    """Metric name -> (better, bound) from BENCHMARK.json (bound may be None)."""
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        bench = json.load(f)
    spec = {}
    for m in bench.get("end_to_end", []):
        spec[m["name"]] = (m["better"], m.get("bound"))
    for m in bench.get("per_layer", []):
        spec[m["name"]] = (m["better"], None)
    return spec


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better, bound):
    """`base`/`new`: seed -> value. Returns (verdict, pair-win share)."""
    sign = 1 if better == "higher" else -1
    b = list(base.values())
    n = list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    seeds = sorted(set(base) & set(new))
    if seeds:
        pairs = [(new[s], base[s]) for s in seeds]
    else:  # no common seeds: pair in run order
        pairs = list(zip(n, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    losses = sum(1 for x, y in pairs if sign * (x - y) < 0)
    share = wins / len(pairs) if pairs else 0.0
    gap = sign * (nmed - bmed)
    spread = bq3 - bq1
    if pairs and wins >= RULE_PAIR_SHARE * len(pairs) and gap > spread:
        return "better", share
    if bound is not None:
        if bmed != 0 and -gap > bound * abs(bmed):
            return "worse", share
        wide = any(m != 0 and (q3 - q1) / abs(m) > bound
                   for q1, m, q3 in ((bq1, bmed, bq3), (nq1, nmed, nq3)))
        all_better = all(sign * (x - y) > 0 for x in n for y in b)
        if wide and not all_better:
            return "unresolved", share
        return "unchanged", share
    if pairs and losses >= RULE_PAIR_SHARE * len(pairs) and -gap > spread:
        return "worse", share
    return "unchanged", share


def collect(runs):
    """(workload, trace, metric) -> (unit, {seed: value})."""
    out = {}
    for r in runs:
        for section in ("metrics", "extra"):
            for name, m in r.get(section, {}).items():
                if m.get("value") is None:
                    continue
                key = (r["workload"], r["trace"], name)
                unit, values = out.setdefault(key, (m["unit"], {}))
                values[r["seed"]] = m["value"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="reports of the parent commit (JSON lines)")
    ap.add_argument("new", help="reports of the change (JSON lines)")
    ap.add_argument("--benchmark", default="BENCHMARK.json",
                    help="metric directions and bounds")
    args = ap.parse_args()
    base_runs, new_runs = load(args.base), load(args.new)
    prints = fingerprints(base_runs) | fingerprints(new_runs)
    if len(prints) != 1:
        print("compare.py: refusing: host fingerprints differ:",
              file=sys.stderr)
        for p in sorted(prints, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in p), file=sys.stderr)
        sys.exit(2)
    spec = load_spec(args.benchmark)
    base, new = collect(base_runs), collect(new_runs)
    print("host: " + ", ".join("%s=%s" % kv for kv in next(iter(prints))))
    print("%-18s %-5s %-44s %-34s %-34s %8s  %s" % (
        "workload", "trace", "metric", "base median [q1, q3]",
        "new median [q1, q3]", "change", "verdict (pairs won)"))
    worse = False
    for key in sorted(set(base) & set(new)):
        workload, trace, name = key
        unit, bvals = base[key]
        _, nvals = new[key]
        # Ungated workload figures: rates are better higher, the rest lower.
        better, bound = spec.get(
            name, ("higher" if name.endswith("per_s") else "lower", None))
        v, share = verdict(bvals, nvals, better, bound)
        worse |= v == "worse"
        bq1, bmed, bq3 = quartiles(list(bvals.values()))
        nq1, nmed, nq3 = quartiles(list(nvals.values()))
        change = "%+.1f%%" % ((nmed / bmed - 1) * 100) if bmed else "n/a"
        print("%-18s %-5d %-44s %-34s %-34s %8s  %s (%.0f%%, n=%d/%d)" % (
            workload, trace, "%s [%s]" % (name, unit),
            "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
            "%.4g [%.4g, %.4g]" % (nmed, nq1, nq3), change, v, share * 100,
            len(bvals), len(nvals)))
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        print("%-18s %-5d %-44s only in %s" % (key[0], key[1], key[2], side))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
