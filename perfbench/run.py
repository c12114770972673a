#!/usr/bin/env python3
"""Gleambook end-to-end benchmark: build, run one workload, report.

Run from the root of an asterix-lite checkout:

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into the directory
named by $CARGO_TARGET_DIR, or .bench_build/, runs the gleambench driver,
and prints its human-readable report followed by one JSON line with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The full report, with the
host fingerprint, every metric's sample count and the span summary, is
appended to .bench_out/reports.jsonl (or --report PATH); the traced run's
spans are written to .bench_out/trace-<workload>-seed<N>.json. Exits 0 only
when every answer the workload checked was right.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("point_mix", "scan_analytics", "ingest_with_reads")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def tree_sha256(paths):
    """Hash of every regular file under `paths` (names and contents)."""
    h = hashlib.sha256()
    files = []
    for top in paths:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        if os.path.islink(path) or not os.path.isfile(path):
            continue
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_logged(cmd, timeout):
    """Runs `cmd` with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", "perfbench", "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], BUILD_TIMEOUT_S)
        if rc != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", build_dir, "-j", jobs],
                  BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "gleambench")
    if not os.path.isfile(binary):
        fail("build produced no gleambench binary")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--report", default=os.path.join(".bench_out",
                                                     "reports.jsonl"),
                    help="JSON-lines file the full report is appended to")
    ap.add_argument("--guard-authors", type=int, choices=(0, 1), default=1,
                    help="point_mix: 0 lets a lookup overlap an UPSERT of "
                    "the same author's messages, which reproduces the "
                    "secondary-index defect described in README.md")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(needed + " not found: run from the root of an asterix-lite "
                 "checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)

    os.makedirs(".bench_out", exist_ok=True)
    data_dir = os.path.join(".bench_data",
                            "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", data_dir, "--guard-authors", str(args.guard_authors)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ".bench_out", "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("gleambench did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("GB_REPORT "):
            report = json.loads(line[len("GB_REPORT "):])
        else:
            print(line)
    if report is None:
        fail("gleambench exited with %d and no report" % proc.returncode)

    report["host"] = {
        "nproc": os.cpu_count(),
        "compiler": report.pop("compiler"),
        "build_type": report.pop("build_type"),
        "bench_sha256": tree_sha256(["perfbench"]),
    }
    report["git_commit"] = git_commit()
    report["source_sha256"] = tree_sha256(["src"])
    with open(args.report, "a") as f:
        f.write(json.dumps(report, sort_keys=True) + "\n")

    print("host: nproc %(nproc)s, %(compiler)s, %(build_type)s" %
          report["host"] + "; commit " + report["git_commit"])
    result = {
        "correct": bool(report["correct"]) and proc.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
