#!/usr/bin/env python3
"""The repo benchmark: one command for every workload in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (which compiles the
repo's src/ with the root build's optimisation flags) under .bench_build/,
runs one workload for about S seconds of measurement, checks the outputs,
and prints every metric by name with its unit and sample count. The last
line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
all measured with tracing off. With --trace 1 they are the per-layer metrics:
the run also makes one traced pass and takes the per-layer probes, prints a
per-layer self-time table and writes the spans to
.bench_build/perfbench/work/<workload>/spans-<workload>.jsonl.

Exact counts (events, sweeps, box growths, GS iterations, replications,
requests per phase) and output digests are kept per (workload, seed, S) in
.bench_build/perfbench/ledger/; a run whose counts differ from an earlier
run on the same seed fails, because the draw sequence or the semantics
changed. Any failed output check makes "correct" false and the exit code 1.
Without the repo's sources the build fails and the command exits 2 without
printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
BUILD = OUT / "build"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"no repo sources at {ROOT / 'src'}; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return BUILD / "hapbench"


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_ledger(workload, seed, seconds, ledger):
    """Compare exact counts with earlier runs on this seed (and run length,
    which sets some phase sizes); record new ones."""
    path = OUT / "ledger" / f"{workload}-seed{seed}-{seconds:g}s.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = {}
    if path.exists():
        with open(path) as f:
            known = json.load(f)
    drift = [f"{k}: {known[k]} -> {v}" for k, v in sorted(ledger.items())
             if k in known and known[k] != v]
    if not drift:
        known.update(ledger)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return drift


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; known: {', '.join(names)}")
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report_path = work / "report.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--report", str(report_path), "--workdir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not report_path.exists():
        fail(f"hapbench exited with {proc.returncode}", 1)
    with open(report_path) as f:
        rep = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = rep["layer"] if args.trace else rep["e2e"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    drift = check_ledger(args.workload, args.seed, args.seconds, rep["ledger"])
    checks_ok = all(c["ok"] for c in rep["checks"].values())
    correct = checks_ok and not drift

    if args.trace:
        # Times also as multiples of the calibration lane's uniform draw
        # (informational, for comparing machines; never gated).
        to_ns = {"s": 1e9, "ms": 1e6, "us": 1e3, "ns": 1.0}
        lane = rep["calib"]["uniform_ns"]
        print(f"\n{'per-layer metric':40s} {'value':>16s} {'unit':6s} {'samples':>8s} "
              f"{'x calib.uniform':>16s}")
        for m in spec["per_layer"]:
            got = rep["layer"][m["name"]]
            ratio = (f"{got['value'] * to_ns[got['unit']] / lane:16.6g}"
                     if got["unit"] in to_ns else "")
            print(f"{m['name']:40s} {got['value']:16.6g} {got['unit']:6s} {got['n']:8d} {ratio}")
    for name, text in sorted(rep["notes"].items()):
        print(f"note {name}: {text}")
    for line in drift:
        print(f"LEDGER DRIFT {line}")
    print(f"\nperfbench {args.workload} seed={args.seed}: "
          f"{'correct' if correct else 'INCORRECT'}")

    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
