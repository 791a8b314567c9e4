#!/usr/bin/env python3
"""Compare two hap.bench.result/v1 documents (bench/solver_continuation or
bench/sim_throughput) and flag deterministic regressions.

Iteration counts are deterministic (no timing, no threading), so the
comparison is exact arithmetic on the recorded sweep counts: a point
regresses when its current count exceeds the baseline by more than
--max-regress (relative) AND --min-slack (absolute; absorbs the
check-interval quantization, where a count can only move in steps of
check_every/2 = 5 sweeps). Wall-clock-derived fields (sweep_s,
states_per_sec) are reported informationally but never gate: they move with
the machine, not the code.

Simulator-throughput documents gate on per-point `events`: the event engines
are draw-for-draw deterministic, so ANY change in a point's event count is a
draw-sequence break (or an intentional semantics change that must re-baseline
bench/BENCH_sim.json), never machine noise — the comparison is exact, with no
slack. `events_per_sec` and `wall_s` are informational, like every other
wall-clock field.

usage: bench_compare.py BASELINE CURRENT [--max-regress 0.10] [--min-slack 10]
                        [--allow-missing]

Exit status: 0 = no regressions, 1 = regressions found, 2 = unusable input
(missing file, bad JSON, wrong schema, malformed points). --allow-missing
downgrades a missing BASELINE to a note + exit 0, for benches that have no
recorded baseline yet. CI runs the solver comparison with continue-on-error,
so a red result annotates the run without gating the merge; the simulator
comparison gates, because its event counts are exact.
"""

import argparse
import json
import sys

SCHEMA = "hap.bench.result/v1"


def die(message):
    """Unusable input: clear one-line message on stderr, exit 2 (never a
    traceback)."""
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(path, allow_missing=False):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        if allow_missing:
            return None
        die(f"cannot read {path}: file not found "
            f"(use --allow-missing for a bench with no baseline yet)")
    except (OSError, ValueError) as err:
        die(f"cannot read {path}: {err}")
    if not isinstance(doc, dict):
        die(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        die(f"{path}: expected schema {SCHEMA!r}, got {doc.get('schema')!r}")
    return doc


def points_by_label(doc, path):
    points = doc.get("points", [])
    if not isinstance(points, list):
        die(f"{path}: \"points\" is not an array")
    out = {}
    for i, p in enumerate(points):
        if not isinstance(p, dict) or not isinstance(p.get("label"), str):
            die(f"{path}: points[{i}] has no string \"label\"")
        out[p["label"]] = p
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regress", type=float, default=0.10,
                    help="relative iteration-count increase that counts as a "
                         "regression (default 0.10 = 10%%)")
    ap.add_argument("--min-slack", type=float, default=10,
                    help="absolute sweep-count increase always tolerated "
                         "(default 10, one check interval)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="treat a missing BASELINE file as \"new bench, "
                         "nothing to compare\" and exit 0")
    args = ap.parse_args()

    base = load(args.baseline, allow_missing=args.allow_missing)
    if base is None:
        print(f"baseline {args.baseline} missing; new bench, nothing to "
              f"compare (--allow-missing)")
        return 0
    cur = load(args.current)

    if base.get("warm_enabled") != cur.get("warm_enabled"):
        sys.exit("bench_compare: baseline and current ran with different "
                 "HAP_BENCH_WARM settings; the comparison is meaningless")

    regressions = []
    improvements = []

    def check(label, field, old, new):
        # Tolerate malformed/missing fields (a truncated run, a hand-edited
        # doc): skip them rather than die on a TypeError mid-comparison.
        if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
            return
        if new > old + max(args.min_slack, args.max_regress * old):
            regressions.append((label, field, old, new))
        elif new < old:
            improvements.append((label, field, old, new))

    for field in ("iterations_cold", "iterations_warm"):
        check("<total>", field, base.get(field), cur.get(field))

    base_pts = points_by_label(base, args.baseline)
    cur_pts = points_by_label(cur, args.current)
    shared = sorted(base_pts.keys() & cur_pts.keys())
    for label in shared:
        for field in ("cold_sweeps", "warm_sweeps"):
            check(label, field, base_pts[label].get(field),
                  cur_pts[label].get(field))
        # Simulator lanes: event counts are deterministic given the seeds, so
        # the gate is exact equality — a drifted count means the draw
        # sequence changed, which is a correctness break until the baseline
        # is deliberately re-baselined.
        e_old = base_pts[label].get("events")
        e_new = cur_pts[label].get("events")
        if (isinstance(e_old, (int, float)) and isinstance(e_new, (int, float))
                and e_old != e_new):
            regressions.append((label, "events", e_old, e_new))
    for label in sorted(base_pts.keys() - cur_pts.keys()):
        print(f"note: point {label} present only in baseline (grid changed?)")
    for label in sorted(cur_pts.keys() - base_pts.keys()):
        print(f"note: point {label} present only in current (grid changed?)")

    ratio_old = base.get("iteration_ratio")
    ratio_new = cur.get("iteration_ratio")
    if isinstance(ratio_old, (int, float)) and isinstance(ratio_new, (int, float)):
        print(f"iteration ratio: baseline {ratio_old:.2f}x -> "
              f"current {ratio_new:.2f}x")

    # Sweep-kernel throughput, informational only: wall-clock numbers track
    # the machine as much as the code, so they annotate but never gate.
    sps_old = base.get("states_per_sec")
    sps_new = cur.get("states_per_sec")
    if isinstance(sps_new, (int, float)) and sps_new > 0:
        if isinstance(sps_old, (int, float)) and sps_old > 0:
            print(f"sweep throughput (informational): baseline "
                  f"{sps_old:.3g} -> current {sps_new:.3g} states/sec "
                  f"({sps_new / sps_old:.2f}x)")
        else:
            print(f"sweep throughput (informational): {sps_new:.3g} states/sec")
    timed = [label for label in shared
             if isinstance(cur_pts[label].get("sweep_s"), (int, float))]
    if timed:
        total = sum(cur_pts[label]["sweep_s"] for label in timed)
        print(f"per-point sweep timings (informational): {len(timed)} points, "
              f"{total:.3f} s total in kernels")

    # Simulator throughput, informational only (same policy as the sweep
    # kernel: wall clock annotates, never gates).
    eps_old = base.get("events_per_sec")
    eps_new = cur.get("events_per_sec")
    if isinstance(eps_new, (int, float)) and eps_new > 0:
        ref = cur.get("ref_label", "reference lane")
        if isinstance(eps_old, (int, float)) and eps_old > 0:
            print(f"sim throughput (informational, {ref}): baseline "
                  f"{eps_old:.3g} -> current {eps_new:.3g} events/sec "
                  f"({eps_new / eps_old:.2f}x)")
        else:
            print(f"sim throughput (informational, {ref}): "
                  f"{eps_new:.3g} events/sec")
    for label in shared:
        po, pn = base_pts[label].get("events_per_sec"), \
            cur_pts[label].get("events_per_sec")
        if isinstance(po, (int, float)) and isinstance(pn, (int, float)) \
                and po > 0 and pn > 0:
            print(f"  {label:24s} {po:10.3g} -> {pn:10.3g} events/sec "
                  f"({pn / po:.2f}x, informational)")

    # Service-load lanes (bench/hapd_load), informational only: latency
    # percentiles and the shed/approx/clamped split move with scheduling on a
    # deliberately saturated 2-worker daemon, so nothing here gates — the
    # chaos suite (tests/chaos_test.cpp) pins the exact overload accounting.
    p50_old, p50_new = base.get("p50_ms_1x"), cur.get("p50_ms_1x")
    if isinstance(p50_new, (int, float)) and p50_new > 0:
        ref = cur.get("ref_label", "load_1x")
        if isinstance(p50_old, (int, float)) and p50_old > 0:
            print(f"service latency (informational, {ref}): baseline p50 "
                  f"{p50_old:.3g} -> current {p50_new:.3g} ms "
                  f"({p50_new / p50_old:.2f}x)")
        else:
            print(f"service latency (informational, {ref}): "
                  f"p50 {p50_new:.3g} ms")
        for label in shared:
            pn = cur_pts[label]
            if not isinstance(pn.get("p99_ms"), (int, float)):
                continue
            rates = "/".join(
                f"{100.0 * pn[f]:.0f}" if isinstance(pn.get(f), (int, float))
                else "?"
                for f in ("shed_rate", "approx_rate", "clamped_rate"))
            print(f"  {label:24s} p50 {pn.get('p50_ms', 0):8.1f} ms  "
                  f"p99 {pn.get('p99_ms', 0):8.1f} ms  "
                  f"shed/approx/clamped {rates}% (informational)")

    if improvements:
        print(f"\n{len(improvements)} improvement(s):")
        for label, field, old, new in improvements:
            print(f"  {label:24s} {field:16s} {old:8.0f} -> {new:8.0f}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) "
              f"(> {args.max_regress:.0%} and > {args.min_slack:g} sweeps):")
        for label, field, old, new in regressions:
            pct = 100.0 * (new - old) / old if old else float("inf")
            print(f"  {label:24s} {field:16s} {old:8.0f} -> {new:8.0f} "
                  f"(+{pct:.1f}%)")
        return 1

    print(f"\nno regressions across {len(shared)} shared points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
