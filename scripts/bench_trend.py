#!/usr/bin/env python3
"""Diff two directories of BENCH_*.json artifacts into a markdown table.

Usage: bench_trend.py --current DIR --previous DIR [--threshold PCT]

Emits a GitHub-step-summary-friendly markdown table of per-metric deltas
(current vs previous), one row per (bench, point, metric). Simulation
metrics (latencies, throughputs in simulated time, FCT percentiles) are
machine-independent and compared raw. Wall-clock metrics (wall_ms,
events_per_sec) are normalized by the machine-speed probe recorded in each
run's BENCH_scale.json (machine_probe_events_per_sec) when both sides
carry one; otherwise they are compared raw and flagged.

The probe is the churn loop run on the frozen seed event queue
(bench/common.hpp LegacyEventQueue), so event-core changes do not move
it. Artifacts recorded before that switch ran the probe on the live
sim::EventQueue, which churns ~2x faster than the seed queue, so one diff
against such an artifact reads a probe ratio of ~0.5 and makes every
wall-clock metric look ~2x better than it is. Compare raw, or re-record
the previous side, for that one diff.

Exit code is always 0: the trend is informational — the hard perf gate
lives in bench_scale --gate-baseline. Stdlib only.
"""

import argparse
import json
import pathlib
import sys

# metric name -> True when the metric is wall-clock (machine-dependent).
WALL_METRICS = {"wall_ms", "events_per_sec", "build_ms"}

# Per-bench: how to label a point and which metrics to trend.
BENCH_KEYS = {
    "scale": (("fabric", "hosts", "m"),
              ("wall_ms", "events_per_sec", "latency_us_mean")),
    "streaming_broadcast": (("rig", "rotation", "stream_packets"),
                            ("flits_per_us", "makespan_us", "p99_gap_us")),
    "traffic": (("rig", "ops_per_ms", "policy"),
                ("ops_per_sec", "flits_per_us", "fct_p50_us", "fct_p99_us")),
}


def load_benches(directory):
    """Maps bench name -> parsed JSON for every BENCH_*.json in directory."""
    found = {}
    root = pathlib.Path(directory)
    for path in sorted(root.rglob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"<!-- skipped {path}: {err} -->")
            continue
        name = doc.get("bench")
        if isinstance(name, str):
            found[name] = doc
    return found


def probe_of(benches):
    doc = benches.get("scale", {})
    probe = doc.get("machine_probe_events_per_sec")
    return float(probe) if isinstance(probe, (int, float)) and probe > 0 else None


def point_label(point, keys):
    return "/".join(str(point.get(k, "?")) for k in keys)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True)
    parser.add_argument("--previous", required=True)
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="flag rows whose |delta| exceeds this percent")
    parser.add_argument("--all", action="store_true",
                        help="print every comparison, not just flagged ones")
    args = parser.parse_args()

    cur_benches = load_benches(args.current)
    prev_benches = load_benches(args.previous)
    if not cur_benches or not prev_benches:
        print("### Bench trend\n")
        print("_No comparable bench artifacts on one side; skipping._")
        return 0

    cur_probe = probe_of(cur_benches)
    prev_probe = probe_of(prev_benches)
    normalize = cur_probe is not None and prev_probe is not None
    # Multiplying the previous run's wall-rate metrics by this ratio maps
    # them onto the current machine's speed; wall times divide instead.
    speed_ratio = (cur_probe / prev_probe) if normalize else 1.0

    rows = []
    for name, (keys, metrics) in BENCH_KEYS.items():
        cur_doc = cur_benches.get(name)
        prev_doc = prev_benches.get(name)
        if cur_doc is None or prev_doc is None:
            continue
        prev_points = {point_label(p, keys): p
                       for p in prev_doc.get("points", [])}
        for point in cur_doc.get("points", []):
            label = point_label(point, keys)
            prev_point = prev_points.get(label)
            if prev_point is None:
                continue
            for metric in metrics:
                cur_val = point.get(metric)
                prev_val = prev_point.get(metric)
                if not isinstance(cur_val, (int, float)) or \
                   not isinstance(prev_val, (int, float)):
                    continue
                adj_prev = prev_val
                if metric in WALL_METRICS and normalize:
                    if metric.endswith("_ms"):
                        adj_prev = prev_val / speed_ratio
                    else:
                        adj_prev = prev_val * speed_ratio
                if adj_prev == 0:
                    pct = 0.0 if cur_val == 0 else float("inf")
                else:
                    pct = 100.0 * (cur_val - adj_prev) / abs(adj_prev)
                rows.append((name, label, metric, adj_prev, cur_val, pct))

    print("### Bench trend vs previous main run\n")
    if normalize:
        print(f"_Wall-clock metrics normalized by churn probe ratio "
              f"{speed_ratio:.3f} (current/previous machine speed)._\n")
    else:
        print("_No machine probe on one side: wall-clock deltas are raw "
              "(may reflect runner speed, not code)._\n")

    if not rows:
        print("_No overlapping points between the two runs._")
        return 0

    flagged = [r for r in rows if abs(r[5]) > args.threshold]
    shown = rows if args.all or (not flagged and len(rows) <= 40) else flagged
    if shown:
        print("| bench | point | metric | previous | current | delta |")
        print("|---|---|---|---:|---:|---:|")
        for name, label, metric, adj_prev, cur_val, pct in shown:
            mark = " ⚠" if abs(pct) > args.threshold else ""
            print(f"| {name} | {label} | {metric} | {adj_prev:.3f} | "
                  f"{cur_val:.3f} | {pct:+.1f}%{mark} |")
        print()
    print(f"_{len(rows)} comparisons, {len(flagged)} beyond "
          f"±{args.threshold:.0f}%"
          f"{'' if shown is rows else ' (stable rows hidden)'}._")
    return 0


if __name__ == "__main__":
    sys.exit(main())
