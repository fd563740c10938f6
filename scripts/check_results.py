#!/usr/bin/env python3
"""Byte-identity oracle for results/: rerun every bench and compare.

Usage: check_results.py [--build-dir DIR] [--update]

Every file in results/ is produced by one bench binary run in one mode:
full (the recorded sweep) or quick (NIMCAST_QUICK=1). The RECIPES table
below records, per bench, the mode, the arguments and the files the run
writes. The script reruns each bench from --build-dir (default: build) in
a scratch directory, masks the "git_rev" provenance field of JSON outputs
and compares each output byte for byte against its results/ copy. Any
difference fails the check and prints a short diff.

--update rewrites the results/ files from the fresh runs instead of
comparing (review the git diff afterwards). The whole list takes well
under a minute on a Release build.

Files whose content is wall time (EXCLUDED) are never compared. A file in
results/ that no recipe produces and EXCLUDED does not name is an error:
record how to regenerate it before committing it.

The simulated outputs do not depend on NIMCAST_THREADS, so the caller may
set it; every other NIMCAST_* variable is cleared for the runs. Exit code
0 when everything matched (or was updated), 1 otherwise. Stdlib only.
"""

import argparse
import difflib
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

# (bench binary, mode, extra args, outputs).
RECIPES = [
    ("bench_fig4_smart_vs_conventional", "full", [],
     ["fig4_m1.csv", "fig4_m4.csv"]),
    ("bench_fig5_binomial_not_optimal", "full", [], ["fig5_plane.csv"]),
    ("bench_fig13_kbinomial_latency", "full", [],
     ["fig13a.csv", "fig13b.csv"]),
    ("bench_fig14_kbinomial_vs_binomial", "full", [],
     ["fig14a.csv", "fig14b.csv"]),
    ("bench_theorem_pipeline", "full", [], ["theorem_pipeline.csv"]),
    ("bench_buffer_fcfs_vs_fpfs", "full", [], ["buffer_fcfs_vs_fpfs.csv"]),
    ("bench_ablation_fcfs_fpfs_latency", "full", [],
     ["ablation_fcfs_fpfs_binomial.csv", "ablation_fcfs_fpfs_opt.csv"]),
    ("bench_ablation_ordering", "full", [], ["ablation_ordering.csv"]),
    ("bench_ablation_calibrated_k", "full", [], ["ablation_calibrated_k.csv"]),
    ("bench_ablation_packet_size", "full", [], ["ablation_packet_size.csv"]),
    ("bench_ablation_multipath", "full", [], ["ablation_multipath.csv"]),
    ("bench_ablation_multi_engine", "full", [],
     ["ablation_multi_engine.csv"]),
    ("bench_multiple_multicast", "full", [], ["multiple_multicast.csv"]),
    ("bench_reliability", "full", [], ["reliability.csv"]),
    ("bench_fault_tolerance", "full", [],
     ["fault_tolerance.csv", "BENCH_faults.json"]),
    ("bench_collectives", "full", [],
     ["collectives_reduce.csv", "collective_faults.csv",
      "BENCH_collective_faults.json"]),
    ("bench_chaos", "full", [], ["chaos.csv", "BENCH_chaos.json"]),
    ("bench_streaming_broadcast", "quick", [], ["BENCH_streaming.json"]),
    ("bench_traffic", "full", [], ["BENCH_traffic.json"]),
]

# results/ files that record wall time, not simulated behaviour.
EXCLUDED = {
    "BENCH_scale.json": "bench_scale: wall time, events/sec and speedups",
    "BENCH_sim_core.json": "bench_sim_core_throughput: events/sec and wall "
                           "time",
}

GIT_REV = re.compile(rb'"git_rev": "[^"]*"')


def masked(data):
    """The bytes with every JSON git_rev value replaced by a fixed mark."""
    return GIT_REV.sub(b'"git_rev": "*"', data)


def bench_env(mode, workdir, json_out):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NIMCAST_") or k == "NIMCAST_THREADS"}
    if mode == "quick":
        env["NIMCAST_QUICK"] = "1"
    if json_out is not None:
        env["NIMCAST_BENCH_OUT"] = str(workdir / json_out)
    return env


def run_recipe(binary, mode, args, outputs, workdir):
    """Runs one bench in workdir; returns (ok, message)."""
    jsons = [o for o in outputs if o.endswith(".json")]
    if len(jsons) > 1:
        return False, "recipe lists more than one JSON output"
    env = bench_env(mode, workdir, jsons[0] if jsons else None)
    start = time.monotonic()
    proc = subprocess.run([str(binary), *args], cwd=workdir, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          check=False)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        tail = proc.stdout.decode(errors="replace").splitlines()[-20:]
        return False, (f"exit code {proc.returncode} after {elapsed:.1f} s:\n"
                       + "\n".join(tail))
    return True, f"{elapsed:.1f} s"


def compare(name, fresh, recorded):
    """None when equal after masking, else a short unified diff."""
    a = masked(recorded)
    b = masked(fresh)
    if a == b:
        return None
    diff = difflib.unified_diff(
        a.decode(errors="replace").splitlines(),
        b.decode(errors="replace").splitlines(),
        fromfile=f"results/{name}", tofile=f"rerun/{name}", lineterm="", n=1)
    lines = list(diff)
    if len(lines) > 40:
        lines = lines[:40] + [f"... ({len(lines) - 40} more diff lines)"]
    return "\n".join(lines)


def main():
    repo = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=str(repo / "build"),
                        help="CMake build tree holding bench/ (default: "
                             "build)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite results/ from the reruns")
    opts = parser.parse_args()

    results = repo / "results"
    bench_dir = pathlib.Path(opts.build_dir).resolve() / "bench"
    failures = []

    produced = {o for (_, _, _, outs) in RECIPES for o in outs}
    for path in sorted(results.iterdir()):
        if path.name not in produced and path.name not in EXCLUDED:
            failures.append(f"results/{path.name}: no recipe produces it")
    for name in sorted(produced):
        if not (results / name).is_file():
            failures.append(f"results/{name}: listed in a recipe but missing")

    scratch = tempfile.TemporaryDirectory(prefix="check_results_")
    root = pathlib.Path(scratch.name)
    for binary, mode, args, outputs in RECIPES:
        exe = bench_dir / binary
        if not exe.is_file():
            failures.append(f"{binary}: not built ({exe})")
            print(f"MISSING {binary}", flush=True)
            continue
        workdir = root / binary
        workdir.mkdir(parents=True, exist_ok=True)
        ok, message = run_recipe(exe, mode, args, outputs, workdir)
        if not ok:
            failures.append(f"{binary} ({mode}): {message}")
            print(f"FAIL    {binary} ({mode}): {message}", flush=True)
            continue
        status = []
        for name in outputs:
            fresh_path = workdir / name
            if not fresh_path.is_file():
                failures.append(f"{binary}: did not write {name}")
                status.append(f"{name} not written")
                continue
            fresh = fresh_path.read_bytes()
            if opts.update:
                recorded_path = results / name
                old = (recorded_path.read_bytes()
                       if recorded_path.is_file() else b"")
                if masked(old) != masked(fresh):
                    recorded_path.write_bytes(fresh)
                    status.append(f"{name} updated")
                continue
            diff = compare(name, fresh, (results / name).read_bytes())
            if diff is not None:
                failures.append(f"{binary} ({mode}): {name} differs\n{diff}")
                status.append(f"{name} DIFFERS")
        verdict = "FAIL  " if any("DIFFERS" in s or "not written" in s
                                  for s in status) else "ok    "
        detail = "; ".join(status) if status else "identical"
        print(f"{verdict}  {binary} ({mode}, {message}): {detail}",
              flush=True)

    for name, why in sorted(EXCLUDED.items()):
        print(f"skip    {name}: {why}")
    if failures:
        print(f"\n{len(failures)} problem(s):", file=sys.stderr)
        for f in failures:
            print(f"- {f}", file=sys.stderr)
        return 1
    print("\nall results reproduce" if not opts.update
          else "\nresults updated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
