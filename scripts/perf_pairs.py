#!/usr/bin/env python3
"""Alternating base/head perfbench pairs, summarized one way for every claim.

    python3 scripts/perf_pairs.py --base REV --head REV --workload W \\
        --pairs N --seconds S [--seed 7] [--workdir DIR] [--cpus 2,3] \\
        [--expect-sim-change] [--save runs.json]
    python3 scripts/perf_pairs.py --analyze runs.json
    python3 scripts/perf_pairs.py --selftest

Each revision is exported with `git archive` into its own directory under
--workdir and its perfbench/ is built there, each into its own build tree
(CARGO_TARGET_DIR), so neither side sees the other's objects or the
working tree. The pairs then run perfbench/run.py of each export in
turn, base first in even pairs and head first in odd ones, optionally
pinned with `taskset`. perfbench/ itself is only run, never modified.

Per metric it prints the median [Q1, Q3] of each side, the change of the
median, the pairs the head won, a two-sided sign-test p-value and flags:
`bound` when the median moved the worse way past its BENCHMARK.json bound,
`2-mode` when a side's runs fall into two clusters. `sim_*`,
`delivery_ratio`, `ok_ratio` and `sim_digest` are outputs of the model,
not of the host: any difference between runs fails the script (exit 1)
unless --expect-sim-change is given. The table is markdown, ready to
paste into docs/perf.md. Standard library only.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ("delivery_ratio", "ok_ratio")
BUILD_JOBS = 4


def is_exact(metric):
    return metric.startswith("sim_") or metric in EXACT


def load_metric_specs(root):
    """{metric: (better, bound)} from BENCHMARK.json's end-to-end list."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"]}


# ---------------------------------------------------------------- statistics

def quartiles(values):
    """(Q1, median, Q3) by the inclusive method; one value repeats thrice."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]


def sign_test_p(wins, losses):
    """Two-sided exact sign test; ties are dropped beforehand."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def two_modes(values, rel_gap=0.2):
    """True when the sorted runs split at one gap wider than `rel_gap` of
    the median, with at least two runs on each side of it."""
    v = sorted(values)
    med = statistics.median(v)
    if len(v) < 4 or med == 0:
        return False
    for i in range(1, len(v) - 2):
        if (v[i + 1] - v[i]) > rel_gap * abs(med):
            return True
    return False


def summarize(runs, specs):
    """Per-metric rows and the list of model-output mismatches.

    `runs` is a list of pairs {"base": result, "head": result}; a result is
    {"metrics": {name: value}, "sim_digest": str}.
    """
    names = [m for m in specs if all(m in p[s]["metrics"]
                                     for p in runs for s in ("base", "head"))]
    rows = []
    mismatches = []
    for name in names:
        better, bound = specs[name]
        base = [p["base"]["metrics"][name] for p in runs]
        head = [p["head"]["metrics"][name] for p in runs]
        if is_exact(name) and len(set(base + head)) > 1:
            mismatches.append(f"{name}: base {sorted(set(base))} "
                              f"head {sorted(set(head))}")
        wins = losses = 0
        for b, h in zip(base, head):
            if h == b:
                continue
            if (h > b) == (better == "higher"):
                wins += 1
            else:
                losses += 1
        bq = quartiles(base)
        hq = quartiles(head)
        change = (hq[1] - bq[1]) / bq[1] if bq[1] != 0 else 0.0
        worse = change < 0 if better == "higher" else change > 0
        flags = []
        if bound is not None and worse and abs(change) > bound:
            flags.append("bound")
        if two_modes(base) or two_modes(head):
            flags.append("2-mode")
        rows.append({"metric": name, "better": better, "base": bq,
                     "head": hq, "change": change, "wins": wins,
                     "losses": losses, "pairs": len(runs),
                     "p": sign_test_p(wins, losses), "flags": flags})
    digests = {p[s].get("sim_digest") for p in runs for s in ("base", "head")}
    if len(digests) > 1:
        mismatches.append(f"sim_digest: {sorted(d or '-' for d in digests)}")
    return rows, mismatches


def fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 1000:
        return f"{x:,.0f}"
    return f"{x:.4g}"


def table(rows):
    out = ["| metric | base median [Q1, Q3] | head median [Q1, Q3] | change "
           "| head better | sign p | flags |",
           "|---|---|---|---|---|---|---|"]
    for r in rows:
        b, h = r["base"], r["head"]
        out.append(
            f"| {r['metric']} | {fmt(b[1])} [{fmt(b[0])}, {fmt(b[2])}] "
            f"| {fmt(h[1])} [{fmt(h[0])}, {fmt(h[2])}] "
            f"| {100 * r['change']:+.1f}% | {r['wins']}/{r['pairs']} "
            f"| {r['p']:.3g} | {' '.join(r['flags'])} |")
    return "\n".join(out)


def report(doc, specs, expect_sim_change):
    """Prints the table; returns the exit status."""
    rows, mismatches = summarize(doc["runs"], specs)
    print(f"{doc.get('workload', '?')}: base {doc.get('base', '?')} vs head "
          f"{doc.get('head', '?')}, {len(doc['runs'])} pairs of "
          f"{doc.get('seconds', '?')} s")
    print(table(rows))
    if mismatches:
        for m in mismatches:
            print(f"model output differs: {m}")
        if not expect_sim_change:
            return 1
    return 0


# ------------------------------------------------------------------- running

def export(rev, dest):
    """`git archive` of `rev` into `dest` (recreated)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def build(src, out_dir):
    """Configures and builds the export's perfbench as run.py would."""
    os.makedirs(out_dir, exist_ok=True)
    quiet = {"stdout": subprocess.DEVNULL}
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(src, "perfbench"), "-B",
                        out_dir, "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       **quiet)
    subprocess.run(["cmake", "--build", out_dir, "--target",
                    "nimcast_perfbench", "-j", str(BUILD_JOBS)], check=True,
                   **quiet)


def parse_run(stdout):
    """The result of one perfbench run: its metrics and sim_digest."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise RuntimeError("perfbench reported an incorrect run")
    digest = None
    for line in lines:
        if line.startswith("sim_digest "):
            digest = line.split()[1]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "sim_digest": digest, "failed": result.get("failed", 0)}


def run_side(side, args):
    cmd = [sys.executable, os.path.join(side["src"], "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.cpus:
        cmd = ["taskset", "-c", args.cpus] + cmd
    env = dict(os.environ, CARGO_TARGET_DIR=side["build"])
    proc = subprocess.run(cmd, cwd=side["src"], env=env, check=True,
                          capture_output=True, text=True)
    return parse_run(proc.stdout)


def run_pairs(args):
    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_pairs-")
    sides = {}
    for name, rev in (("base", args.base), ("head", args.head)):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
        side = {"rev": sha, "src": os.path.join(workdir, f"{name}-src"),
                "build": os.path.join(workdir, f"{name}-build")}
        print(f"{name}: {rev} = {sha}, building in {side['build']}",
              file=sys.stderr)
        export(rev, side["src"])
        build(side["src"], side["build"])
        sides[name] = side
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "base": sides["base"]["rev"],
           "head": sides["head"]["rev"], "cpus": args.cpus, "runs": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for name in order:
            pair[name] = run_side(sides[name], args)
        doc["runs"].append(pair)
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)
        if args.save:
            with open(args.save, "w") as f:
                json.dump(doc, f, indent=1)
    return doc


# ----------------------------------------------------------------- self-test

def selftest():
    """Checks the statistics and the gates on synthetic run JSON."""
    specs = load_metric_specs(ROOT)
    failures = []

    def check(cond, msg):
        print(("ok   " if cond else "FAIL ") + msg)
        if not cond:
            failures.append(msg)

    check(abs(sign_test_p(9, 1) - 0.021484375) < 1e-12,
          "sign test: 9 of 10 gives p = 22/1024")
    check(sign_test_p(5, 5) == 1.0, "sign test: an even split gives p = 1")
    check(sign_test_p(0, 0) == 1.0, "sign test: no untied pairs gives p = 1")
    check(quartiles([1, 2, 3, 4, 5]) == (2, 3, 4), "quartiles of 1..5")
    check(two_modes([0.040, 0.041, 0.042, 0.060, 0.061, 0.062]),
          "two clusters 0.04/0.06 are flagged")
    check(not two_modes([1.0, 1.01, 1.02, 1.03, 1.05, 1.04]),
          "one cluster is not flagged")

    def result(ops, setup, digest="d1", lat=226.15):
        return {"metrics": {"ops_per_s": ops, "setup_s": setup,
                            "sim_latency_us_p50": lat, "ok_ratio": 1.0,
                            "delivery_ratio": 1.0},
                "sim_digest": digest}

    runs = [{"base": result(100 + i % 3, 0.5),
             "head": result(110 + i % 3, 0.5 if i else 0.9)}
            for i in range(10)]
    rows, mismatches = summarize(runs, specs)
    by = {r["metric"]: r for r in rows}
    check(by["ops_per_s"]["wins"] == 10 and by["ops_per_s"]["p"] < 0.01,
          "a higher-is-better gain wins every pair")
    check(abs(by["ops_per_s"]["change"] - 10 / 101) < 1e-9,
          "median change is 111 over 101")
    check(by["setup_s"]["wins"] == 0 and by["setup_s"]["losses"] == 1,
          "lower-is-better: ties are not counted, a rise is a loss")
    check(not mismatches, "identical model outputs pass")
    check("bound" not in by["setup_s"]["flags"],
          "an unmoved median stays inside its bound")

    slow = [{"base": result(100, 0.5), "head": result(70, 0.5)}
            for _ in range(4)]
    rows, _ = summarize(slow, specs)
    check("bound" in {r["metric"]: r for r in rows}["ops_per_s"]["flags"],
          "a 30% ops_per_s drop is past its 25% bound")

    drift = [dict(p) for p in runs]
    drift[3] = {"base": result(100, 0.5),
                "head": result(100, 0.5, digest="d2", lat=227.0)}
    _, mismatches = summarize(drift, specs)
    check(any(m.startswith("sim_digest") for m in mismatches)
          and any(m.startswith("sim_latency_us_p50") for m in mismatches),
          "a changed sim_digest and sim_* metric are caught")
    doc = {"workload": "synthetic", "runs": drift}
    with open(os.devnull, "w") as devnull:
        saved, sys.stdout = sys.stdout, devnull
        try:
            strict = report(doc, specs, expect_sim_change=False)
            allowed = report(doc, specs, expect_sim_change=True)
        finally:
            sys.stdout = saved
    check(strict == 1 and allowed == 0,
          "model drift fails unless --expect-sim-change")
    check(len(table(summarize(runs, specs)[0]).splitlines()) == 2 + 5,
          "one table row per metric present on both sides")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base")
    parser.add_argument("--head")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workdir",
                        help="exports and build trees (default: a new "
                             "temporary directory)")
    parser.add_argument("--cpus", help="pin every run with taskset -c CPUS")
    parser.add_argument("--expect-sim-change", action="store_true")
    parser.add_argument("--save", help="write the raw runs here as JSON")
    parser.add_argument("--analyze", help="summarize saved runs instead")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    specs = load_metric_specs(ROOT)
    if args.analyze:
        with open(args.analyze) as f:
            doc = json.load(f)
    else:
        if not (args.base and args.head and args.workload):
            parser.error("--base, --head and --workload are required")
        doc = run_pairs(args)
    return report(doc, specs, args.expect_sim_change)


if __name__ == "__main__":
    sys.exit(main())
