#!/usr/bin/env python3
"""Paired parent/change comparison of the end-to-end benchmark.

Usage:
    bench_pairs.py [--parent REV] [--pairs N] [--workloads W,...]
                   [--seed N] [--json OUT]

Exports commit REV (default `HEAD~1`; pass `--parent HEAD` to compare
uncommitted work against the last commit) with `git archive` into a
temporary directory, builds the benchmark there and in this working tree,
then runs N alternating pairs per workload: the parent goes first in
even pairs and the change first in odd ones, so slow drift of the host
hits both sides alike. Every run is the command `BENCHMARK.json`
declares, launched from the root of its own checkout with
`--workload W --seed S --seconds T --trace 0`, with T the benchmark's
`run_seconds`; its last stdout line is the JSON record the statistics
are read from.

For every end-to-end metric `BENCHMARK.json` lists, the report gives the
parent's and the change's median and quartiles, the ratio of the
medians, how many pairs the change won (by the metric's own direction),
whether the median gap exceeds the parent's interquartile spread, and
whether the change's median stays inside the metric's regression bound.

`--json` also writes every raw run and the summary to a file.

Exit status: 0 when every metric on every workload stays inside its
bound and every run verified, 1 otherwise, 2 on usage or build errors.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def export_commit(rev, dest):
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    )
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def build(root, command):
    """Builds the benchmark binary: the declared command without its
    trailing `--` separator, with `run` swapped for `build`."""
    args = list(command)
    if "--" in args:
        args = args[: args.index("--")]
    args[args.index("run")] = "build"
    print(f"building in {root}: {' '.join(args)}", file=sys.stderr)
    subprocess.run(args, cwd=root, check=True)


def run_once(root, command, workload, seed, seconds):
    args = list(command) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(args, cwd=root, check=True, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(f"no JSON record from {workload} in {root}")
    record = json.loads(lines[-1])
    return {name: m["value"] for name, m in record["metrics"].items()}, record


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, parent, change):
    higher = metric["better"] == "higher"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    gap = (cm - pm) if higher else (pm - cm)
    # The worst the change's median may be, relative to the parent's.
    limit = pm * (1 - metric["bound"]) if higher else pm * (1 + metric["bound"])
    inside = cm >= limit if higher else cm <= limit
    return {
        "metric": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "ratio": cm / pm if pm else float("nan"),
        "wins": wins,
        "pairs": len(parent),
        "gap_exceeds_parent_iqr": gap > (p3 - p1),
        "inside_bound": inside,
    }


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    bench = load_benchmark(ROOT)
    command = bench["command"]
    seconds = bench["run_seconds"]
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = [w for w in workloads if w not in known]
    if unknown or args.pairs < 1:
        ap.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")

    parent_root = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        export_commit(args.parent, parent_root)
        build(parent_root, command)
        build(ROOT, command)
    except (subprocess.CalledProcessError, KeyError, ValueError) as e:
        print(f"bench_pairs: build failed: {e}", file=sys.stderr)
        shutil.rmtree(parent_root, ignore_errors=True)
        return 2

    sides = {"parent": parent_root, "change": ROOT}
    report = {"parent": args.parent, "seed": args.seed, "seconds": seconds,
              "pairs": args.pairs, "workloads": {}}
    ok = True
    try:
        for w in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    values, record = run_once(sides[side], command, w, args.seed, seconds)
                    ok &= bool(record.get("correct", False))
                    runs[side].append(values)
                print(f"{w}: pair {i + 1}/{args.pairs} cells_per_s "
                      f"parent={fmt(runs['parent'][-1].get('cells_per_s', 0))} "
                      f"change={fmt(runs['change'][-1].get('cells_per_s', 0))}",
                      file=sys.stderr)
            rows = []
            print(f"\n{w} ({args.pairs} pairs, seed {args.seed}, {seconds} s)")
            print(f"  {'metric':<20} {'parent median [q1, q3]':<40} "
                  f"{'change median [q1, q3]':<40} {'ratio':>7} {'wins':>6}  gap>IQR  bound")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                parent = [r[name] for r in runs["parent"] if name in r]
                change = [r[name] for r in runs["change"] if name in r]
                if len(parent) != args.pairs or len(change) != args.pairs:
                    print(f"  {name:<20} missing from some runs")
                    ok = False
                    continue
                row = summarize(metric, parent, change)
                rows.append(row)
                ok &= row["inside_bound"]
                p, c = row["parent"], row["change"]
                print(f"  {name:<20} "
                      f"{fmt(p['median']) + ' [' + fmt(p['q1']) + ', ' + fmt(p['q3']) + ']':<40} "
                      f"{fmt(c['median']) + ' [' + fmt(c['q1']) + ', ' + fmt(c['q3']) + ']':<40} "
                      f"{row['ratio']:>7.3f} {row['wins']:>3}/{row['pairs']:<2}  "
                      f"{'yes' if row['gap_exceeds_parent_iqr'] else 'no':<7}  "
                      f"{'ok' if row['inside_bound'] else 'WORSE'}")
            report["workloads"][w] = {"runs": runs, "summary": rows}
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
