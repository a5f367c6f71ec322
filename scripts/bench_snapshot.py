#!/usr/bin/env python3
"""Perf-trajectory snapshot: one BENCH_<sha>.json per measured checkout.

    python3 scripts/bench_snapshot.py CHECKOUT...

Runs e2e_bench/run.py of each CHECKOUT (a git work tree of jQoS) on every
workload BENCHMARK.json lists, for 10 rounds. One round runs, per workload
and per checkout, `run.py --trace 0 --seconds S` with S the BENCHMARK.json
run_seconds (end-to-end metrics) and `run.py --trace 1 --seconds 0`
(per-layer metrics, the minimum run count). Checkouts are interleaved within
each round and their order alternates from round to round, so drift of a
shared machine hits every side alike.

Each round's run.py medians are one sample. The snapshot gives, for every
metric, the median over rounds and the inter-quartile distance over that
median, plus the machine (nproc, CPU model, compiler, build type) that
run.py reports. It is written at the repository root as BENCH_<sha>.json,
where <sha> is the checkout's short HEAD commit. A tree with uncommitted
changes is written as BENCH_<sha>-dirty.json and its "commit" field reads
"<HEAD sha>+uncommitted": it measures HEAD plus the working-tree diff, which
is the tree of the commit that checks the file in.

Exits non-zero if any run.py invocation fails or reports incorrect output.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 10  # interleaved samples per metric
HEADER = re.compile(r"# threads=.* nproc=(\d+) cpu='(.*)' compiler=(\S+) build=(\S+) ")


def git(checkout, *args):
    done = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def describe(checkout):
    """The snapshot name and the "commit" field of a checkout's tree."""
    sha = git(checkout, "rev-parse", "HEAD")
    if sha is None:
        sys.exit(f"{checkout} is not a git work tree")
    if git(checkout, "status", "--porcelain", "--untracked-files=no"):
        return sha[:7] + "-dirty", sha + "+uncommitted"
    return sha[:7], sha


def run_bench(checkout, workload, trace, seconds):
    """One run.py invocation: its result line and the machine it reported."""
    cmd = [sys.executable, os.path.join(checkout, "e2e_bench", "run.py"), "--workload",
           workload, "--trace", str(trace), "--seconds", str(seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(cmd)} gave no result line:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stdout}{done.stderr}")
    machine = None
    for line in lines:
        m = HEADER.match(line)
        if m:
            machine = {"nproc": int(m.group(1)), "cpu_model": m.group(2),
                       "compiler": m.group(3), "build_type": m.group(4)}
    return result, machine


def summarize(samples):
    """Median over rounds and inter-quartile distance / median."""
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
    return {"median": med, "iqr_over_median": 0.0 if med == 0 else (q3 - q1) / abs(med),
            "samples": samples}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]

    sides = []
    for path in map(os.path.abspath, args.checkouts):
        name, commit = describe(path)
        sides.append({"path": path, "name": name, "commit": commit, "machine": None,
                      "runs": {w: {0: [], 1: []} for w in workloads}})

    for r in range(ROUNDS):
        order = sides if r % 2 == 0 else sides[::-1]
        for workload in workloads:
            for side in order:
                for trace, secs in ((0, seconds), (1, 0)):
                    result, machine = run_bench(side["path"], workload, trace, secs)
                    side["machine"] = side["machine"] or machine
                    side["runs"][workload][trace].append(result["metrics"])
                print(f"round {r + 1}/{ROUNDS} {workload} {side['name']}: events_per_s "
                      f"{side['runs'][workload][0][-1]['events_per_s']['value']:.4g}",
                      flush=True)

    for side in sides:
        table = {}
        for workload in workloads:
            row = {}
            for trace, names in ((0, e2e_names), (1, layer_names)):
                rounds = side["runs"][workload][trace]
                row["end_to_end" if trace == 0 else "per_layer"] = {
                    name: dict(summarize([m[name]["value"] for m in rounds]),
                               unit=rounds[0][name]["unit"])
                    for name in names if name in rounds[0]}
            table[workload] = row
        snap = {
            "name": side["name"],
            "commit": side["commit"],
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "machine": side["machine"],
            "method": {"rounds": ROUNDS, "seconds": seconds,
                       "interleaved_with": [s["name"] for s in sides if s is not side],
                       "sample": "one run.py median per round; trace 1 at its minimum "
                                 "run count"},
            "workloads": table,
        }
        out = os.path.join(ROOT, f"BENCH_{side['name']}.json")
        with open(out, "w") as f:
            json.dump(snap, f, indent=1, sort_keys=False)
            f.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
