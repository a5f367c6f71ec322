#!/usr/bin/env python3
"""End-to-end benchmark of the jQoS stack.

    python3 e2e_bench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark (CMake, Release, into .bench_build/ at the repository
root), then runs the workload as repeated short runs, each in its own process,
until --seconds have passed. Every run is checked (packet conservation, flow
leaks, repeat determinism, traced == untraced fingerprints, pinned
configuration). The report ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero, without a result line, when the program cannot be built, and
with correct=false when a check fails. See NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "jqos_e2e")

# Workload -> (default seed, thread policy). "one" workloads are a single
# (DC1, DC2) group and run on one thread; "all" workloads use every core.
WORKLOADS = {
    "hub_coded": (43, "one"),
    "wan45_sharded": (42, "all"),
    "churn_web": (42, "all"),
    "hub_switch": (43, "one"),
}

# End-to-end metrics reported with --trace 0, in BENCHMARK.json order.
END_TO_END = [
    ("events_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cloud_bytes_pct", "%"),
    ("completion_p50_ms", "ms"),
    ("completion_p99_ms", "ms"),
]
# Modelled outcomes whose spread across seeds is far wider than any bound
# (see NOTES.md): printed with every run, reported as per-layer metrics.
OUTCOMES = [
    ("recovered_pct", "%"),
    ("lost_pct", "%"),
    ("recovery_p50_ms", "ms"),
    ("recovery_tail_ms", "ms"),
]

# Per-layer metrics reported with --trace 1.
_CLASS_UNITS = [("calls", "count"), ("busy_s", "s"), ("ns", "ns")]
PER_LAYER = (
    [(f"dc.{c}.{f}", u) for c in ("data", "coded", "nack", "coop") for f, u in _CLASS_UNITS]
    + [
        ("enc.coded_per_data", "ratio"),
        ("enc.timer_flushes", "count"),
        ("enc.flow_departures", "count"),
        ("dc2.batches_stored", "count"),
        ("dc2.batches_expired", "count"),
        ("dc2.recovered_sent", "count"),
        ("dc2.coop_success_ratio", "ratio"),
        ("dc2.batch_use_ratio", "ratio"),
    ]
    + [
        (f"receiver.{c}.{f}", u)
        for c in ("data", "recovered", "coop_request", "nack_check")
        for f, u in _CLASS_UNITS
    ]
    + [
        ("receiver.nack_useful_ratio", "ratio"),
        ("netsim.events_per_packet", "events/packet"),
        ("netsim.residual_ns_per_event", "ns/event"),
    ]
    + [
        (f"link.{r}.{f}", u)
        for r in ("direct", "cloud")
        for f, u in (("offered", "packets"), ("loss_drops", "packets"),
                     ("queue_drops", "packets"), ("delivered_bytes", "B"))
    ]
    + [
        ("pool.hit_ratio", "ratio"),
        ("pool.high_water", "packets"),
        ("allocs_per_packet", "allocs/packet"),
        ("fec.bytes_coded", "B"),
        ("exp.shard_build_s", "s"),
        ("exp.shard_events_max_over_mean", "ratio"),
        ("exp.critical_path_s", "s"),
        ("exp.parallel_efficiency", "ratio"),
        ("geo.paths_s", "s"),
        ("churn.sessions_opened", "count"),
        ("churn.leaked_flows", "count"),
        ("recovery.tail_percentile", "percentile"),
        ("recovery.samples", "count"),
        ("trace_overhead_pct", "%"),
    ]
    + OUTCOMES
)

# Distinct seeds per run: run i uses sub-seed i mod SUB_SEEDS, so once the
# cycle wraps every later run repeats an earlier one exactly.
SUB_SEEDS = 8
MIN_RUNS = {0: SUB_SEEDS + 1, 1: 3}
# A run starts no new process after this long, whatever its budget, and no
# process may take longer than RUN_TIMEOUT_S: the whole run ends within 180 s.
HARD_STOP_S = 110.0
RUN_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run (no sources, build failure, bad binary)."""


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    """Inter-quartile distance as a share of the median (0 when median is 0)."""
    med = median(values)
    q1, q3 = quartiles(values)
    return 0.0 if med == 0 else (q3 - q1) / abs(med)


def sub_seed(seed, i):
    """The i-th seed of a run; the first is the run's seed itself."""
    return seed if i == 0 else (seed * 1_000_003 + i) % (1 << 63)


def pinned_env(threads):
    """The environment of every workload process: all JQOS_* knobs cleared,
    then pinned, so a stray variable cannot change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JQOS_")}
    env.update(PINNED)
    env["JQOS_SIM_THREADS"] = str(threads)
    return env


PINNED = {
    "JQOS_SIM_LANES": "0",
    "JQOS_OBJ_POOL": "1",
    "JQOS_EVQ_BACKEND": "ladder",
    "JQOS_GF_BACKEND": "auto",
    "JQOS_TCP_CC": "reno",
    "JQOS_QDISC": "taildrop",
}


def config_errors(config, threads):
    """Differences between a run's echoed configuration and the pinned one."""
    errors = []
    env = config.get("env", {})
    expected = dict(PINNED, JQOS_SIM_THREADS=str(threads), JQOS_DEBUG_OPS="<unset>")
    for key, want in expected.items():
        if env.get(key) != want:
            errors.append(f"{key}={env.get(key)!r}, expected {want!r}")
    for key, want in (("evq_backend", "ladder"), ("obj_pool", 1), ("build_type", "Release"),
                      ("ndebug", 1), ("threads_requested", threads)):
        if config.get(key) != want:
            errors.append(f"{key}={config.get(key)!r}, expected {want!r}")
    if not 1 <= config.get("threads_used", 0) <= threads:
        errors.append(f"threads_used={config.get('threads_used')!r} outside 1..{threads}")
    return errors


def build():
    """Configures (once) and builds the benchmark binary; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"jQoS sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "jqos_e2e", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"{' '.join(cmd)}: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")
    if not os.access(BINARY, os.X_OK):
        raise BenchError(f"{BINARY} was not built")


def run_once(workload, seed, threads, trace, traced_first):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--threads", str(threads),
           "--trace", str(trace)]
    if traced_first:
        cmd.append("--traced-first")
    try:
        done = subprocess.run(cmd, env=pinned_env(threads), capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if done.returncode != 0:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError) as e:
        return None, f"unparsable output: {e}"


def run_errors(result, threads, trace):
    """Output checks on one run's result."""
    errors = config_errors(result["config"], threads)
    source, names = ("metrics", END_TO_END + OUTCOMES) if trace == 0 else ("layers", PER_LAYER)
    errors.extend(f"metric {name} missing" for name, _ in names
                  if name not in result.get(source, {}))
    outcomes = [result["outcome"]]
    if trace == 1:
        outcomes.append(result["untraced_outcome"])
        if result["outcome"]["fingerprint"] != result["untraced_outcome"]["fingerprint"]:
            errors.append("traced fingerprint differs from the untraced run")
        if result["outcome"]["events"] != result["untraced_outcome"]["events"]:
            errors.append("traced event count differs from the untraced run")
    for o in outcomes:
        if o["paths_not_conserved"] != 0:
            errors.append(f"{o['paths_not_conserved']} path(s) with "
                          "delivered + recovered + lost != sent")
        if o["leaked_flows"] != 0:
            errors.append(f"{o['leaked_flows']} leaked flows")
        if o["events"] <= 0 or o["packets_sent"] <= 0:
            errors.append("the run did no work")
    return errors


def repeat_errors(results):
    """Runs of one sub-seed must agree on events and fingerprint exactly;
    one error per run that does not."""
    errors = []
    first = {}
    for r in results:
        seen = first.setdefault(r["seed"], r["outcome"])
        diff = [f"{field} {r['outcome'][field]} != {seen[field]}"
                for field in ("events", "fingerprint") if seen[field] != r["outcome"][field]]
        if diff:
            errors.append(f"seed {r['seed']}: " + ", ".join(diff) + " on a repeated run")
    return errors


def aggregate(results, trace):
    """Per-metric value (median over runs) and spread (IQR / median)."""
    names = END_TO_END if trace == 0 else PER_LAYER
    source = "metrics" if trace == 0 else "layers"
    table = {}
    for name, unit in names:
        values = [r[source][name] for r in results]
        table[name] = {"value": median(values), "unit": unit, "spread": relative_spread(values)}
    return table


def result_line(correct, attempted, failed, table):
    metrics = {name: {"value": row["value"], "unit": row["unit"]} for name, row in table.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def report(workload, seed, threads, trace, results, table, errors):
    """Human-readable report (everything but the last line)."""
    first = results[0]
    cfg = first["config"]
    print(f"# jQoS e2e benchmark: workload={workload} seed={seed} trace={trace} "
          f"runs={len(results)} sub_seeds={len({r['seed'] for r in results})}")
    print(f"# threads={threads} threads_used={cfg['threads_used']} shards={cfg['shards']} "
          f"nproc={cfg['nproc']} cpu={cfg['cpu_model']!r} compiler={cfg['compiler']} "
          f"build={cfg['build_type']} evq={cfg['evq_backend']} gf={cfg['gf_backend']} "
          f"obj_pool={cfg['obj_pool']}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in sorted(cfg["env"].items())))
    print(f"{'metric':34s} {'median':>16s} {'unit':14s} {'iqr/median':>10s}")
    for name, row in table.items():
        print(f"{name:34s} {row['value']:16.6g} {row['unit']:14s} {row['spread']:10.4f}")
    o = first["outcome"]
    if trace == 0:
        # The modelled outcomes of the run's own seed (sub-seed 0).
        for name, unit in OUTCOMES:
            value = first["metrics"][name]
            print(f"{name:34s} {value:16.6g} {unit:14s} {'seed ' + str(seed):>10s}")
        print(f"# recovery_tail_ms is p{o['recovery_tail_pct']:g} of "
              f"{o['recovery_samples']} recovery samples")
    print(f"# seed {first['seed']}: fingerprint={o['fingerprint']} events={o['events']} "
          f"packets={o['packets_sent']} direct={o['delivered_direct']} "
          f"recovered={o['recovered']} lost={o['lost']} sessions={o['sessions']}")
    if workload == "churn_web" and trace == 1:
        print("# churn_web: run_churn has no node hook, so dc.*, receiver.*, link.*, pool.* "
              "and exp.critical_path_s are not measured (reported as 0)")
    for e in errors:
        print(f"# CHECK FAILED: {e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    default_seed, policy = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")
    threads = 1 if policy == "one" else len(os.sched_getaffinity(0))

    try:
        build()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    results, errors = [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if attempted >= MIN_RUNS[args.trace] and elapsed >= args.seconds:
            break
        if elapsed >= HARD_STOP_S or failed:
            break
        attempted += 1
        s = sub_seed(seed, (attempted - 1) % SUB_SEEDS)
        result, err = run_once(args.workload, s, threads, args.trace,
                               traced_first=args.trace == 1 and attempted % 2 == 0)
        run_errs = [err] if err else run_errors(result, threads, args.trace)
        if run_errs:
            failed += 1
            errors.extend(f"run {attempted} (seed {s}): {e}" for e in run_errs)
        if result is not None:
            results.append(result)
    repeats = repeat_errors(results)
    failed += len(repeats)
    errors.extend(repeats)
    try:
        table = aggregate(results, args.trace) if results else None
    except KeyError:
        table = None
    if table is None:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1

    correct = not errors
    report(args.workload, seed, threads, args.trace, results, table, errors)
    print(result_line(correct, attempted, failed, table))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
