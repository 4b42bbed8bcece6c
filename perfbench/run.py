#!/usr/bin/env python3
"""Wall-clock benchmark of the simulated Legion RMS.

Builds the simulator and the perfbench binary from source (CMake, Release)
under .bench_build/perfbench in the checkout, runs one workload in its own
process, checks the simulated outputs, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload placement --seed 7 --trace 0
    python3 perfbench/run.py --baseline   # every workload, main + held-out seed

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
repetition and reports the per-layer metrics, writing spans and the kernel
profile under .bench_build/perfbench/traces.  README.md explains the
workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(BUILD, "traces")
FINGERPRINTS = os.path.join(BUILD, "fingerprints.json")

WORKLOADS = ["telemetry", "placement", "federated_mix"]
POLICIES = ["random", "irs", "load_aware", "cost_aware", "stencil"]
MAIN_SEED = 1
HELD_OUT_SEED = 2
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# (name, unit, better): end-to-end metrics, reported with --trace 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("sim_s_per_wall_s", "1/s", "higher"),
    ("placements_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_failed_ratio", "ratio", "lower"),
    ("sim_wait_s_p50", "s", "lower"),
    ("sim_wait_s_p99", "s", "lower"),
    ("sim_wait_samples", "count", "higher"),
    ("sim_staleness_ms_mean", "ms", "lower"),
]

# (name, unit, better): per-layer metrics, reported with --trace 1.
PER_LAYER = (
    [
        ("sim.events", "count", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("sim.queue_hwm", "count", "lower"),
        ("sim.rpc_inflight_hwm", "count", "lower"),
        ("sim.queue_op_us", "us", "lower"),
        ("sim.rpc_us", "us", "lower"),
        ("sim.rpcs", "count", "lower"),
        ("sim.rpc_timeouts", "count", "lower"),
        ("sim.wire_kb", "kB", "lower"),
        ("net.latency_us", "us", "lower"),
        ("collection.update_us", "us", "lower"),
        ("collection.updates", "count", "lower"),
    ]
    + [("collection.query_us." + p, "us", "lower") for p in POLICIES]
    + [
        ("collection.result_records", "count", "lower"),
        ("collection.index_hit_ratio", "ratio", "higher"),
        ("query.compile_cache_hit_ratio", "ratio", "higher"),
        ("query.compile_us", "us", "lower"),
        ("federation.pending_deltas_us", "us", "lower"),
        ("federation.delta_records", "count", "lower"),
        ("federation.refresh_pulls", "count", "lower"),
        ("federation.stale_answers", "count", "lower"),
    ]
    + [("scheduler.compute_us." + p, "us", "lower") for p in POLICIES]
    + [("scheduler.self_us." + p, "us", "lower") for p in POLICIES]
    + [
        ("scheduler.suspects_skipped", "count", "lower"),
        ("scheduler.mappings_unplaced", "count", "lower"),
        ("enactor.negotiate_us", "us", "lower"),
        ("enactor.grant_ratio", "ratio", "higher"),
        ("enactor.retries", "count", "lower"),
        ("enactor.rereservations", "count", "lower"),
        ("enactor.slots_per_batch", "count", "higher"),
        ("enactor.requests_parked", "count", "lower"),
        ("enactor.breaker_open", "count", "lower"),
        ("reservation.admit_us", "us", "lower"),
        ("reservation.cancel_us", "us", "lower"),
        ("reservation.records_per_host", "count", "lower"),
        ("reservation.live_per_host", "count", "lower"),
        ("host.reassess_us", "us", "lower"),
        ("metacomputer.build_s", "s", "lower"),
        ("metacomputer.populate_s", "s", "lower"),
        ("session.make_class_us", "us", "lower"),
        ("trace.sim_s_per_wall_s", "1/s", "higher"),
        ("trace.untraced_sim_s_per_wall_s", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


# ---- Statistics -------------------------------------------------------------


def ratio(num, den):
    """num / den, with 0 / 0 read as 0 (nothing attempted, nothing lost)."""
    if den == 0:
        if num != 0:
            raise ValueError("ratio %r / 0" % (num,))
        return 0.0
    return num / den


def tail_percentile(values, target=99.0, min_beyond=10):
    """The highest nearest-rank percentile <= target with at least
    `min_beyond` samples above it.  Returns (percentile, value); the
    target itself is used only when len(values) allows it (p99 needs
    1000 samples).  Raises ValueError when even the median lacks support.
    """
    n = len(values)
    if n < 2 * min_beyond:
        raise ValueError("%d samples cannot support a tail percentile" % n)
    ordered = sorted(values)
    percentile = min(target, 100.0 * (n - min_beyond) / n)
    rank = math.ceil(round(percentile * n / 100.0, 9))
    return percentile, ordered[rank - 1]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, statistics.median(values))


def check_names(names):
    """Raises ValueError unless every metric name is well formed and unique."""
    seen = set()
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        if name in seen:
            raise ValueError("duplicate metric name %r" % name)
        seen.add(name)


# ---- Metrics from the binary's raw figures ----------------------------------


def distinct_reps(reps):
    """The first repetition of each sub-seed: the pooled simulated sample."""
    seen, out = set(), []
    for rep in reps:
        if rep["subseed"] not in seen:
            seen.add(rep["subseed"])
            out.append(rep)
    return out


def pooled_waits(raw):
    return [w for r in distinct_reps(raw["reps"]) for w in r["waits_s"]]


def end_to_end_metrics(raw):
    reps = raw["reps"]
    pooled = distinct_reps(reps)
    # The first repetition warms caches and the allocator: its simulated
    # results count, its timings do not.
    timed = reps[1:]
    setups = [r["build_s"] + r["populate_s"] for r in timed]
    setups += [s["build_s"] + s["populate_s"] for s in raw["setups"]]
    waits = pooled_waits(raw)
    _, p99 = tail_percentile(waits)
    if raw["failure_basis"] == "updates":
        failed = sum(r["rpc_timeouts"] + r["updates_rejected"] for r in pooled)
        tried = sum(r["rpcs"] for r in pooled)
    else:
        failed = sum(r["offered"] - r["placed"] for r in pooled)
        tried = sum(r["offered"] for r in pooled)
    values = {
        "setup_s": statistics.median(setups),
        "sim_s_per_wall_s": statistics.median(
            r["window_sim_s"] / r["window_wall_s"] for r in timed),
        # Every app offered has reached its outcome by the end of the
        # window: arrivals stop a drain period before it.
        "placements_per_s": statistics.median(
            r["offered"] / r["window_wall_s"] for r in timed),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_failed_ratio": ratio(failed, tried),
        "sim_wait_s_p50": statistics.median(waits),
        "sim_wait_s_p99": p99,
        "sim_wait_samples": len(waits),
        "sim_staleness_ms_mean": ratio(
            sum(r["staleness_sum_ms"] for r in pooled),
            sum(r["staleness_count"] for r in pooled)),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def per_layer_metrics(raw):
    untraced, traced = raw["reps"]
    probes = raw["probes"]
    us = {name: statistics.median(samples)
          for name, samples in probes["samples"].items()}
    values = {
        "sim.events": traced["events"],
        "sim.events_per_s": untraced["events"] / untraced["window_wall_s"],
        "sim.queue_hwm": traced["queue_hwm"],
        "sim.rpc_inflight_hwm": traced["rpc_inflight_hwm"],
        "sim.rpcs": traced["rpcs"],
        "sim.rpc_timeouts": traced["rpc_timeouts"],
        "sim.wire_kb": traced["wire_bytes"] / 1024.0,
        "collection.updates": traced["updates_applied"],
        "collection.result_records":
            probes["counts"]["collection.result_records"],
        "collection.index_hit_ratio": ratio(
            traced["index_hits"],
            traced["index_hits"] + traced["planner_fallbacks"]),
        "query.compile_cache_hit_ratio": ratio(
            traced["compile_cache_hits"],
            traced["compile_cache_hits"] + traced["compile_cache_misses"]),
        "federation.delta_records": traced["delta_records"],
        "federation.refresh_pulls": traced["refresh_pulls"],
        "federation.stale_answers": traced["stale_answers"],
        "scheduler.suspects_skipped": traced["suspects_skipped"],
        "scheduler.mappings_unplaced": traced["mappings_unplaced"],
        "enactor.grant_ratio": ratio(traced["reservations_granted"],
                                     traced["reservations_requested"]),
        "enactor.retries": traced["retries"],
        "enactor.rereservations": traced["rereservations"],
        "enactor.slots_per_batch": ratio(traced["batched_slots"],
                                         traced["batches_sent"]),
        "enactor.requests_parked": traced["requests_parked"],
        "enactor.breaker_open": traced["breaker_open"],
        "reservation.records_per_host": traced["records_per_host"],
        "reservation.live_per_host": traced["live_per_host"],
        "metacomputer.build_s": statistics.median(
            [untraced["build_s"], traced["build_s"]]),
        "metacomputer.populate_s": statistics.median(
            [untraced["populate_s"], traced["populate_s"]]),
        "trace.sim_s_per_wall_s":
            traced["window_sim_s"] / traced["window_wall_s"],
        "trace.untraced_sim_s_per_wall_s":
            untraced["window_sim_s"] / untraced["window_wall_s"],
    }
    values["trace.overhead_pct"] = 100.0 * (
        values["trace.untraced_sim_s_per_wall_s"]
        / values["trace.sim_s_per_wall_s"] - 1.0)
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = us[name]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def check_outputs(raw, fingerprints, binary_id):
    """Returns (attempted, failed, problems) over every correctness check:
    the binary's end-of-run invariants, and one fingerprint comparison per
    repetition whose (seed, sub-seed) was simulated before -- in this run,
    in an earlier run of the same binary, or untraced beside traced."""
    attempted = sum(r["checks"] for r in raw["reps"])
    problems = [v for r in raw["reps"] for v in r["violations"]]
    for rep in raw["reps"]:
        key = "%s:%s:%d:%d" % (binary_id, raw["workload"], raw["seed"],
                               rep["subseed"])
        known = fingerprints.setdefault(key, rep["fingerprint"])
        attempted += 1
        if known != rep["fingerprint"]:
            problems.append("fingerprint %s: %s != %s"
                            % (key, rep["fingerprint"], known))
    if raw["trace"]:
        attempted += 1
        failures = raw["probes"]["counts"]["scheduler.probe_failures"]
        if failures:
            problems.append("%d probed schedules failed" % failures)
    return attempted, len(problems), problems


# ---- Build and run ----------------------------------------------------------


def call(command, timeout, **streams):
    """Runs `command` in its own process group and returns (code, output).
    On timeout the whole group is killed and waited for, so no compiler or
    benchmark process outlives the run."""
    with subprocess.Popen(command, start_new_session=True, **streams) as proc:
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return proc.returncode, output


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = call(step, BUILD_TIMEOUT_S, stdout=log,
                           stderr=subprocess.STDOUT)
            if code != 0:
                raise RuntimeError("build failed (%s); see %s"
                                   % (" ".join(step), log_path))


def binary_id():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def run_binary(workload, seed, seconds, trace):
    os.makedirs(TRACES, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out-dir", TRACES]
    code, output = call(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code != 0:
        raise RuntimeError("perfbench exited with %d" % code)
    return json.loads(output)


def load_fingerprints():
    try:
        with open(FINGERPRINTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def measure(workload, seed, seconds, trace):
    """One benchmark run: returns the result object printed last."""
    raw = run_binary(workload, seed, seconds, trace)
    fingerprints = load_fingerprints()
    attempted, failed, problems = check_outputs(raw, fingerprints, binary_id())
    with open(FINGERPRINTS, "w") as f:
        json.dump(fingerprints, f, indent=0, sort_keys=True)
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    metrics = per_layer_metrics(raw) if trace else end_to_end_metrics(raw)
    if not trace:
        waits = pooled_waits(raw)
        print("sim_wait_s_p99 is p%.2f of %d placements; %d repetitions, "
              "%d sub-seeds" % (tail_percentile(waits)[0], len(waits),
                                len(raw["reps"]), raw["subseeds"]))
    for name, metric in metrics.items():
        print("%-34s %14.6g %s" % (name, metric["value"], metric["unit"]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def baseline(seconds):
    """Every workload at the main and the held-out seed, both modes."""
    rows = []
    for workload in WORKLOADS:
        for seed in (MAIN_SEED, HELD_OUT_SEED):
            for trace in (False, True):
                result = measure(workload, seed, seconds, trace)
                rows.append({"workload": workload, "seed": seed,
                             "trace": trace, "correct": result["correct"],
                             "metrics": {k: v["value"] for k, v
                                         in result["metrics"].items()}})
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=MAIN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="run every workload at the main and the "
                             "held-out seed and print both")
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")
    check_names([n for n, _, _ in END_TO_END + PER_LAYER])
    try:
        build()
        if args.baseline:
            print(json.dumps(baseline(args.seconds), sort_keys=True))
            return 0
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
