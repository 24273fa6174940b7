#!/usr/bin/env python3
"""End-to-end and per-layer solve benchmark for the RC-SFISTA library.

    python3 perfbench/run.py --workload tall-spmd4 --seed 1 --seconds 45 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (which pulls in the repository's library targets) into
.bench_build/perfbench; later calls reuse that build.  The measuring process
is perfbench_solve (solve_bench.cpp); this script turns its raw samples into
metrics, prints one line per metric by name and unit, and prints the result
record as the last line of standard output.  It exits non-zero when any
correctness gate fails.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_solve"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"

# Workloads of BENCHMARK.json (defined in solve_bench.cpp, explained in
# README.md); tall-seq1, runnable by hand but left out of BENCHMARK.json
# because its run-to-run spread on a shared host exceeds the bound (see
# README.md); and the tiny self-test workload.
WORKLOADS = ("tall-spmd4", "wide-spmd2x2")
UNGATED_WORKLOADS = ("tall-seq1",)
SELFTEST_WORKLOADS = ("tiny-spmd2",)

# End-to-end metrics of BENCHMARK.json (--trace 0): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "rel_err": "1",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (--trace 1): name -> unit.
PER_LAYER = {
    "core.lipschitz_s": "s",
    "core.step_probe_s": "s",
    "core.traced_solve_s": "s",
    "core.phase.sampling_s": "s",
    "core.phase.gram_s": "s",
    "core.phase.allreduce_s": "s",
    "core.phase.update_s": "s",
    "core.solve_unattributed_s": "s",
    "common.draw_ms": "ms",
    "common.draws_per_solve": "count",
    "la.lipschitz_iters": "count",
    "la.update_us": "us",
    "sparse.spmv_pair_ms": "ms",
    "sparse.spmv_gbps": "GB/s",
    "sparse.gram_ms": "ms",
    "sparse.gram_gflops": "GFLOP/s",
    "sparse.gram_flop_per_byte": "flop/B",
    "dist.allreduce_calls": "count",
    "dist.allreduce_mwords": "Mwords",
    "dist.max_payload_words": "words",
    "dist.retries": "count",
    "dist.allreduce_replay_ms": "ms",
    "dist.allreduce_wait_s": "s",
    "data.slice_ms": "ms",
    "exec.gram_pool_speedup": "x",
    "obs.trace_overhead_frac": "1",
    "model.solve_gflop": "GFLOP",
    "host.triad_gbps": "GB/s",
}
PHASES = ("sampling", "gram", "allreduce", "update")

# Variables that change the program being measured (checked contracts,
# fault injection, live telemetry, env-started tracing, pool width, kernel
# backend, perf counters).  A run with any of them set is refused.
PERTURBING_EXACT = ("RCF_CHECK", "RCF_FAULT", "RCF_THREADS", "RCF_BACKEND",
                    "RCF_METRICS", "RCF_PERFCTR")
PERTURBING_PREFIX = ("RCF_TRACE", "RCF_LIVE")

CHILD_TIMEOUT_S = 170


def perturbing_env(environ):
    """Names of set variables that would change the measured program."""
    return sorted(name for name in environ
                  if name in PERTURBING_EXACT or name.startswith(PERTURBING_PREFIX))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def trimmed_mean(values, share=0.1):
    """Mean after dropping `share` of the samples at each end."""
    values = sorted(values)
    k = int(len(values) * share)
    return statistics.fmean(values[k:len(values) - k])


def least_stolen(samples, steal):
    """The samples whose host steal rate (ticks per second) is at most the
    median rate of the run, so at least half of them.

    A solve's ranks meet at every allreduce, so when the hypervisor runs
    another guest on any one vCPU, the whole solve waits: solves during
    steal bursts read up to 30% slower than steal-free ones of the same run.
    On a host that reports no steal every sample is kept.
    """
    rates = [s / t for t, s in zip(samples, steal)]
    cut = statistics.median(rates)
    return [t for t, r in zip(samples, rates) if r <= cut]


def end_to_end_metrics(raw):
    """Metric name -> (value, samples) from a --trace 0 record.

    setup_s is the median of the run's set-ups (6 to 12 of them).  solve_s
    is a 10%-trimmed mean of the least-stolen half of the run's 20 to 45
    solves: on a shared host the speed also drifts between regimes (up to
    about 1.4x apart) that last from 10 s to minutes, and a median of that
    many short solves jumps between the regimes' values as their mix crosses
    one half, while the trimmed mean follows the mix smoothly and still
    drops the rare multi-x spikes.  Set-ups run on one thread for seconds,
    so steal bursts reach them diluted and every set-up is kept.
    """
    solves = least_stolen(raw["solve_s"], raw["solve_steal"])
    return {
        "setup_s": (statistics.median(raw["setup_s"]), raw["setup_s"]),
        "solve_s": (trimmed_mean(solves), solves),
        # Mean over the run's solver seeds (one solve each).
        "rel_err": (statistics.fmean(raw["rel_err"]), raw["rel_err"]),
        "peak_rss_mb": (raw["peak_rss_mb"], None),
    }


def layer_checks(layers):
    """Failure reasons for a --trace 1 record's internal consistency."""
    reasons = []
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        reasons.append("missing per-layer metrics: " + ", ".join(missing))
        return reasons
    parts = sum(layers["core.phase.%s_s" % p] for p in PHASES)
    total = parts + layers["core.solve_unattributed_s"]
    if abs(total - layers["core.traced_solve_s"]) > 1e-9 * max(1.0, total):
        reasons.append("phases + unattributed != traced solve_s")
    return reasons


def summarize(raw):
    """(report lines, result record) for one raw perfbench_solve record."""
    name = raw["workload"]
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    reasons = list(raw.get("failures", []))
    lines = []
    metrics = {}
    if raw["trace"]:
        layers = raw["layers"]
        check = layer_checks(layers)
        reasons += check
        failed += len(check)
        attempted += len(check)
        for metric, unit in PER_LAYER.items():
            value = layers.get(metric, 0.0)
            metrics[metric] = {"value": value, "unit": unit}
            lines.append("%s %s = %.6g %s" % (name, metric, value, unit))
    else:
        for metric, (value, samples) in end_to_end_metrics(raw).items():
            unit = END_TO_END[metric]
            metrics[metric] = {"value": value, "unit": unit}
            if samples is not None and len(samples) > 1:
                q1, med, q3 = quartiles(samples)
                label = {"setup_s": "median of %d", "rel_err": "mean of %d"}.get(
                    metric, "trimmed mean of the %%d least-stolen of %d" % len(raw["solve_s"]))
                stat = "%s; q1 %.6g, median %.6g, q3 %.6g" % (
                    label % len(samples), q1, med, q3)
                lines.append("%s %s = %.6g %s (%s)" % (name, metric, value, unit, stat))
            else:
                lines.append("%s %s = %.6g %s" % (name, metric, value, unit))
        # Printed but not in BENCHMARK.json: on tall, set-up is ~80% of it,
        # so it carries set-up's host drift with little of its own signal.
        lines.append("%s total_s = %.6g s (setup_s + solve_s)" % (
            name, metrics["setup_s"]["value"] + metrics["solve_s"]["value"]))
    lines.append("%s failed_frac = %.6g 1 (%d failed of %d attempted)"
                 % (name, failed / attempted if attempted else 1.0, failed, attempted))
    lines += ["%s gate failed: %s" % (name, r) for r in reasons]
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def source_digest():
    """sha256 over src/ (path + bytes); identifies the measured code when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def build():
    """Configures (once) and builds perfbench_solve; build logs go to stderr."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError("no src/ next to perfbench/: nothing to build")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                        "perfbench_solve", "-j", jobs],
                       stdout=sys.stderr, check=True)


def run_binary(args):
    """Runs perfbench_solve and returns its raw record (last stdout line)."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / ("%s-seed%d.json" % (args.workload, args.seed)))]
    if args.inject_failure:
        cmd.append("--inject-failure")
    if args.inputs_only:
        cmd.append("--inputs-only")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench_solve exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNGATED_WORKLOADS + SELFTEST_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (perfbench/test_perfbench.py).
    parser.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    env = perturbing_env(os.environ)
    if env:
        print("perfbench: refusing to run with %s set (it changes the program "
              "being measured)" % ", ".join(env), file=sys.stderr)
        return 2
    try:
        build()
        raw = run_binary(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    if args.inputs_only:
        print(json.dumps(raw["inputs"]))
        return 0
    provenance = dict(raw["provenance"], git_sha=git_sha(), src_sha256=source_digest(),
                      workload=raw["workload"], seed=raw["seed"], iters=raw["iters"],
                      inputs=raw["inputs"])
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    lines, result = summarize(raw)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
