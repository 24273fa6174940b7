#!/usr/bin/env python3
"""Steadiness check for the benchmark: repeated runs, spreads and shifts.

    python3 perfbench/steady.py --sets 2 --seeds 10 --trace-seed 1 --out perfbench/results/steadiness.json
    python3 perfbench/steady.py --analyze perfbench/results/steadiness.json

Runs perfbench/run.py once per (set, workload, seed) with tracing off.  Set s
uses seeds s*N+1 .. s*N+N, so the sets share no inputs.  For every
end-to-end metric in BENCHMARK.json it reports each set's quartiles and the
interquartile distance as a share of the median (the spread), and how far
each later set's median moved from the first set's in the metric's worse
direction.  Both are compared with the metric's bound, for every metric
including setup_s; a spread above a third of its bound is flagged as not
steady.  With --trace-seed it also
records one traced (per-layer) run per workload.  --out writes everything,
including every run's per-seed values and provenance, as JSON.  --analyze
recomputes the comparison of such a file against the current BENCHMARK.json
without running anything.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py: shared metric helpers)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:] + proc.stdout[-2000:])
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    provenance = next((json.loads(l[len("provenance: "):]) for l in lines
                       if l.startswith("provenance: ")), {})
    return {"seed": seed, "wall_s": time.time() - started,
            "provenance": provenance, "result": json.loads(lines[-1])}


def stats(values):
    q1, med, q3 = run.quartiles(values)
    return {"q1": q1, "median": med, "q3": q3, "spread": run.spread(values)}


def shift(first, later, better):
    """Relative move of `later` from `first` in the worse direction."""
    delta = (later - first) / first
    return delta if better == "lower" else -delta


def measure(args, seconds):
    """Runs the sets; returns [{"seeds": [...], "runs": {workload: [run]}}]."""
    sets = []
    for s in range(args.sets):
        seeds = [1 + s * args.seeds + i for i in range(args.seeds)]
        runs = {}
        for workload in run.WORKLOADS:
            runs[workload] = []
            for seed in seeds:
                r = run_once(workload, seed, seconds, 0)
                runs[workload].append(r)
                print("set %d %s seed %d: %.1f s wall, %s" % (
                    s, workload, seed, r["wall_s"],
                    " ".join("%s=%.5g" % (k, v["value"])
                             for k, v in r["result"]["metrics"].items())), flush=True)
        sets.append({"seeds": seeds, "runs": runs})
    return sets


def compare(sets, metrics):
    """Fills each set's summary; returns (per-metric report, accepted)."""
    workloads = list(sets[0]["runs"])
    for st in sets:
        st["summary"] = {
            w: {m: stats([r["result"]["metrics"][m]["value"] for r in rs]) for m in metrics}
            for w, rs in st["runs"].items()}
    accepted = True
    report = {}
    print("\n%-13s %-12s %6s %7s %s" % ("workload", "metric", "bound", "spread",
                                          "median per set (shift)"))
    for workload in workloads:
        report[workload] = {}
        for name, m in metrics.items():
            spreads = [st["summary"][workload][name]["spread"] for st in sets]
            medians = [st["summary"][workload][name]["median"] for st in sets]
            shifts = [shift(medians[0], med, m["better"]) for med in medians[1:]]
            steady = max(spreads) < m["bound"] / 3
            ok = all(x <= m["bound"] for x in shifts) and max(spreads) <= m["bound"]
            accepted &= ok
            report[workload][name] = {"bound": m["bound"], "spreads": spreads,
                                      "medians": medians, "shifts": shifts,
                                      "steady": steady, "ok": ok}
            print("%-13s %-12s %6.3f %7.3f %s%s%s" % (
                workload, name, m["bound"], max(spreads),
                " ".join("%.5g" % x for x in medians),
                "".join(" (%+.3f)" % x for x in shifts),
                "" if steady else "  NOT STEADY" if ok else "  FAIL"))
    return report, accepted


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also record one traced run per workload at this seed")
    parser.add_argument("--out", default=None)
    parser.add_argument("--analyze", default=None,
                        help="recompute the comparison of a recorded --out file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.analyze:
        out = json.loads(Path(args.analyze).read_text())
        out["benchmark"] = bench
        out["comparison"], out["accepted"] = compare(out["sets"], metrics)
        Path(args.out or args.analyze).write_text(
            json.dumps(out, indent=1, sort_keys=True) + "\n")
        return 0 if out["accepted"] else 1

    seconds = bench["run_seconds"]
    out = {"benchmark": bench, "seconds": seconds, "sets": measure(args, seconds),
           "traced": {}}
    out["comparison"], out["accepted"] = compare(out["sets"], metrics)

    def write():
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")

    write()
    if args.trace_seed is not None:
        for workload in run.WORKLOADS:
            r = run_once(workload, args.trace_seed, seconds, 1)
            out["traced"][workload] = r
            print("traced %s seed %d: %.1f s wall" % (workload, args.trace_seed, r["wall_s"]))
        write()
    return 0 if out["accepted"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
