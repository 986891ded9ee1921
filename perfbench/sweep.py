#!/usr/bin/env python3
"""Run the gws benchmark over several seeds and summarise it.

    python3 perfbench/sweep.py [--workloads characterize,validate,explore]
        [--seeds 0-9] [--seconds 20] [--traced-seeds 0]
        [--trajectory perfbench/trajectory.jsonl]

For each workload, runs perfbench/run.py once per seed with tracing
off, then once per --traced-seeds seed with tracing on. Prints, per
workload, every end-to-end metric's median, quartiles and spread
(quartile distance over the median, as statistics.quantiles(n=4)
gives them), the fidelity metrics with fail_ratio, the median
per-layer metrics of the traced runs, and each seed's output digest
and whole-run peak resident set. With --trajectory, appends one JSON
line per workload, stamped with `git describe --always --dirty`, the
host's CPU and the UTC time. Stops at the first run that fails its
checks.
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


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(lines[-1])
    fidelity, digest, peak_rss = {}, None, None
    for line in lines[:-1]:
        words = line.split()
        if line.endswith("(fidelity)"):
            fidelity[words[0]] = (float(words[1]), words[2])
        elif words and words[0] == "digest":
            digest = words[-1]
        elif line.startswith("peak RSS after set-up"):
            peak_rss = float(words[-2])  # "... after the timed passes X MiB"
    return result, fidelity, digest, peak_rss


def spread_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def git_describe():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%d CPUs, %s" % (os.cpu_count() or 0, model)


def sweep(workload, seeds, traced_seeds, seconds):
    e2e, fidelity, digests, peak_rss = {}, {}, {}, {}
    attempted = failed = 0
    ok = True
    for seed in seeds:
        result, fid, digest, rss = run_once(workload, seed, seconds, 0)
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        digests[str(seed)] = digest
        peak_rss[str(seed)] = rss
        for name, m in result["metrics"].items():
            e2e.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        for name, (value, unit) in fid.items():
            fidelity.setdefault(name, ([], unit))[0].append(value)
        print("  %s seed %d: %s" % (workload, seed, ", ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    layers = {}
    for seed in traced_seeds:
        result, _, _, _ = run_once(workload, seed, seconds, 1)
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            layers.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    point = {
        "workload": workload,
        "seconds": seconds,
        "seeds": seeds,
        "end_to_end": {n: dict(spread_stats(v), unit=u)
                       for n, (v, u) in e2e.items()},
        "fail_ratio": failed / attempted if attempted else 0.0,
        "fidelity": {n: {"median": statistics.median(v), "unit": u}
                     for n, (v, u) in fidelity.items()},
        "traced_seeds": traced_seeds,
        "per_layer": {n: {"median": statistics.median(v), "unit": u}
                      for n, (v, u) in layers.items()},
        "digests": digests,
        "peak_rss_mb": peak_rss,
    }
    return point, ok


def show(point):
    print("\n== %s (%d seeds, %d s per run)" % (
        point["workload"], len(point["seeds"]), point["seconds"]))
    print("end-to-end            median        q1        q3   spread")
    for name, s in point["end_to_end"].items():
        print("  %-16s %10.4f %9.4f %9.4f   %5.3f %s" % (
            name, s["median"], s["q1"], s["q3"], s["spread"], s["unit"]))
    print("  %-16s %10.4g fraction" % ("fail_ratio", point["fail_ratio"]))
    for name, s in point["fidelity"].items():
        print("  %-16s %10.4f %s (fidelity, median)" % (
            name, s["median"], s["unit"]))
    if point["per_layer"]:
        print("per-layer (traced, median over seeds %s)" %
              point["traced_seeds"])
        for name, s in point["per_layer"].items():
            print("  %-32s %14.6g %s" % (name, s["median"], s["unit"]))
    print("digests: " + " ".join(
        "%s:%s" % kv for kv in point["digests"].items()))
    print("peak RSS MiB (untraced runs): " + " ".join(
        "%s:%.1f" % kv for kv in point["peak_rss_mb"].items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="characterize,validate,explore")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--traced-seeds", default="0")
    ap.add_argument("--trajectory")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    traced = parse_seeds(args.traced_seeds) if args.traced_seeds else []
    describe = git_describe()
    all_ok = True
    for workload in args.workloads.split(","):
        point, ok = sweep(workload, seeds, traced, args.seconds)
        all_ok = all_ok and ok
        show(point)
        if args.trajectory:
            with open(args.trajectory, "a") as f:
                f.write(json.dumps(dict(
                    git=describe, host=host(), threads=4,
                    time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    **point)) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
