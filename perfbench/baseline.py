#!/usr/bin/env python3
"""Run the benchmark over several seeds and write the figures as JSON.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 20 --out perfbench/baseline.json

For each workload: every end-to-end metric over the seeds (median,
quartiles, and the quartile distance as a share of the median), the input
digest of each seed, the undecided answers by kind, and one traced run
(first seed) for the per-layer breakdown and the tracing overhead.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hurwitz", "braids-links", "charts", "cli")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("# inputs sha256"))
    outcomes = collections.Counter()
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "#" and parts[3].isdigit():
            outcomes[parts[1], parts[2]] += int(parts[3])
    return json.loads(lines[-1]), digest, outcomes


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    report = {
        "git_sha": git.stdout.strip() or None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        values = collections.defaultdict(list)
        digests, undecided, failed = {}, collections.Counter(), 0
        for seed in args.seeds:
            result, digests[seed], outcomes = run(workload, seed, args.seconds, 0)
            failed += result["failed"]
            for (kind, status), n in outcomes.items():
                if status == "undecided":
                    undecided[kind] += n
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                                "values": vals}
        traced, _, _ = run(workload, args.seeds[0], args.seconds, 1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "failed": failed,
            "undecided_by_kind": dict(undecided),
            "per_layer": layers,
            "tracing_overhead_ops_per_s": layers["trace.overhead_ops_per_s"],
            "input_sha256": {str(s): d for s, d in digests.items()},
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
