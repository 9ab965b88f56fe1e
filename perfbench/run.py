#!/usr/bin/env python3
"""branchcover benchmark: one closed-loop caller, seeded inputs, checked answers.

    python3 perfbench/run.py --workload hurwitz --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's fixed operation list is
replayed in whole passes until ``--seconds`` have passed and at least 100
operations ran; every answer is checked against ``perfbench/oracles.py``.
The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench import ops as OPS  # noqa: E402  (inputs and oracles; imports no library code)
from perfbench import oracles  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 3
START_REPEATS = 5
SEGMENT_S = 0.05  # busy time between two samples of the machine's speed

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# name -> unit.  Busy times and counts are per pass over the fixed list.
PER_LAYER = dict(
    [
        ("fail_ratio", "ratio"),
        ("undecided_ratio", "ratio"),
        ("trace.overhead_ops_per_s", "1/s"),
        ("permutations.compose_calls", "count"),
        ("permutations.compose_ns", "ns"),
        ("permutations.conjugate_ns", "ns"),
        ("permutations.fail", "count"),
        ("braids.key_calls", "count"),
        ("braids.key_letters", "count"),
    ]
    + [(f"braids.key_ms.len{n}", "ms") for n in (8, 16, 32, 48, 64)]
    + [
        ("braids.busy_s", "s"),
        ("braids.fail", "count"),
        ("hurwitz.nf.busy_s", "s"),
        ("hurwitz.nf_moves", "count"),
        ("hurwitz.nf_ms.d4n8", "ms"),
        ("hurwitz.nf_ms.d8n40", "ms"),
        ("hurwitz.nf_ms.d16n76", "ms"),
        ("hurwitz.equiv.busy_s", "s"),
        ("hurwitz.enum.busy_s", "s"),
        ("hurwitz.simplicity.busy_s", "s"),
        ("hurwitz.simplicity_undetermined", "count"),
        ("hurwitz.braid_equiv_unknown", "count"),
        ("hurwitz.fail", "count"),
        ("covering.busy_s", "s"),
        ("covering.calls", "count"),
        ("covering.fail", "count"),
        ("charts.validate.busy_s", "s"),
        ("charts.monodromy.busy_s", "s"),
        ("charts.move.busy_s", "s"),
        ("charts.orient_pos.busy_s", "s"),
        ("charts.orient_neg.busy_s", "s"),
        ("charts.orient_neg_ms.prefix12", "ms"),
        ("charts.orient_neg_ms.prefix16", "ms"),
        ("charts.orient_neg_ms.prefix20", "ms"),
        ("charts.segments", "count"),
        ("charts.fail", "count"),
        ("links.colorings.busy_s", "s"),
        ("links.lift.busy_s", "s"),
        ("links.reidemeister.busy_s", "s"),
        ("links.lift_checks", "count"),
        ("links.lift_exhausted", "count"),
        ("links.fail", "count"),
        ("quandles.colorings.busy_s", "s"),
        ("quandles.lift_surjection.busy_s", "s"),
        ("quandles.validate.busy_s", "s"),
        ("quandles.fail", "count"),
        ("cli.python_start_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    + [(f"cli.{call}_ms", "ms") for call in OPS.CLI_CALLS]
    + [("cli.fail", "count")]
)

# busy metric -> (span names, op kinds the span must sit in, or None for any)
BUSY = {
    "braids.busy_s": (("braids",), None),
    "hurwitz.nf.busy_s": (("hurwitz.nf",), None),
    "hurwitz.equiv.busy_s": (("hurwitz.equiv",), None),
    "hurwitz.enum.busy_s": (("op:enum",), None),
    "hurwitz.simplicity.busy_s": (("hurwitz.simplicity",), None),
    "covering.busy_s": (("covering",), None),
    "charts.validate.busy_s": (("charts.validate",), None),
    "charts.monodromy.busy_s": (("charts.monodromy",), None),
    "charts.move.busy_s": (("charts.move",), None),
    "charts.orient_pos.busy_s": (("charts.orient",), ("orient-pos",)),
    "charts.orient_neg.busy_s": (("charts.orient",), ("orient-neg",)),
    "links.colorings.busy_s": (("links.colorings",), None),
    "links.lift.busy_s": (("links.lift",), None),
    "links.reidemeister.busy_s": (("links.reidemeister",), None),
    "quandles.colorings.busy_s": (("quandles.colorings", "quandles.make_Td"), ("color",)),
    "quandles.lift_surjection.busy_s": (("quandles.lift_surjection",), None),
    "quandles.validate.busy_s": (("quandles.validate", "quandles.make_Td"), ("qvalidate",)),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "branchcover", "__init__.py")):
        fail(f"no branchcover sources under {SRC}")
    sys.path.insert(0, SRC)
    import branchcover

    if os.path.dirname(os.path.dirname(os.path.abspath(branchcover.__file__))) != SRC:
        fail(f"branchcover was imported from {branchcover.__file__}, not from {SRC}")
    return OPS.Library()


class Setup:
    """Input generation and warm-up for one workload and seed."""

    def __init__(self, lib, workload, seed):
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.lib = lib
        ops = OPS.build(workload, seed, lib, ROOT, self.workdir)
        # Warm-up runs the first (smallest) operation of each kind, then
        # clears the library caches, so the key cache holds no measured
        # input.  CLI calls start a fresh interpreter each; one warms all.
        first = {}
        for op in ops:
            first.setdefault(op.layer if op.layer == "cli" else op.kind, op)
        for op in first.values():
            op.call(*op.prepare())
        self.clear_caches()
        random.Random(f"order:{workload}:{seed}").shuffle(ops)
        self.ops = ops
        self.digest = hashlib.sha256(repr([(op.kind, op.data) for op in ops]).encode()).hexdigest()
        gc.collect()
        gc.freeze()  # the inputs stay alive all run; keep them out of the collector's scans

    def clear_caches(self):
        for name in ("permutations", "braids", "hurwitz", "covering", "charts", "links", "quandles"):
            for value in vars(getattr(self.lib, name)).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class MachineSpeed:
    """Scales measured times to a fixed machine speed.

    Other tenants of a shared machine change its speed by 20 % and more
    within seconds.  A fixed pure-Python loop of dict and tuple work over a
    2 MB table, which never calls the library, is timed before and after
    every SEGMENT_S of measured work; the times in between are multiplied by
    NOMINAL_S over the loop's mean time at the two ends.
    """

    NOMINAL_S = 0.0031  # the loop's median on the 2-core machine of the baseline

    def __init__(self):
        self.table = [tuple((i * 7 + k) % 97 for k in range(6)) for i in range(20000)]
        self.last = self.sample()

    def sample(self):
        t0 = time.perf_counter()
        counts = {}
        for i in range(0, 20000, 7):
            row = self.table[(i * 131) % 20000]
            counts[row] = counts.get(row, 0) + 1
            [x for x in row if x & 1]
        return time.perf_counter() - t0

    def factor(self):
        """The scale for times measured since the previous call."""
        now = self.sample()
        scale = 2 * self.NOMINAL_S / (self.last + now)
        self.last = now
        return scale


class Record:
    """Latencies and check outcomes of the operations run so far."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = []  # (op index, seconds)
        self.status = []  # (op index, "ok" | "fail" | "undecided")
        self.details = []  # (op index, traced_detail of the result), traced runs only
        self.passes = 0
        self.measured = []  # unscaled busy seconds of each pass
        self.factors = []  # MachineSpeed factors applied

    def pass_rates(self):
        """Operations per second of busy library time, pass by pass."""
        n = len(self.ops)
        return [n / sum(dt for _, dt in self.samples[k * n : (k + 1) * n]) for k in range(self.passes)]

    def ops_per_s(self):
        """Median over passes, which keeps a pass or two slowed by a burst
        of load out of the figure."""
        return statistics.median(self.pass_rates())


def traced_detail(kind, result):
    """The part of a result the per-layer counts read; nothing else is kept."""
    if kind == "nf":
        return len(result[1])
    if kind in ("simple", "braid-equiv"):
        return result.name
    if kind == "lift":
        return result.checks, result.exhausted
    return None


def run_passes(setup, speed, seconds, tracer=None, min_ops=MIN_OPS):
    """Whole passes over the operation list until the time and op floor are met.

    Every operation starts with the library's caches cleared, so its cost
    does not depend on which operations ran before it.  Latencies are
    stored scaled by ``speed``.
    """
    record = Record(setup.ops)
    speed.factor()
    start = time.perf_counter()
    while not record.passes or time.perf_counter() - start < seconds or len(record.samples) < min_ops:
        pending, busy = [], 0.0

        def flush():
            scale = speed.factor()
            record.factors.append(scale)
            record.samples.extend((i, dt * scale) for i, dt in pending)
            pending.clear()

        for i, op in enumerate(setup.ops):
            args = op.prepare()
            setup.clear_caches()
            if tracer:
                tracer.begin_op(i, op.kind)
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call(*args)
            except Exception as exc:  # a raising operation counts as failed
                error = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            if error is None:
                try:
                    status = op.check(result)
                except Exception as exc:  # a malformed answer fails its check
                    error = exc
            if error is not None:
                status = "fail"
                print(f"# op {i} {op.kind} failed: {error!r}", file=sys.stderr)
            elif status == "fail":
                print(f"# op {i} {op.kind} answered wrongly: {result!r:.200}", file=sys.stderr)
            pending.append((i, dt))
            busy += dt
            if sum(dt for _, dt in pending) >= SEGMENT_S:
                flush()
            record.status.append((i, status))
            if tracer and error is None:
                record.details.append((i, traced_detail(op.kind, result)))
        flush()
        record.measured.append(busy)
        record.passes += 1
    return record


def measure_setup(workload, seed, speed):
    """Median scaled wall time of fresh processes that only set up."""
    times = []
    speed.factor()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(  # no timeout: with one, the wait polls in sleeps of up to 50 ms
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append((time.perf_counter() - t0) * speed.factor())
    return statistics.median(times)


def end_to_end(record, setup_s):
    lat = [dt for _, dt in record.samples]
    return {
        "setup_s": setup_s,
        "ops_per_s": record.ops_per_s(),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- traced run -----------------------------------------------------------------------


def layer_values(record, tracer):
    """Per-layer metrics one traced record supports; None where it has no source."""
    ops, passes = record.ops, record.passes
    kinds = {op.kind for op in ops}
    out = dict.fromkeys(PER_LAYER)
    self_times = tracer.self_times()
    for metric, (names, op_kinds) in BUSY.items():
        hits = [s for name, op, s in self_times
                if name in names and (op_kinds is None or (op is not None and ops[op].kind in op_kinds))]
        if hits:
            out[metric] = sum(hits) / passes * statistics.median(record.factors)
    buckets = collections.defaultdict(list)
    for i, dt in record.samples:
        if ops[i].bucket:
            buckets[ops[i].bucket].append(dt * 1e3)
    for bucket, values in buckets.items():
        out[bucket] = statistics.median(values)
    details = collections.defaultdict(list)
    for i, detail in record.details:
        details[ops[i].kind].append(detail)
    if tracer.compose_calls:
        out["permutations.compose_calls"] = tracer.compose_calls / passes
    if tracer.key_calls:
        out["braids.key_calls"] = tracer.key_calls / passes
        out["braids.key_letters"] = tracer.key_letters / passes
    if "nf" in kinds:
        out["hurwitz.nf_moves"] = sum(details["nf"]) / passes
    if "simple" in kinds:
        out["hurwitz.simplicity_undetermined"] = details["simple"].count("UNDETERMINED") / passes
    if "braid-equiv" in kinds:
        out["hurwitz.braid_equiv_unknown"] = details["braid-equiv"].count("UNKNOWN") / passes
    if "cover" in kinds:
        out["covering.calls"] = sum(name == "covering" for name, _, _ in self_times) / passes
    if kinds & {"orient-pos", "orient-neg"}:
        out["charts.segments"] = sum(op.detail["segments"] for op in ops if "segments" in op.detail)
    if "lift" in kinds:
        out["links.lift_checks"] = sum(checks for checks, _ in details["lift"]) / passes
        out["links.lift_exhausted"] = sum(exhausted for _, exhausted in details["lift"]) / passes
    return out


def compose_timings(lib, seed, speed):
    """Scaled ns per compose and per conjugation over seeded operands at d = 4 and d = 16."""
    rng = random.Random(f"operands:{seed}")
    P = lib.permutations.Permutation
    pairs = []
    for d in (4, 16):
        for _ in range(32):
            a, b = list(range(1, d + 1)), list(range(1, d + 1))
            rng.shuffle(a)
            rng.shuffle(b)
            pairs.append((P(tuple(a)), P(tuple(b)), tuple(a), tuple(b)))
    failures = sum(lib.permutations.compose(a, b).images != oracles.compose(x, y) for a, b, x, y in pairs)
    failures += sum((a ** b).images != oracles.conj(x, y) for a, b, x, y in pairs)
    compose = lib.permutations.compose
    rounds = 40
    per = {"compose": [], "conjugate": []}
    speed.factor()
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(rounds):
            for a, b, _, _ in pairs:
                compose(a, b)
        t1 = time.perf_counter_ns()
        for _ in range(rounds):
            for a, b, _, _ in pairs:
                a ** b
        t2 = time.perf_counter_ns()
        scale = speed.factor()
        per["compose"].append((t1 - t0) * scale / (rounds * len(pairs)))
        per["conjugate"].append((t2 - t1) * scale / (rounds * len(pairs)))
    return statistics.median(per["compose"]), statistics.median(per["conjugate"]), failures


def interpreter_timings(speed):
    """Median scaled wall ms of a bare interpreter and of importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def wall(code):
        times = []
        speed.factor()
        for _ in range(START_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            times.append((time.perf_counter() - t0) * 1e3 * speed.factor())
        return statistics.median(times)

    start = wall("pass")
    return start, wall("import branchcover.cli") - start


def probe(workload, seed, lib, speed):
    """One operation per kind and bucket of every other workload, traced.

    Supplies the layers this workload does not exercise, so every per-layer
    metric is a measurement in every traced run.
    """
    merged = dict.fromkeys(PER_LAYER)
    for other in OPS.WORKLOADS:
        if other == workload:
            continue
        setup = ProbeSetup(other, seed, lib)
        tracer = Tracer()
        tracer.install(lib)
        try:
            record = run_passes(setup, speed, 0, tracer, min_ops=0)
        finally:
            tracer.uninstall()
            setup.close()
        values = layer_values(record, tracer)
        for name, value in values.items():
            if merged[name] is None:
                merged[name] = value
    return merged


class ProbeSetup(Setup):
    """The first operation of each kind and bucket, in generation order, without warm-up."""

    def __init__(self, workload, seed, lib):
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.lib = lib
        chosen, seen = [], set()
        for op in OPS.build(workload, f"probe:{seed}", lib, ROOT, self.workdir):
            if (op.kind, op.bucket) not in seen:
                seen.add((op.kind, op.bucket))
                chosen.append(op)
        self.ops = chosen


def traced_run(setup, speed, workload, seed, seconds):
    plain = run_passes(setup, speed, seconds / 2)
    tracer = Tracer()
    tracer.install(setup.lib)
    try:
        traced = run_passes(setup, speed, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    values = layer_values(traced, tracer)
    fallback = probe(workload, seed, setup.lib, speed)
    values.update({k: v for k, v in fallback.items() if values[k] is None})
    statuses = plain.status + traced.status
    layers = {}
    for i, status in statuses:
        if status == "fail":
            layer = setup.ops[i].layer
            layers[layer] = layers.get(layer, 0) + 1
    compose_ns, conjugate_ns, perm_failures = compose_timings(setup.lib, seed, speed)
    start_ms, import_ms = interpreter_timings(speed)
    values.update({
        "fail_ratio": sum(s == "fail" for _, s in statuses) / len(statuses),
        "undecided_ratio": sum(s == "undecided" for _, s in statuses) / len(statuses),
        "trace.overhead_ops_per_s": traced.ops_per_s() - plain.ops_per_s(),
        "permutations.compose_ns": compose_ns,
        "permutations.conjugate_ns": conjugate_ns,
        "cli.python_start_ms": start_ms,
        "cli.import_ms": import_ms,
    })
    for layer in ("permutations", "braids", "hurwitz", "covering", "charts", "links", "quandles", "cli"):
        values[f"{layer}.fail"] = layers.get(layer, 0) + (perm_failures if layer == "permutations" else 0)
    missing = [k for k, v in values.items() if v is None]
    if missing:
        fail(f"traced run has no source for {missing}")
    print(f"# tracing overhead: untraced {plain.ops_per_s():.3f} ops/s, traced "
          f"{traced.ops_per_s():.3f} ops/s")
    return plain, traced, values


# -- main -------------------------------------------------------------------------------


def summary(setup, records):
    counts = collections.Counter()
    for record in records:
        for i, status in record.status:
            counts[setup.ops[i].kind, status] += 1
    samples = sum(len(r.samples) for r in records)
    passes = sum(r.passes for r in records)
    print(f"# inputs sha256 {setup.digest}")
    print(f"# {len(setup.ops)} ops per pass, {passes} passes, {samples} latency samples")
    for record in records:
        n = len(record.ops)
        print("# unscaled ops/s by pass: " + " ".join(f"{n / busy:.4g}" for busy in record.measured))
        print("# scaled ops/s by pass:   " + " ".join(f"{rate:.4g}" for rate in record.pass_rates()))
        print(f"# speed factors: median {statistics.median(record.factors):.4f}, "
              f"range {min(record.factors):.4f}-{max(record.factors):.4f}")
    for (kind, status), n in sorted(counts.items()):
        print(f"# {kind:<16} {status:<10} {n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=OPS.WORKLOADS)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lib = import_library()
    if args.setup_only:
        Setup(lib, args.workload, args.seed).close()
        return 0
    speed = MachineSpeed()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, speed)
    setup = Setup(lib, args.workload, args.seed)
    try:
        if args.trace:
            plain, traced, values = traced_run(setup, speed, args.workload, args.seed, args.seconds)
            records = [plain, traced]
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            records = [run_passes(setup, speed, args.seconds)]
            values = end_to_end(records[0], setup_s)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        summary(setup, records)
    finally:
        setup.close()
    statuses = [s for r in records for _, s in r.status]
    failed = sum(s == "fail" for s in statuses)
    if any(not math.isfinite(m["value"]) for m in metrics.values()):
        fail("a metric is not finite")
    print(json.dumps({"correct": failed == 0, "attempted": len(statuses), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
