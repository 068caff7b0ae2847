"""bel benchmark: seeded single-graph query batches, timed end to end, with
every answer checked against an independent oracle.

    python3 perfbench/run.py --workload powers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports ``bel`` from the
checkout's ``src/`` and nothing else.  The load is a closed loop: one
process, one thread, one caller, each query issued after the previous one
returns (a researcher sweeping graphs).

``--trace 0`` reports the end-to-end metrics: the median set-up time of
several fresh processes, then as many passes over the batch as fit in
``--seconds``.  Every end-to-end time is calibrated against a fixed
pure-Python reference computation timed next to it (see ``reference``),
which takes out the host's drifting speed; raw wall times are printed
beside them.  ``--trace 1`` reports the per-layer metrics instead: it
times untraced passes, then one traced pass, checks that every expected
layer wrapper fired, and compares the traced run's exact counts with a
second traced run in a fresh process under another hash seed.

Answers are compared with expected digests outside the timed region;
expected digests come from oracles (workloads.py) and are cached per
(workload, seed) under perfbench/out/.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.  Exit status: 0
when every answer and check passed, 1 when one failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("powers", "primes", "combinatorial")
SETUP_REPEATS = 7
SETUP_REFS = 3  # reference timings a set-up probe takes once it is ready
MIN_PASSES = 4  # with 25-query batches: 100+ samples, so the tail is always p90
TAIL_LADDER = (999, 990, 900, 750, 500)  # per mille, highest first
MIN_BEYOND = 10
END_TO_END = (("setup_s", "s"), ("batch_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))
CHILD_TIMEOUT_S = 170
# The reference computation (see `reference`) and its typical duration between
# queries on the development host (Intel Xeon at 2.1 GHz, 2 vCPUs, CPython
# 3.11): the median, over 30 runs, of a run's mean reference timing.
# Calibrated times are wall times scaled to a host that runs the reference in
# exactly REF_NOMINAL_S, so on that host they read close to wall times.
REF_STEPS = 6000
REF_NOMINAL_S = 0.0080
REF_HALF_WINDOW = 1  # a latency is scaled by the median of the 2 * (1 + this) nearest samples
REF_EVERY_S = 0.25  # one more reference timing per this much query time before it


# ------------------------------------------------------------- statistics

def tail_percentile(samples) -> tuple:
    """(percentile, value): the highest ladder percentile with at least
    MIN_BEYOND samples strictly beyond its nearest-rank position; the
    median when no ladder entry has that many."""
    xs = sorted(samples)
    n = len(xs)
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)  # nearest rank, ceil(p * n), 1-based
        if n - rank >= MIN_BEYOND:
            return per_mille / 10, xs[rank - 1]
    return 50.0, statistics.median(xs)


def answer_failures(digests_per_pass, expected) -> int:
    """Queries, over all passes, whose answer digest is not the expected one."""
    return sum(d != e for digests in digests_per_pass
               for d, e in zip(digests, expected, strict=True))


# ------------------------------------------------------------ calibration

def _reference_work() -> list:
    """Fixed pure-Python work shaped like the kernel's inner loops: packed
    integer keys, dict accumulation, Fraction arithmetic, a sort.  It calls
    nothing in ``bel``, so no change to the library can move it."""
    acc = {}
    x = 12345
    for i in range(REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        m = (x >> 9) << 32 | (x & 0x3FF)
        acc[m & 0xFFFFF] = acc.get(m & 0xFFFFF, 0) + m
        if i % 8 == 0:
            key = (x & 0xFF, i & 0xF)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(x % 97 - 48, (x >> 3) % 13 + 1)
    return sorted(k for k in acc if type(k) is int)


def reference() -> float:
    """Wall seconds of one reference computation, with the cyclic collector
    paused so that the heap the queries left behind does not time it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_block(after_s: float) -> float:
    """Mean of 1 + after_s // REF_EVERY_S reference timings, taken after a
    query that ran for after_s seconds, so that the host's speed is sampled
    about as densely as query time passes."""
    return statistics.fmean(reference() for _ in range(1 + int(after_s / REF_EVERY_S)))


def calibrated(latencies, refs) -> list:
    """Each latency scaled to the nominal reference speed.  refs[i] was
    timed just before query i and refs[-1] after the last one; query i is
    scaled by the median of the samples from refs[i - REF_HALF_WINDOW] to
    refs[i + 1 + REF_HALF_WINDOW], clipped to the pass (each sample is a
    `reference_block`).  The host's speed drifts by tens of percent over
    seconds to minutes, and the reference timed beside a query slows with
    it."""
    assert len(refs) == len(latencies) + 1
    h = REF_HALF_WINDOW
    return [lat * REF_NOMINAL_S / statistics.median(refs[max(0, i - h):i + 2 + h])
            for i, lat in enumerate(latencies)]


def run_speed(passes) -> float:
    """REF_NOMINAL_S over the run's mean reference time, where each query's
    time weighs the reference samples just before and after it: the host's
    speed averaged over the time the queries ran."""
    weighted = sum(lat * (refs[i] + refs[i + 1]) / 2
                   for lats, _, refs in passes for i, lat in enumerate(lats))
    return REF_NOMINAL_S * sum(sum(lats) for lats, _, _ in passes) / weighted


# ---------------------------------------------------------------- running

def run_pass(wl, queries, tracer=None) -> tuple:
    """One closed-loop pass: per-query latencies, answer digests and the
    reference timings around the queries (see `calibrated`).  The answer is
    canonicalised and digested after the query's clock stops."""
    from workloads import digest

    latencies, digests, refs = [], [], []
    for i, q in enumerate(queries):
        refs.append(reference_block(latencies[-1] if latencies else 0.0))
        if tracer is not None:
            tracer.qid = i
        t0 = perf_counter()
        try:
            raw = wl.call(q)
        except Exception as exc:  # a raising query is a failed query; keep measuring
            latencies.append(perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            digests.append(f"raised {type(exc).__name__}")
            continue
        latencies.append(perf_counter() - t0)
        digests.append(digest(wl.answer(q, raw)))
    refs.append(reference_block(latencies[-1]))
    return latencies, digests, refs


def timed_passes(wl, queries, seconds: float, min_passes: int = MIN_PASSES) -> tuple:
    """Passes over the batch while the next one is expected to end within
    `seconds` (at least min_passes), and the peak resident set in MB after
    each pass."""
    passes, peaks = [], []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(wl, queries))
        last = perf_counter() - t0
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if len(passes) >= min_passes and perf_counter() - begin + last > seconds:
            return passes, peaks


def expected_digests(wl, queries, seed: int) -> list:
    """Oracle digests for this batch, cached per (workload, seed, inputs)."""
    from workloads import digest, inputs_digest

    key = inputs_digest(queries)
    path = OUT / f"expected-{wl.name}-{seed}.json"
    if path.is_file():
        cached = json.loads(path.read_text())
        if cached.get("inputs") == key:
            return cached["expected"]
    expected = []
    for q in queries:
        try:
            expected.append(digest(wl.oracle(q)))
        except Exception as exc:  # an oracle that raises fails its query
            traceback.print_exc(file=sys.stderr)
            expected.append(f"oracle raised {type(exc).__name__}")
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps({"inputs": key, "expected": expected}, indent=1) + "\n")
    return expected


def self_command(workload: str, seed: int, *extra: str) -> list:
    """This script's command line for one workload and seed."""
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def child(args, mode: str, env=None) -> str:
    """Run this script as a child in `mode`; return its stdout."""
    done = subprocess.run(self_command(args.workload, args.seed, "--child", mode),
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=True, text=True)
    return done.stdout


def setup_times(args) -> tuple:
    """Wall and calibrated times from spawning a fresh interpreter to its
    first query being ready: interpreter start, ``import bel`` and input
    generation.  Once ready, the probe times the reference SETUP_REFS times
    and reports the mean, which calibrates its spawn: the probe may run on
    another core than this process, and its own timing tracks it best."""
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        cmd = self_command(args.workload, args.seed, "--child", "setup")
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        walls.append(wall)
        scaled.append(wall * REF_NOMINAL_S / float(rest))
    return walls, scaled


# ------------------------------------------------------------ environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    from bel.fields import QQ
    from bel.kernel import KERNEL_NAME

    return {
        "kernel": KERNEL_NAME,
        "rational_backend": type(QQ.one).__module__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------- reports

def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def finish(args, lines, attempted, failed, metrics, problems, extra=None) -> int:
    correct = failed == 0 and not problems
    env = environment(args.seed)
    print(f"environment: {json.dumps(env)}")
    for line in lines:
        print(line)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "problems": problems, **result, **(extra or {})}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def end_to_end(args, wl, queries) -> int:
    setup_walls, setups = setup_times(args)
    passes, peaks = timed_passes(wl, queries, args.seconds)
    expected = expected_digests(wl, queries, args.seed)
    failed = answer_failures([d for _, d, _ in passes], expected)
    scaled = [calibrated(lat, refs) for lat, _, refs in passes]
    latencies = [x for lat in scaled for x in lat]
    walls = [x for lat, _, _ in passes for x in lat]
    batch_wall = statistics.mean(sum(lat) for lat, _, _ in passes)
    attempted = len(latencies)
    p, tail = tail_percentile(latencies)
    speed = run_speed(passes)
    values = {
        "setup_s": statistics.median(setups),
        # a whole-run scale: the batch is a sum dominated by a few long
        # queries, and the host's speed during one long query is poorly
        # sampled by the references next to it
        "batch_s": batch_wall * speed,
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_tail_ms": 1000 * tail,
        # read after a fixed number of passes: the peak creeps up with every
        # pass, and the pass count follows the host's speed
        "peak_rss_mb": peaks[MIN_PASSES - 1],
    }
    raw = {
        "setup_s": statistics.median(setup_walls),
        "batch_s": batch_wall,
        "item_p50_ms": 1000 * statistics.median(walls),
        "item_tail_ms": 1000 * tail_percentile(walls)[1],
        "peak_rss_mb": values["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "batch_s": f"mean of {len(passes)} passes of {len(queries)} queries x host speed",
        "item_p50_ms": f"median of {attempted} queries, each calibrated",
        "item_tail_ms": f"p{p:g} of {attempted} queries, each calibrated, >= {MIN_BEYOND} beyond it",
        "peak_rss_mb": f"peak resident set of the measuring process after {MIN_PASSES} passes",
    }
    lines = [f"workload {args.workload}: closed loop, 1 caller, {len(queries)} queries "
             f"x {len(passes)} passes (budget {args.seconds:g} s, at least {MIN_PASSES} passes)",
             f"  host speed {speed:.3f} of nominal (reference samples weighted by query time); "
             "calibrated value, then raw wall value"]
    lines += [f"  {name:<13} {values[name]:>12.4f} {raw[name]:>12.4f} {unit:<3} {notes[name]}"
              for name, unit in END_TO_END]
    lines.append(f"  {'failed_ratio':<13} {failed / attempted:>12.4f} {'':>12}     {failed}/{attempted} "
                 "answers differ from the oracle or raised")
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return finish(args, lines, attempted, failed, metrics, [],
                  {"tail_percentile": p, "setups_s": setup_walls, "host_speed": speed,
                   "raw": raw, "passes_s": [sum(lat) for lat, _, _ in passes],
                   "latencies_s": [lat for lat, _, _ in passes],
                   "refs_s": [rs for _, _, rs in passes]})


def traced_pass(wl, queries):
    from tracing import Analysis, Tracer

    tracer = Tracer()
    with tracer:
        latencies, digests, _ = run_pass(wl, queries, tracer)
    return tracer.spans, Analysis(tracer.spans), latencies, digests


def layers(args, wl, queries) -> int:
    from tracing import METRICS, count_differences, coverage_problems

    untraced, _ = timed_passes(wl, queries, args.seconds / 2, min_passes=2)
    spans, analysis, latencies, digests = traced_pass(wl, queries)
    untraced_batch = statistics.median(sum(lat) for lat, _, _ in untraced)
    traced_batch = sum(latencies)
    expected = expected_digests(wl, queries, args.seed)
    all_digests = [d for _, d, _ in untraced] + [digests]
    failed = answer_failures(all_digests, expected)
    attempted = len(queries) * len(all_digests)

    counts = analysis.counts()
    other_hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONHASHSEED=other_hash_seed)
    again = json.loads(child(args, "counts", env).splitlines()[-1])
    problems = coverage_problems(args.workload, analysis) + count_differences(counts, again)
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{args.workload}-{args.seed}.json.gz")

    values = analysis.metrics()
    values["trace.overhead_ratio"] = traced_batch / untraced_batch - 1
    units = {name: unit for name, unit, _ in METRICS}
    lines = [f"workload {args.workload}: untraced batch {untraced_batch:.4f} s "
             f"(median of {len(untraced)}), traced batch {traced_batch:.4f} s, "
             f"{len(spans)} spans, {len(counts)} exact counts repeated"]
    lines += [f"  {name:<52} {values[name]:>14.6g} {units[name]}" for name, _, _ in METRICS]
    lines.append("  self-time share of the traced batch:")
    lines += [f"    {name:<50} {share:7.2%}"
              for name, share in analysis.self_shares(traced_batch).items() if share >= 0.001]
    metrics = {name: metric(values[name], unit) for name, unit, _ in METRICS}
    return finish(args, lines, attempted, failed, metrics, problems,
                  {"counts": counts})


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = self_command(name, args.seed, "--seconds", str(args.seconds),
                           "--trace", str(args.trace))
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return 2
        print("\n".join(lines[:-1]))
        status = max(status, done.returncode)
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(totals))
    return status


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "counts"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bel" / "__init__.py").is_file():
        print(f"error: no bel sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bel
    from workloads import WORKLOADS, generate

    if Path(bel.__file__).resolve().parent != SRC / "bel":
        print(f"error: imported bel from {bel.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    queries = generate(args.workload, args.seed)
    if args.child == "setup":
        print("ready", flush=True)
        print(statistics.fmean(reference() for _ in range(SETUP_REFS)))
        return 0
    if args.child == "counts":
        print(json.dumps(traced_pass(wl, queries)[1].counts()))
        return 0
    return layers(args, wl, queries) if args.trace else end_to_end(args, wl, queries)


if __name__ == "__main__":
    sys.exit(main())
