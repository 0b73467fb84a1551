"""spineforms benchmark.

Run one workload in this process:

    python3 bench/run.py --workload formal-words --seed 1 --seconds 20 --trace 0

Each workload builds its inputs from the seed (set-up), then runs its
operations back to back, one caller in one process, checking every
result.  It runs whole rounds of inputs until ``--seconds`` have passed
and every input has run at least once, so a run can last up to one
pass over the inputs longer.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it measures untraced and then traced,
reports the per-layer metrics, the size counters and the tracing
overhead, prints the per-layer table and writes every span to
``bench/out/``.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (times are CPU times at a reference host speed, see
hostspeed.py; the wall-clock throughput is printed alongside):

* ops_per_s: operations completed per second of operation time;
* op_p50_ms, op_tail_ms: median and tail of the inputs' latencies (each
  input's mean over every time it ran), the tail at the highest of
  p90/p99/p99.9 with at least ten inputs beyond;
* setup_s: import in a fresh interpreter, input generation and warm-up,
  the median of SETUP_REPS repetitions;
* peak_rss_mb: peak resident memory of the process.  On formal-words
  the heaviest word sets it (one can take 10 MB for a moment);
* failed_ratio: failed checks over operations attempted, printed and
  given as ``failed`` and ``attempted`` in the JSON line.

Run every workload, each in its own fresh process, untraced once and
traced twice (the size counters of the two traced runs must agree):

    python3 bench/run.py --seed 1 --seconds 20

Exit status: 0 when every check held, 1 when a check failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFEST = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))
SETUP_REPS = 3
WARMUP_OPS = 16  # operations run once in set-up, before anything is timed
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
# Timed and scaled to the reference host speed inside the fresh interpreter.
IMPORT_PROBE = ("import time; t0 = time.thread_time(); import spineforms; dt = time.thread_time() - t0; "
                "import hostspeed; print(dt * hostspeed.scale_now())")
# Span and counter names, in the order of the manifest's layer map.
SPANS = tuple(dict.fromkeys(n for row in MANIFEST["layer_map"] for n in row["spans"]))
COUNTERS = tuple(dict.fromkeys(n for row in MANIFEST["layer_map"] for n in row["counters"]))


def import_seconds() -> float:
    """Time to import spineforms in a fresh interpreter, scaled to the
    reference host speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError("importing spineforms failed:\n" + done.stderr)
    return float(done.stdout)


class Run:
    """Operations attempted and failed in one process, with the first
    few failures kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, T, op) -> bool:
        self.attempted += 1
        try:
            ok = T("bench.op", op)
            why = "check failed in operation %d" % T.op_id
        except Exception:
            ok = False
            why = traceback.format_exc()
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(why)
        return ok


def run_ops(run: Run, ops, T) -> None:
    for op in ops:
        run.op(T, op)


def measure(run: Run, wl, T, clock, seconds: float) -> dict:
    """Closed loop, one caller: run operations back to back, whole
    rounds at a time, until ``seconds`` have passed and at least one
    whole pass over the inputs is done.

    Times come from ``clock``, at the reference host speed.
    ops_per_s is every operation done over the sum of their times.  An
    input's latency is the mean of its times over every run of it; the
    latency percentiles are taken over those, one per input, so the
    memory they take does not depend on how fast the code runs.
    """
    n = wl.pass_len
    total = [0.0] * n
    count = [0] * n
    raw = 0.0
    k = 0
    probes = len(clock.probes)
    deadline = perf_counter() + seconds
    for r, ops in enumerate(wl.round_ops(T, None)):
        if r >= len(wl.rounds) and perf_counter() >= deadline:
            break
        for op in ops:
            T.op_id = k
            r0, t0 = perf_counter(), clock()
            run.op(T, op)
            t1, r1 = clock(), perf_counter()
            raw += r1 - r0
            j = k % n
            total[j] += t1 - t0
            count[j] += 1
            k += 1
    ordered = sorted(total[j] / count[j] for j in range(n))
    m = len(ordered)
    tail_pct = max([q for q in TAIL_LADDER if m - math.ceil(q / 100 * m) >= 10], default=50.0)
    rank = max(1, math.ceil(tail_pct / 100 * m))
    return {
        "ops": k,
        "passes": k / n,
        "distinct": m,
        "ops_per_s": k / sum(total),
        "raw_ops_per_s": k / raw,
        "host_slowdown": statistics.median(clock.probes[probes:]) / hostspeed.NOMINAL_S,
        "op_p50_ms": 1000 * statistics.median(ordered),
        "op_tail_ms": 1000 * ordered[rank - 1],
        "tail_pct": tail_pct,
        "tail_beyond": m - rank,
    }


def setup(run: Run, name: str, seed: int, tracer, clock):
    """Import, input generation and warm-up (WARMUP_OPS operations),
    repeated SETUP_REPS times in this process (the import in a fresh
    interpreter each time), each at the reference host speed.  Returns
    the last workload built and the median set-up time."""
    from tracing import NullTracer
    import workloads

    times, digests, wl = [], [], None
    for rep in range(SETUP_REPS):
        T = tracer if rep == SETUP_REPS - 1 else NullTracer()
        t_import = import_seconds()
        wl = None
        t0 = clock()
        wl = workloads.WORKLOADS[name](seed, T)
        run_ops(run, itertools.islice(next(wl.round_ops(NullTracer(), None)), WARMUP_OPS), NullTracer())
        times.append(t_import + clock() - t0)
        digests.append(wl.digest.hexdigest())
    if len(set(digests)) != 1:
        raise RuntimeError("inputs differ between set-up repetitions: %s" % digests)
    return wl, statistics.median(times), times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_e2e(label: str, m: dict, setup_s: float, run: Run) -> None:
    print("%s: %d operations, %.2f passes over %d inputs; host ran %.2fx slower than reference" % (
        label, m["ops"], m["passes"], m["distinct"], m["host_slowdown"]))
    print("  ops_per_s    %.3f 1/s (wall clock, probes included: %.3f 1/s)" % (m["ops_per_s"], m["raw_ops_per_s"]))
    print("  op_p50_ms    %.4f ms" % m["op_p50_ms"])
    print("  op_tail_ms   %.4f ms (p%g, %d of %d samples beyond)" % (
        m["op_tail_ms"], m["tail_pct"], m["tail_beyond"], m["distinct"]))
    print("  setup_s      %.4f s" % setup_s)
    print("  peak_rss_mb  %.2f MB" % peak_rss_mb())
    print("  failed_ratio %g (%d of %d)" % (run.failed / run.attempted, run.failed, run.attempted))


def layer_metrics(tracer, counters, untraced: dict, traced: dict) -> dict:
    per = tracer.per_name()
    out = {}
    for name in SPANS:
        calls, self_s = per.get(name, (0, 0.0))
        out[name + ".calls"] = {"value": calls, "unit": "count"}
        out[name + ".self_s"] = {"value": self_s, "unit": "s"}
    unknown = sorted(set(per) - set(SPANS))
    if unknown:
        raise RuntimeError("spans missing from SPANS: %s" % unknown)
    values = counters.metrics()
    if set(values) != set(COUNTERS):
        raise RuntimeError("counters differ from the manifest's: %s" % sorted(set(values) ^ set(COUNTERS)))
    for name in COUNTERS:
        value, unit = values[name]
        out[name] = {"value": value, "unit": unit}
    out["trace.untraced_ops_per_s"] = {"value": untraced["ops_per_s"], "unit": "1/s"}
    out["trace.traced_ops_per_s"] = {"value": traced["ops_per_s"], "unit": "1/s"}
    out["trace.overhead_ratio"] = {"value": untraced["ops_per_s"] / traced["ops_per_s"], "unit": "ratio"}
    return out


def print_layer_table(workload: str, metrics: dict) -> None:
    print("per-layer table for %s (self time over the traced set-up and traced loop):" % workload)
    for row in MANIFEST["layer_map"]:
        mark = "exercised" if workload in row["workloads"] else "predicted no change"
        print("  should move %s on %s [%s]" % (", ".join(row["moves"]), ", ".join(row["workloads"]), mark))
        names = [n + suffix for n in row["spans"] for suffix in (".calls", ".self_s")] + row["counters"]
        for n in names:
            print("    %-46s %s %s" % (n, metrics[n]["value"], metrics[n]["unit"]))


def run_workload(args) -> int:
    from tracing import NullTracer, Tracer

    run = Run()
    clock = hostspeed.Clock()
    tracer = Tracer(clock) if args.trace else NullTracer()
    try:
        return report(args, run, clock, tracer)
    finally:
        clock.stop()


def report(args, run: Run, clock, tracer) -> int:
    from tracing import NullTracer

    wl, setup_s, setup_times = setup(run, args.workload, args.seed, tracer, clock)
    print("workload %s seed %d seconds %g trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("inputs sha256 %s" % wl.digest.hexdigest())
    print("setup_s repetitions %s" % " ".join("%.4f" % t for t in setup_times))
    try:
        untraced = measure(run, wl, NullTracer(), clock, args.seconds)
        print_e2e("untraced", untraced, setup_s, run)
        if not args.trace:
            metrics = {
                "ops_per_s": {"value": untraced["ops_per_s"], "unit": "1/s"},
                "op_p50_ms": {"value": untraced["op_p50_ms"], "unit": "ms"},
                "op_tail_ms": {"value": untraced["op_tail_ms"], "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
        else:
            traced = measure(run, wl, tracer, clock, args.seconds)
            print_e2e("traced", traced, setup_s, run)
            counters = wl.counters()
            for ops in itertools.islice(wl.round_ops(NullTracer(), counters), len(wl.rounds)):
                run_ops(run, ops, NullTracer())
            metrics = layer_metrics(tracer, counters, untraced, traced)
            print("tracing overhead: untraced %.3f 1/s against traced %.3f 1/s (ratio %.4f)" % (
                untraced["ops_per_s"], traced["ops_per_s"], metrics["trace.overhead_ratio"]["value"]))
            print_layer_table(args.workload, metrics)
            spans = BENCH / "out" / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))
            tracer.write(spans)
            print("spans written to %s" % spans.relative_to(ROOT))
    finally:
        if hasattr(wl, "close_scratch"):
            wl.close_scratch()
    for msg in run.messages:
        print(msg, file=sys.stderr)
    print("failed_ratio %g (%d of %d operations)" % (run.failed / run.attempted, run.failed, run.attempted))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def child(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    return done.returncode, result


def run_all(args) -> int:
    """Every workload in fresh processes: untraced, then traced twice
    with the size counters compared."""
    status = 0
    for name in MANIFEST["workloads"]:
        rc, _ = child(name, args.seed, args.seconds, 0)
        rc1, first = child(name, args.seed, args.seconds, 1)
        rc2, second = child(name, args.seed, args.seconds, 1)
        status = max(status, rc, rc1, rc2)
        a = {n: first.get("metrics", {}).get(n, {}).get("value") for n in COUNTERS}
        b = {n: second.get("metrics", {}).get(n, {}).get("value") for n in COUNTERS}
        same = a == b and None not in a.values()
        print("== %s: size counters %s across two traced runs" % (name, "repeat exactly" if same else "DIFFER"))
        if not same:
            status = max(status, 1)
    print("all workloads: %s" % ("ok" if status == 0 else "FAILED (exit %d)" % status))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *MANIFEST["workloads"]])
    parser.add_argument("--seed", type=int, default=MANIFEST["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spineforms" / "__init__.py").is_file():
        print("error: no spineforms package under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        return run_workload(args)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
