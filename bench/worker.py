"""One run of one benchmark workload, in this process.

Started by run.py; prints one JSON object as its last line of output. With
--setup-only it times the set-up (importing natstrat and building the
workload's inputs) and exits.

A run times whole passes over the workload's fixed list of operations, in an
order the seed shuffles for each pass, until --seconds have gone by (at
least one pass). Every answer is checked after its pass, outside the timed
region (see run_pass). With --trace 1 the passes of the first half of the
run are untraced, as the base for the tracing overhead, and the passes
after it are traced.

Times are reported at a reference machine speed. A shared 2-vCPU virtual
machine changed speed by up to 2x within a minute: a fixed interpreter loop
took 14 ms to 30 ms in successive 10-second windows, and a case-study pass
80 ms to 149 ms with it. So a short probe loop, which shares no code
with natstrat, measures the speed before every operation and every
PROBE_INTERVAL_S during it (from a timer signal, in this thread), and each
operation's time is multiplied by REFERENCE_PROBE_S over the probe's median
time. The probes' own time is not counted. Wall times stay in the report.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PROBE_ITERATIONS = 2_000
PROBE_INTERVAL_S = 0.2
REFERENCE_PROBE_S = 0.001


def elapsed_since(t0: float) -> float:
    return time.perf_counter() - t0


def probe_loop() -> float:
    """Fixed interpreter work that shares no code with natstrat (tuple keys,
    string formatting, dict updates, a sort); returns its wall time.

    The cyclic collector is off meanwhile: a collection of the running
    operation's heap, set off by the probe's allocations, would be charged
    to the probe and make the machine look slow."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(PROBE_ITERATIONS):
            key = (i % 997, i % 13, "q%d" % (i % 61))
            seen[key] = seen.get(key, 0) + 1
        sorted(seen)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe_speed() -> float:
    """Probe time now: the median of five probes."""
    return statistics.median(probe_loop() for _ in range(5))


class SpeedProbe:
    """Probes the speed every PROBE_INTERVAL_S while an operation runs. The
    timer signal's handler runs between bytecodes of this thread."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(ops, order, tracer=None):
    """Run the operations in `order`. Return the pass time at reference
    speed, its wall time and, per operation, its output (or the exception it
    raised) and its time at reference speed.

    Each operation starts from a collected heap, as a fresh natstrat command
    would: otherwise where the cyclic collector's thresholds happen to fall
    moves single operations by a fifth. An operation's time is scaled by the
    median probe just before it, during it and just after it. Collections and
    probes are not timed. A tracer's spans are scaled by the same factor."""
    outputs = []
    scaled_total = wall_total = 0.0
    probe = SpeedProbe()
    gc.collect()
    before = probe_speed()
    for i in order:
        gc.collect()
        with probe:
            t0 = time.perf_counter()
            try:
                out, exc = ops[i].run(), None
            except Exception as e:  # a failed operation is counted, not fatal
                out, exc = None, f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0 - probe.spent
        gc.collect()
        after = probe_speed()
        speed = statistics.median([before, after, *probe.samples])
        scaled = seconds * REFERENCE_PROBE_S / speed
        if tracer is not None:
            tracer.commit(REFERENCE_PROBE_S / speed)
        before = after
        scaled_total += scaled
        wall_total += seconds
        outputs.append((i, out, exc, scaled))
    return scaled_total, wall_total, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import natstrat
    if Path(natstrat.__file__).resolve().parent != (SRC / "natstrat").resolve():
        raise SystemExit(f"natstrat imported from {natstrat.__file__}, not {SRC}")
    import workloads

    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload](rng)
    setup_wall_s = time.perf_counter() - t0
    setup_s = setup_wall_s * REFERENCE_PROBE_S / probe_speed()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    workload.prepare()
    ops = workload.ops
    tracer = None
    pass_times, traced_times, wall_times = [], [], []
    attempted = failed = results = 0
    errors: list[str] = []
    op_times: dict[str, list[float]] = {}
    started = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        if args.trace and tracer is None and pass_times \
                and elapsed_since(started) >= args.seconds / 2:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(extra_modules=[workloads])
        if tracer is not None:
            tracer.active = True
        seconds, wall, outputs = run_pass(ops, order, tracer)
        wall_times.append(wall)
        if tracer is not None:
            tracer.active = False
            traced_times.append(seconds)
        else:
            pass_times.append(seconds)
        for i, out, exc, op_seconds in outputs:
            attempted += 1
            op_times.setdefault(ops[i].name, []).append(op_seconds)
            if exc is not None:
                failed += 1
                errors.append(f"{ops[i].name}: {exc}")
                continue
            problem = ops[i].check(out)
            if problem is None:
                results += ops[i].results
            else:
                errors.append(f"{ops[i].name}: {problem}")
        if elapsed_since(started) >= args.seconds and (not args.trace or traced_times):
            break

    wrong = len(errors) - failed
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "setup_wall_s": setup_wall_s,
        "pass_s": pass_times, "traced_pass_s": traced_times, "pass_wall_s": wall_times,
        "attempted": attempted, "failed": failed, "results": results,
        "errors": errors[:20], "wrong": wrong,
        "op_median_s": {name: statistics.median(t) for name, t in op_times.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        base = statistics.median(pass_times)
        metrics = tracer.layer_metrics(len(traced_times))
        metrics["trace.base_pass_ms"] = {"value": base * 1000, "unit": "ms"}
        metrics["trace.overhead_ms"] = {
            "value": (statistics.median(traced_times) - base) * 1000, "unit": "ms"}
        report["metrics"] = metrics
        report["trace"] = tracer.dump()
    else:
        timed = sum(pass_times)
        report["metrics"] = {
            "results_per_s": {"value": results / timed, "unit": "1/s"},
            "pass_p50_ms": {"value": statistics.median(pass_times) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
