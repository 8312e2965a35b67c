#!/usr/bin/env python3
"""natstrat benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload casestudy|nested|synth|scale \
        [--seed 1] [--seconds 10] [--trace 0|1]

Run it from the root of a source checkout; it uses the natstrat package
under src/ and nothing installed. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The worker's full report (pass times, errors, spans) goes to bench/out/.

Each workload runs in its own worker process (worker.py). Set-up is timed
in SETUP_SAMPLES fresh processes, the worker's own included, and the median
is reported as setup_s.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("casestudy", "nested", "synth", "scale")
SETUP_SAMPLES = 7
DEADLINE_S = 170     # the whole run, set-up processes included
DEFAULT_SEED = 1


def run_worker(extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the worker")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="natstrat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    package = ROOT / "src" / "natstrat"
    if not (package / "__init__.py").is_file():
        print(f"no natstrat sources under {package}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no timed import compiles
    if not (compileall.compile_dir(package, quiet=1)
            and compileall.compile_dir(BENCH, quiet=1, maxlevels=0)):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        report = run_worker(common, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(report)

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
    report["setup_samples_s"] = [s["setup_s"] for s in setups]
    report["setup_samples_wall_s"] = [s["setup_wall_s"] for s in setups]
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for error in report["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
