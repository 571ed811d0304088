"""One workload process: set up, run passes for the requested time, report.

``run.py`` starts this module in a fresh interpreter and reads the JSON
file it writes.  ``setup_s`` runs from ``--spawned-at`` (the parent's
``time.monotonic()`` just before the start) to the moment every input is
built; both processes read the same system-wide monotonic clock.

A pass runs the workload's legs in order, with runs of the reference probe
(``probe.py``) before the first leg and after each one.  Leg times,
probe runs and CPU time exclude each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

#: probe kernel runs after set-up; their median scales ``setup_s``
SETUP_RUNS = 9


def _cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def versions() -> dict:
    """Interpreter, numpy, scipy and BLAS of this process."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import probe as calibration
    import workloads
    import tracer as tracing

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    legs = wl.setup(args.seed, args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    probe = calibration.Probe()
    result = {
        "setup_s": setup_s,
        "setup_ref_s": calibration.scaled(setup_s, probe.runs(SETUP_RUNS)),
    }
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    walls, scaled, timings, checks, oracle = [], [], [], [], []
    cpu_s = 0.0
    per_gap = calibration.runs_per_gap(len(legs))
    begin, begin_perf = time.monotonic(), time.perf_counter()
    while True:
        outcome = workloads.Outcome()
        durations, gaps = [], [probe.runs(per_gap)]
        for leg in legs:
            t0, cpu0 = time.perf_counter(), _cpu_s()
            try:
                leg(outcome)
            except Exception:  # noqa: BLE001 - an erroring leg is a failed check
                traceback.print_exc()
                outcome.add("workload.error", False, traceback.format_exc(limit=3))
            durations.append(time.perf_counter() - t0)
            cpu_s += _cpu_s() - cpu0
            gaps.append(probe.runs(per_gap))
        walls.append(sum(durations))
        scaled.append(calibration.scaled(walls[-1], [r for gap in gaps for r in gap]))
        timings.append({"legs": durations, "probes": gaps})
        checks += outcome.checks
        oracle.append(outcome.oracle_err)
        # another pass only if it ends nearer to --seconds than stopping now
        elapsed = time.monotonic() - begin
        if (elapsed + statistics.median(walls) / 2.0 > args.seconds
                or not all(c.passed for c in outcome.checks)):
            break

    attempted, failed = workloads.tally(checks)
    result.update({
        "env": dict(versions(), harness_threads=wl.threads),
        "walls": walls,
        "scaled": scaled,
        "timings": timings,
        "probe_s": statistics.median(r for t in timings for gap in t["probes"] for r in gap),
        "probe_reference_s": calibration.REFERENCE_S,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{c.name}: {c.detail}" for c in checks if not c.passed],
        "oracle_err": oracle,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": cpu_s,
    })
    if tracer is not None:
        passes = len(walls)
        layers = tracing.layer_metrics(tracer, passes)
        layers["process.cpu_s"] = cpu_s / passes
        layers["harness.pool.cpu_util"] = 0.0
        for name in workloads.harness.EXPERIMENTS:
            layers[f"harness.exp.{name}.wall_s"] = 0.0
        if args.workload == "desk-all":
            layers["harness.pool.cpu_util"] = cpu_s / (wl.threads * sum(walls))
            manifest = json.loads((args.work_dir / workloads.DESK_OUT / "manifest.json").read_text())
            for name, entry in manifest["experiments"].items():
                layers[f"harness.exp.{name}.wall_s"] = entry["wall_clock"]
        layers["trace.overhead_s"] = tracing.wrapper_cost() * len(tracer.spans) / passes
        layers["trace.coverage"] = tracer.root_time(
            threading.main_thread().ident, since=begin_perf
        ) / sum(walls)
        result["layers"] = layers
        tracer.write(args.work_dir / "spans.jsonl.gz")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
