"""adsdirac benchmark: run one workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer ones from a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the runs write goes to
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("desk-all", "scatter", "channel-scan")
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("oracle_err", "1"))
#: extra set-up-only processes per run; their median (with the measured
#: process's own set-up) is ``setup_s``
SETUP_PROBES = 3
#: a run must end within 180 s; children share what is left of this budget
RUN_LIMIT_S = 170.0

BENCH_DIR = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    pass


def desk_config(seed: int) -> dict:
    """The pinned desk config of the README quick start; the seed feeds the
    harness's hermiticity probe fields."""
    return {
        "M": 1.0, "l": 1.0, "m": 1.0, "channel": [0.5, 0.5],
        "grid": {"x_min": -32.0, "n": 2048},
        "seed": int(seed),
        "options": {"mourre": {"n": 320}, "spectrum": {"n": 320}},
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Starts workload processes in the checkout and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.work = root / ".perfbench" / f"{workload}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if workload == "desk-all":
            (self.work / "desk.json").write_text(json.dumps(desk_config(seed)))
        self.env = dict(os.environ)
        self.env.pop("ADSDIRAC_THREADS", None)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self._count = 0

    def child(self, trace: int = 0, setup_only: bool = False) -> dict:
        self._count += 1
        result = self.work / f"result-{self._count}.json"
        log = self.work / f"child-{self._count}.log"
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--trace", str(trace),
            "--work-dir", str(self.work), "--result", str(result),
        ]
        if setup_only:
            cmd.append("--setup-only")
        with log.open("w") as fh:
            proc = subprocess.Popen(
                cmd + ["--spawned-at", repr(time.monotonic())],
                cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{self.workload} did not finish within {RUN_LIMIT_S:g} s")
            finally:
                # on a timeout, an error or a signal the child must not outlive us
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not result.is_file():
            tail = log.read_text()[-2000:]
            raise BenchError(f"{self.workload} process exited with code {code}:\n{tail}")
        return json.loads(result.read_text())


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> dict:
    """One benchmark run of one workload; returns the result object."""
    runner = Runner(root, workload, seed, seconds, deadline)
    main = runner.child(trace=trace)
    env = dict(
        main["env"], seed=seed, passes=len(main["walls"]),
        raw_wall_s=statistics.median(main["walls"]),
        probe_s=main["probe_s"], probe_reference_s=main["probe_reference_s"],
    )
    if trace:
        from tracer import LAYER_METRICS

        metrics = {name: main["layers"][name] for name, _ in LAYER_METRICS}
        units = dict(LAYER_METRICS)
    else:
        setups = [main] + [runner.child(setup_only=True) for _ in range(SETUP_PROBES)]
        env["raw_setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {
            "wall_ref_s": statistics.median(main["scaled"]),
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "oracle_err": statistics.median(main["oracle_err"]),
        }
        units = dict(END_TO_END)
    return {
        "correct": main["failed"] == 0 and main["attempted"] > 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": main["failures"],
        "env": env,
    }


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "source_digest": _source_digest(root),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="adsdirac benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure about this long (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "adsdirac" / "__init__.py").is_file():
        print(f"no adsdirac sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = measure(root, name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    for name, res in results.items():
        print(f"# {name} env {json.dumps(dict(env, **res['env']), sort_keys=True)}")
        for failure in res["failures"]:
            print(f"# {name} FAILED {failure}")
        print(f"# {name} checks: {res['attempted'] - res['failed']}/{res['attempted']} passed")
        for key, m in res["metrics"].items():
            print(f"# {name} {key} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
