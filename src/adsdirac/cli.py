"""Command-line entry point.

One subcommand per experiment plus ``all``::

    adsdirac all --config run.json
    adsdirac velocity --config run.json --out traces --threads 2

The selected experiments run through the harness, which writes the
reports and returns the manifest; ``main`` prints one verdict line per
check (an ``[ERROR]`` line per errored experiment) and a summary line from
it.  The process exits 0 exactly when every acceptance check among them
passed.  ``--threads N`` runs
the experiments in up to N worker processes started by ``fork`` (default
1, which runs them in this process; values below 1 count as 1).
``--dump-matrix`` additionally writes the assembled operator as a sparse
CSV (row, col, re, im) for external inspection.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from adsdirac.harness import EXPERIMENTS, ConfigError, parse_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsdirac",
        description=(
            "Channel Hamiltonians for the massive Dirac field outside a "
            "Schwarzschild-AdS black hole: evolution, scattering and "
            "spectral experiments from one JSON config."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", required=True, metavar="PATH",
        help="JSON experiment configuration",
    )
    common.add_argument(
        "--out", metavar="DIR", default=None,
        help="output directory (default: the config's 'out' entry)",
    )
    common.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="run the experiments in N worker processes started by fork; "
             "1 runs them in-process (default: 1)",
    )
    common.add_argument(
        "--dump-matrix", action="store_true",
        help="also write the assembled operator as matrix.csv (debug)",
    )

    sub = parser.add_subparsers(dest="experiment", required=True)
    descriptions = {
        "geometry": "horizon root, tortoise map and coordinate round trips",
        "evolve": "unitary evolution and the closed-form free-flow oracle",
        "scatter": "wave operators, adjoint pairing, trivial self-comparison",
        "velocity": "propagation-velocity traces and the asymptotic mean",
        "mourre": "commutator positivity on a spectral window",
        "spectrum": "level counts, a windowed eigensolve and the no-eigenvalue probe",
        "domain-exponent": "wall decay rate of generic resolvent elements",
        "all": "every experiment above",
    }
    for name in (*EXPERIMENTS, "all"):
        sub.add_parser(name, parents=[common], help=descriptions[name])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print("config rejected:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    selected = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    manifest = run(
        cfg,
        experiments=selected,
        out=args.out,
        threads=max(1, args.threads),
        dump_matrix=args.dump_matrix,
    )
    for r in manifest.results:
        if r.error is not None:
            print(f"[ERROR] {r.name}: {r.error}")
        for c in r.checks:
            print(c.line(r.name))
    verdict = "all checks passed" if manifest.all_passed else "FAILURES present"
    print(f"{verdict} ({len(manifest.results)} experiment(s), {manifest.wall_clock:.1f} s)")
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
