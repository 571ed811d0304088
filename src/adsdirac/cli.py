"""Command-line entry point.

One subcommand per experiment plus ``all``::

    adsdirac all --config run.json
    adsdirac velocity --config run.json --out traces --threads 2

The selected experiments run through the harness; the process exits 0
exactly when every acceptance check among them passed.  ``--threads`` sets
the width of the harness's work pool (default 1; values below 1 count as
1).  ``--dump-matrix`` additionally writes the assembled operator as a
sparse CSV (row, col, re, im) for external inspection.
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
        help="work-pool width (default: 1)",
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
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
