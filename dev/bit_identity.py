# Bit-identity digests of the assembled operators and the desk reports.
#
# Run from the root of a checkout, once per tree to compare:
#
#     PYTHONPATH=src python3 dev/bit_identity.py [--desk]
#
# It prints one SHA-256 over G's indptr, indices and data bytes and the
# wall_exponent of each operator of a fixed list (natural, bag and m = 0
# walls on uniform grids from n = 16 to 4096 at s = 1/2 and 7/2, two graded
# grids with and without the exponent row, the free operator, and a
# caller's potential maps on both sides of 2ml = 1).  With --desk it also
# runs `adsdirac all --threads 2` on the desk config and prints the count
# and one digest of its check lines, then one digest per report except
# manifest.json, whose timings differ between runs.
import hashlib
import json
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from adsdirac.algebra import Channel
from adsdirac.channel import assemble_hamiltonian, free_operator
from adsdirac.geometry import CoordinateMap, make_params
from adsdirac.grids import BoundaryGraded, make_grid

UNIFORM = [make_grid(-32.0, n) for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]
GRADED = [
    make_grid(-6.0, policy=BoundaryGraded(h_min=1e-3, ratio=1.08)),
    make_grid(-0.4, policy=BoundaryGraded(h_min=0.005, ratio=1.2, h_max=0.05)),
]
DESK = {
    "M": 1.0, "l": 1.0, "m": 1.0, "channel": [0.5, 0.5],
    "grid": {"x_min": -32.0, "n": 2048},
    "seed": 0,
    "options": {"mourre": {"n": 320}, "spectrum": {"n": 320}},
}


def black_hole_map(params):
    cm = CoordinateMap(params)
    return lambda x: (cm.angular_factor_of_x(x), cm.sqrtF_of_x(x))


def smooth_well(x):
    return 0.5 * np.exp(-((x + 3.0) ** 2)), 1.0 / (1.0 + x * x)


def operators():
    """The fixed list: 54 uniform, 16 graded, 11 free, 12 given maps."""
    for grid in UNIFORM:
        for m in (0.0, 0.25, 1.0):
            for s in (0.5, 3.5):
                yield assemble_hamiltonian(Channel(s, 0.5), make_params(1.0, 1.0, m), grid)
    for grid in GRADED:
        for m in (0.0, 0.25, 0.45, 1.0):
            for s in (0.5, 3.5):
                yield assemble_hamiltonian(Channel(s, 0.5), make_params(1.0, 1.0, m), grid)
    for grid in UNIFORM + GRADED:
        yield free_operator(grid)
    for grid in (UNIFORM[2], UNIFORM[5], GRADED[1]):
        for m in (0.25, 1.0):
            params = make_params(1.0, 1.0, m)
            for pair in (black_hole_map(params), smooth_well):
                yield assemble_hamiltonian(Channel(1.5, 0.5), params, grid, pair)


def operator_digest():
    digest, count, exponent_rows = hashlib.sha256(), 0, 0
    for op in operators():
        g = op.matrix
        for array in (g.indptr, g.indices, g.data):
            digest.update(np.ascontiguousarray(array).tobytes())
        if op.wall_exponent is None:
            digest.update(b"none")
        else:
            digest.update(struct.pack("<d", op.wall_exponent))
            exponent_rows += 1
        count += 1
    return count, exponent_rows, digest.hexdigest()


def desk_digests():
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "desk.json", Path(tmp) / "out"
        config.write_text(json.dumps(DESK))
        lines = subprocess.run(
            [sys.executable, "-m", "adsdirac.cli", "all", "--config", str(config),
             "--out", str(out), "--threads", "2"],
            capture_output=True, text=True,
        ).stdout.splitlines()[:-1]  # the last line holds the wall clock
        reports = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"
        }
        return lines, reports


if __name__ == "__main__":
    count, exponent_rows, digest = operator_digest()
    print(f"operators {count} (exponent row {exponent_rows}) {digest}")
    if "--desk" in sys.argv[1:]:
        lines, reports = desk_digests()
        checks = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"check lines {len(lines)} {checks}")
        for name, value in reports.items():
            print(f"{name} {value}")
