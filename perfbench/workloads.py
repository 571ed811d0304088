"""The three benchmark workloads, driven through adsdirac's public entry points.

Each workload has a ``setup`` that builds every input from the seed (the
part timed as ``setup_s``) and returns the legs of one pass: calls that do
the measured work and add their verdicts to the pass's ``Outcome``.  The
acceptance criteria's thresholds are applied verbatim, so a faster layer
that loses accuracy fails here.

The adsdirac modules are referenced as modules (``dynamics.evolve``), never
from-imported, so the wrappers the tracer installs on them are the ones
called.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from adsdirac import algebra, channel, cli, dynamics, geometry, grids, harness
from adsdirac import scattering, spectral

HALF = algebra.Channel(0.5, 0.5)
COMPONENTS = (1.0, 0.0, 0.0, 1.0)
DESK_THREADS = 2


@dataclass
class Check:
    """One verdict: its name, whether it passed, and the numbers behind it."""

    name: str
    passed: bool
    detail: str


@dataclass
class Outcome:
    """What one pass of a workload produced."""

    checks: List[Check] = field(default_factory=list)
    oracle_err: float = float("nan")

    def add(self, name: str, passed, detail: str) -> None:
        self.checks.append(Check(name, bool(passed), detail))


#: a leg adds its verdicts to the pass's outcome
Leg = Callable[[Outcome], None]


def tally(checks: Sequence[Check]):
    """(attempted, failed) over a list of checks."""
    return len(checks), sum(1 for c in checks if not c.passed)


# ------------------------------------------------------------- desk-all


#: report files ``adsdirac all`` must write, each stamped with the config digest
DESK_FILES = (
    "geometry_map.csv", "geometry.json",
    "evolve_norms.csv", "evolve.json",
    "scatter_increments.csv", "scatter.json",
    "velocity_traces.csv", "velocity.json",
    "mourre.json",
    "spectrum_eigenvalues.csv", "spectrum.json",
    "domain_exponent.csv", "domain_exponent.json",
    "manifest.json",
)


def _stamped(path: Path, digest: str) -> bool:
    """True when the report file exists and carries the config digest."""
    if not path.is_file():
        return False
    if path.suffix == ".csv":
        with path.open() as fh:
            return fh.readline().strip() == f"# config {digest}"
    try:
        return json.loads(path.read_text()).get("config") == digest
    except json.JSONDecodeError:
        return False


def verify_desk_outputs(out_dir: Path, digest: str, exit_code: int) -> Outcome:
    """Check flags from ``manifest.json`` plus the expected report files.

    A check that FAILs, an experiment that errors, and a missing or
    unstamped file each count as one failed check.
    """
    res = Outcome()
    res.add("cli.exit_code", exit_code == 0, f"exit code {exit_code}")
    for name in DESK_FILES:
        res.add(f"file.{name}", _stamped(out_dir / name, digest), "present and stamped")
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.is_file() else {}
    experiments = manifest.get("experiments", {})
    for exp in harness.EXPERIMENTS:
        entry = experiments.get(exp)
        if entry is None or "error" in entry:
            res.add(f"{exp}.run", False, str((entry or {}).get("error", "missing")))
            continue
        for check, passed in entry["checks"].items():
            res.add(f"{exp}.{check}", passed is True, "manifest flag")
    evolve_json = out_dir / "evolve.json"
    if evolve_json.is_file():
        res.oracle_err = float(json.loads(evolve_json.read_text())["scalars"]["free_errors"][-1])
    return res


def desk_leg(res: Outcome, cfg_path: Path, out_dir: Path, digest: str) -> None:
    """``adsdirac all`` on the desk config, then its reports checked."""
    shutil.rmtree(out_dir, ignore_errors=True)
    code = cli.main([
        "all", "--config", str(cfg_path), "--out", str(out_dir),
        "--threads", str(DESK_THREADS),
    ])
    checked = verify_desk_outputs(out_dir, digest, code)
    res.checks += checked.checks
    res.oracle_err = checked.oracle_err


#: where ``adsdirac all`` writes its reports, under the run's work directory
DESK_OUT = "desk-out"


def desk_setup(seed: int, work_dir: Path) -> List[Leg]:
    cfg_path = work_dir / "desk.json"
    digest = harness.parse_config(cfg_path).digest
    return [lambda res: desk_leg(res, cfg_path, work_dir / DESK_OUT, digest)]


# ---------------------------------------------------------------- scatter


def unitarity_leg(res: Outcome, mass: float, grid, psi) -> None:
    """Criterion 3: norm drift of the Cayley flow over T = 10."""
    params = geometry.make_params(1.0, 1.0, mass)
    op = channel.assemble_hamiltonian(HALF, params, grid)
    traj = dynamics.evolve(
        op, psi, dynamics.EvolutionConfig(dt=0.5 * grid.min_spacing, t_final=10.0)
    )
    res.add(
        f"unitarity[m={mass:g}]", traj.norm_drift <= 1e-8,
        f"norm drift = {traj.norm_drift:.1e} (1e-8)",
    )


def velocity_leg(res: Outcome, grid, phi, times) -> None:
    """Criterion 5 (and criterion 7's interacting half) from one report."""
    op = channel.assemble_hamiltonian(HALF, geometry.make_params(1.0, 1.0, 1.0), grid)
    rep = scattering.velocity_report(phi, times, op, delta=0.2, eps=0.2, cone_delta=0.25)
    mn = float(rep.minimal_values[-1])
    mx = float(abs(rep.maximal_values[-1]))
    cone = float(rep.cone_fractions[-1])
    res.add("velocity.minimal", mn <= 1e-2, f"{mn:.2e} (1e-2)")
    res.add("velocity.maximal", mx <= 1e-2, f"{mx:.2e} (1e-2)")
    res.add("velocity.cone", cone >= 0.98, f"{cone:.4f} (>= 0.98)")
    res.add(
        "velocity.asymptotic", abs(rep.v_extrapolated - 1.0) <= 0.05,
        f"{rep.v_extrapolated:.4f} (within 0.05 of 1)",
    )


def completeness_leg(res: Outcome, mass: float, grid, phi, psi, schedule, trivial) -> None:
    """Criterion 6: forward and backward wave operators, adjoint pairing,
    and the trivial self-comparison."""
    op = channel.assemble_hamiltonian(HALF, geometry.make_params(1.0, 1.0, mass), grid)
    fwd = scattering.wave_operator_forward(phi, op, schedule)
    bwd = scattering.wave_operator_backward(psi, op, schedule)
    tail_ok = bool(
        np.all(np.diff(fwd.increments[-3:]) < 0) and np.all(np.diff(bwd.increments[-3:]) < 0)
    )
    pairing = abs(
        grid.inner(fwd.limit.values, psi.values) - grid.inner(phi.values, bwd.limit.values)
    )
    f_grid, f_phi = trivial
    triv = scattering.wave_operator_forward(
        f_phi, channel.free_operator(f_grid), (1.0, 2.0, 3.0), free_factor="discrete"
    )
    trivial_max = float(np.max(triv.increments))
    tag = f"m={mass:g}"
    res.add(f"completeness[{tag}].tails", tail_ok, "last three increments decrease")
    res.add(
        f"completeness[{tag}].forward", fwd.increments[-1] <= 1e-2,
        f"{fwd.increments[-1]:.2e} (1e-2)",
    )
    res.add(
        f"completeness[{tag}].backward", bwd.increments[-1] <= 1e-2,
        f"{bwd.increments[-1]:.2e} (1e-2)",
    )
    res.add(f"completeness[{tag}].adjoint", pairing <= 1e-2, f"{pairing:.1e} (1e-2)")
    res.add(f"completeness[{tag}].trivial", trivial_max <= 1e-10, f"{trivial_max:.1e} (1e-10)")


def free_oracle_leg(res: Outcome, legs) -> None:
    """Criterion 4: the discrete free flow against its closed form at three
    resolutions; the finest error is the workload's ``oracle_err``."""
    errors = []
    for grid, phi in legs:
        cfg = dynamics.EvolutionConfig(dt=0.5 * grid.min_spacing, t_final=5.0)
        num = dynamics.evolve(channel.free_operator(grid), phi, cfg).final
        errors.append(grid.norm(num.values - dynamics.free_propagate(phi, 5.0).values))
    orders = [float(np.log2(errors[k] / errors[k + 1])) for k in range(len(errors) - 1)]
    res.add("free_oracle.error", errors[-1] <= 1e-3, f"{errors[-1]:.3e} (1e-3)")
    res.add("free_oracle.order", min(orders) >= 1.8, f"{min(orders):.2f} (>= 1.8)")
    res.oracle_err = errors[-1]


def _packet(grid, center, width):
    return grids.gaussian_packet(grid, center, width, components=COMPONENTS)


def scatter_setup(seed: int, work_dir: Path) -> List[Leg]:
    g_unit = grids.make_grid(-32.0, 2048)
    psi_unit = _packet(g_unit, -4.0, 0.5)
    g_vel = grids.make_grid(-26.0, 4096)
    phi_vel = _packet(g_vel, -2.5, 0.25)
    g_wave = grids.make_grid(-32.0, 2048)
    phi_wave, psi_wave = _packet(g_wave, -4.0, 0.5), _packet(g_wave, -2.5, 0.4)
    g_triv = grids.make_grid(-16.0, 320)
    trivial = (g_triv, _packet(g_triv, -4.0, 0.5))
    oracle = []
    for n in (512, 1024, 2048):
        g = grids.make_grid(-8.0, n)
        oracle.append((g, _packet(g, -3.0, 0.5)))
    times = (4.0, 8.0, 12.0, 16.0, 20.0)
    schedule = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0)
    legs = [
        lambda res: unitarity_leg(res, 0.25, g_unit, psi_unit),
        lambda res: unitarity_leg(res, 1.0, g_unit, psi_unit),
        lambda res: velocity_leg(res, g_vel, phi_vel, times),
        lambda res: completeness_leg(res, 1.0, g_wave, phi_wave, psi_wave, schedule, trivial),
        lambda res: free_oracle_leg(res, oracle),
    ]
    random.Random(seed).shuffle(legs)
    return legs


# ----------------------------------------------------------- channel-scan

SCAN_SPINS = (0.5, 1.5, 2.5, 3.5)
SCAN_MASSES = (0.25, 0.45, 1.0)
SCAN_LAMBDAS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def assembly_leg(res: Outcome, chan, params, grid, seed: int) -> None:
    """Build one channel operator, then probe it: discrete symmetry on
    random fields and the pointwise commutator's self-adjointness."""
    op = channel.assemble_hamiltonian(chan, params, grid)
    herm = op.hermiticity_defect(seed=seed)
    comm = channel.commutator_closed_form(op).hermiticity_defect()
    tag = f"s={chan.s:g},m={params.m:g}"
    res.add(f"assemble[{tag}].hermiticity", herm <= 1e-10, f"{herm:.1e} (1e-10)")
    res.add(f"assemble[{tag}].commutator", comm <= 1e-12, f"{comm:.1e} (1e-12)")


def no_eigenvalue_leg(res: Outcome, lam: float, params) -> None:
    """Criterion 8 at one trial energy."""
    rep = spectral.no_eigenvalue_test(lam, HALF, params=params, depth=20.0)
    res.add(
        f"no_eigenvalue[m={params.m:g},lam={lam:g}]", rep.invertible_limit,
        f"difference {rep.depth_difference:.1e} (1e-8), cond {rep.condition:.3g} (1e3)",
    )


def exponent_leg(res: Outcome, params, grid) -> None:
    """Criterion 10 at one mass; the small-mass slope error against the
    exact exponent −ml is the workload's ``oracle_err``."""
    op = channel.assemble_hamiltonian(HALF, params, grid)
    rep = spectral.boundary_exponent_fit(op)
    if params.two_ml > 1.0:
        ok = rep.fitted and rep.slope >= 0.45
        res.add("exponent[2ml=2]", ok, f"slope {rep.slope} (>= 0.45)")
    else:
        err = abs(rep.slope + params.m * params.l) if rep.fitted else float("inf")
        res.add("exponent[2ml=0.5]", err <= 0.05, f"slope {rep.slope} (-ml ± 0.05)")
        res.oracle_err = err


def scan_setup(seed: int, work_dir: Path) -> List[Leg]:
    params = {m: geometry.make_params(1.0, 1.0, m) for m in SCAN_MASSES}
    grid = grids.make_grid(-32.0, 4096)
    graded = grids.make_grid(-24.0, policy=grids.BoundaryGraded(1e-3, 1.1, 0.05))
    legs = [
        (lambda res, c=algebra.Channel(s, 0.5), p=params[m]:
            assembly_leg(res, c, p, grid, seed))
        for s in SCAN_SPINS for m in SCAN_MASSES
    ]
    legs += [
        (lambda res, lam=lam, p=params[m]: no_eigenvalue_leg(res, lam, p))
        for m in (0.25, 1.0) for lam in SCAN_LAMBDAS
    ]
    legs += [
        (lambda res, p=params[m]: exponent_leg(res, p, graded))
        for m in (1.0, 0.25)
    ]
    random.Random(seed).shuffle(legs)
    return legs


@dataclass(frozen=True)
class Workload:
    #: ``setup(seed, work_dir)`` builds every input and returns the legs of
    #: one pass, in the order they run
    setup: Callable[[int, Path], List[Leg]]
    #: ``--threads`` of the harness pool; None where the harness is not used
    threads: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    "desk-all": Workload(desk_setup, DESK_THREADS),
    "scatter": Workload(scatter_setup),
    "channel-scan": Workload(scan_setup),
}
