"""Experiment harness: validated configs, orchestrated runs, flat-file reports.

A run is described by one JSON file.  Parsing walks one table,
:data:`_SCHEMA`, that gives every key its default, its test and what the
test demands: unknown keys are errors, a null is the same as a missing key,
and defaults are filled in.  A short list of rules then ties keys together
by handing the values to the modules that will consume them (parameters and
channel, the grids, dt against the grid spacing, the wave packets), and the
parsed config keeps the grid and the evolution settings those rules built.
All complaints are aggregated into a single :class:`ConfigError` so a long
run cannot die late on a typo.  Execution runs the selected experiments in
up to ``threads`` worker processes started by ``fork`` (in this process
when the width is 1) and collects them in a fixed order; each runner
returns its verdicts, scalars and CSV tables, and one writer emits the
tables, then a JSON file of verdicts and scalars.  ``run`` prints nothing;
the CLI prints the verdict lines.  Numeric outputs are byte-reproducible for
identical configs: fixed float formatting, deterministic solvers.  Timing
lives only in the manifest, which is the one file allowed to differ between
reruns.

Config shape (only ``M``, ``l``, ``m``, ``channel`` are required; shown
with the defaults, ``options`` abridged)::

    {
      "M": 1.0, "l": 1.0, "m": 1.0,
      "channel": [0.5, 0.5],
      "grid": {"x_min": -32.0, "n": 2048},
      "evolution": {"dt": null, "t_final": 10.0, "snapshots": 5},
      "out": "runs",
      "seed": 0,
      "options": {"scatter": {"schedule": [1, 2, 4, 8, 16], ...}, ...}
    }

``grid`` is uniform (only ``domain-exponent`` grades, from its own keys);
``dt`` null is half the minimum spacing.  Verdict bounds are constants, not
keys.  The boundary condition at the wall is the one the 2ml regime
requires; every report records it.  The canonical form of a config is this
tree with every default filled in, and its SHA-256 is the digest stamped
into every report.

Every emitted number traces to a module operation; the harness itself only
builds inputs, forwards them, and formats what comes back.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import resource
import sys
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from adsdirac import __version__ as VERSION
from adsdirac.algebra import Channel
from adsdirac.channel import (
    ChannelOperator,
    ConfigurationError,
    assemble_hamiltonian,
    free_operator,
)
from adsdirac.dynamics import (
    EvolutionConfig,
    NumericError,
    chebyshev_propagate,
    check_step,
    evolve,
    free_propagate,
)
from adsdirac.geometry import (
    CoordinateMap,
    Params,
    Regime,
    expansion_residuals,
    make_params,
    metric_factor,
)
from adsdirac.grids import BoundaryGraded, Grid, SpinorField, gaussian_packet, make_grid
from adsdirac.scattering import (
    CONVERGED_FRACTION,
    adjointness_residual,
    velocity_report,
    wave_operator_backward,
    wave_operator_forward,
)
from adsdirac.spectral import (
    MOURRE_EPS,
    MOURRE_STABILITY,
    boundary_exponent_fit,
    eigendecompose,
    level_count,
    mourre_check,
    mourre_refinement_study,
    no_eigenvalue_test,
)

EXPERIMENTS: Tuple[str, ...] = (
    "geometry",
    "evolve",
    "scatter",
    "velocity",
    "mourre",
    "spectrum",
    "domain-exponent",
)

#: the spinor of the runners' packets (the evolve default too):
#: components 1 and 4, the two that move toward the wall
_PAIR = (1.0, 0.0, 0.0, 1.0)
#: the levels ``spectrum`` solves for; the channel operators keep a gap at 0
_SPECTRUM_WINDOW = (-1.0, 1.0)
_REQUIRED = object()  # the default of a key that must be given


class ConfigError(ConfigurationError):
    """All validation complaints for one config, aggregated."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _is_number(v) -> bool:
    """A finite real number: bools, NaN and ±Infinity are not."""
    return (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(v, size: Optional[int] = None) -> bool:
    """A non-empty list of numbers, of length ``size`` when given."""
    return (
        isinstance(v, (list, tuple)) and len(v) > 0
        and (size is None or len(v) == size) and all(_is_number(x) for x in v)
    )


def _times(least: int):
    """The test for at least ``least`` increasing positive times."""
    return lambda v: (
        _numbers(v) and len(v) >= least and v[0] > 0
        and all(a < b for a, b in zip(v, v[1:]))
    )


_NUMBER = (_is_number, "a number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_NEGATIVE = (lambda v: _is_number(v) and v < 0, "a negative number")
_INTEGER = (_is_int, "an integer")

#: block → key → (default, test, what the test demands); a dict is a
#: sub-block.  Every default of a config is written here and only here.
_SCHEMA: Dict = {
    "M": (_REQUIRED, *_POSITIVE),
    "l": (_REQUIRED, *_POSITIVE),
    "m": (_REQUIRED, lambda v: _is_number(v) and v >= 0, "a non-negative number"),
    "channel": (_REQUIRED, lambda v: _numbers(v, 2), "a pair of numbers [s, n]"),
    "grid": {
        "x_min": (-32.0, *_NEGATIVE),
        "n": (2048, *_INTEGER),
    },
    "evolution": {
        "dt": (None, *_POSITIVE),
        "t_final": (10.0, *_POSITIVE),
        "snapshots": (5, lambda v: _is_int(v) and v >= 1, "a positive integer"),
    },
    "out": ("runs", lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    # accepted and read by nothing since no check samples random fields
    "seed": (0, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "options": {
        "geometry": {},
        "evolve": {
            "center": (-4.0, *_NUMBER),
            "width": (0.5, *_POSITIVE),
            "components": (_PAIR, lambda v: _numbers(v, 4), "a list of four numbers"),
        },
        "scatter": {
            "schedule": (
                (1.0, 2.0, 4.0, 8.0, 16.0), _times(3),
                "at least 3 increasing positive times",
            ),
            "center": (-4.0, *_NUMBER),
            "width": (0.5, *_POSITIVE),
            "target_center": (-2.5, *_NUMBER),
            "target_width": (0.4, *_POSITIVE),
        },
        "velocity": {
            "times": (
                (4.0, 8.0, 12.0, 16.0, 20.0), _times(2),
                "at least 2 increasing positive times",
            ),
            "center": (-2.5, *_NUMBER),
            "width": (0.25, *_POSITIVE),
        },
        "mourre": {
            "n": (640, *_INTEGER),
            "fine_factor": (2, lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
            "interval": (
                (0.5, 1.5), lambda v: _numbers(v, 2) and v[0] < v[1],
                "two numbers [a, b] with a < b",
            ),
        },
        "spectrum": {
            "n": (640, *_INTEGER),
            "lambdas": ((-2.0, -1.0, 0.0, 1.0, 2.0), _numbers, "a non-empty list of numbers"),
            # the probe integrates from x = -depth to x = -1
            "depth": (20.0, lambda v: _is_number(v) and v > 1, "a number > 1"),
        },
        "domain-exponent": {
            "masses": (
                (1.0, 0.25), lambda v: _numbers(v) and min(v) >= 0,
                "a non-empty list of non-negative numbers",
            ),
            "h_min": (1e-3, *_POSITIVE),
            "ratio": (1.1, *_POSITIVE),
            "h_max": (0.05, *_POSITIVE),
            "x_min": (-24.0, *_NEGATIVE),
        },
    },
}


def _normal(value, default):
    """An accepted value in canonical form: numbers become floats (lists
    element by element), except where the default is an integer."""
    if _is_int(default):
        return value
    if isinstance(value, (list, tuple)):
        return [_normal(v, None) for v in value]
    return float(value) if _is_number(value) else value


def _walk(schema: Mapping, raw, where: str, errors: List[str]) -> Optional[Dict]:
    """One block checked against its schema and returned with every default
    filled in (None when it is not an object).  A null value is the same as
    a missing key; a value that fails its test is reported and left out."""
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        errors.append(f"{where or 'config'} must be an object")
        return None
    label = f"{where}: " if where else ""
    errors += [f"{label}unknown key {key!r}" for key in sorted(set(raw) - set(schema))]
    block: Dict = {}
    for key, spec in schema.items():
        value = raw.get(key)
        if isinstance(spec, dict):
            sub = _walk(spec, value, f"{where}.{key}" if where else key, errors)
            if sub is not None:
                block[key] = sub
            continue
        default, test, demand = spec
        if value is None and default is _REQUIRED:
            errors.append(f"missing required key {key!r}")
        elif value is None or test(value):
            block[key] = _normal(default if value is None else value, default)
        else:
            errors.append(f"{label}{key} must be {demand}, got {value!r}")
    return block


def _graded_grid(block: Mapping) -> Grid:
    """The domain-exponent grid; the parser builds it too, so the grid
    module's rules decide at parse time."""
    policy = BoundaryGraded(block["h_min"], block["ratio"], block["h_max"])
    return make_grid(block["x_min"], policy=policy)


def _packet(block: Mapping, grid: Grid, prefix: str = "") -> SpinorField:
    """The packet an option block describes (``prefix`` picks the scatter
    target); the parser builds each one on the configured grid."""
    return gaussian_packet(
        grid, block[prefix + "center"], block[prefix + "width"],
        components=block.get("components", _PAIR),
    )


def _evolution(block: Mapping, grid: Grid) -> EvolutionConfig:
    """The evolution block on ``grid``: dt null is half the minimum
    spacing, and the snapshots are evenly spaced up to t_final."""
    dt = block["dt"] if block["dt"] is not None else 0.5 * grid.min_spacing
    check_step(dt, grid)
    t_final = block["t_final"]
    times = np.linspace(0.0, t_final, block["snapshots"] + 1)[1:]
    return EvolutionConfig(dt=dt, t_final=t_final, snapshot_times=tuple(times.tolist()))


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated run description.

    ``canonical`` is the config with every default filled in, and
    ``digest`` is its SHA-256, stamped into the header of every output file,
    so an artifact can always be traced back to the exact configuration that
    produced it.
    """

    params: Params
    channel: Channel
    grid: Grid
    evolution: EvolutionConfig
    out: str
    seed: int
    options: Mapping[str, Mapping]
    canonical: Mapping
    digest: str

    def operator(self, grid: Optional[Grid] = None) -> ChannelOperator:
        return assemble_hamiltonian(
            self.channel, self.params, grid if grid is not None else self.grid
        )

    def option(self, experiment: str, key: str, default=None):
        """One option value; every schema key is filled in, so ``default``
        only answers keys outside the schema."""
        return self.options.get(experiment, {}).get(key, default)


def parse_config_dict(data: Mapping) -> ExperimentConfig:
    """Validate a decoded config mapping against :data:`_SCHEMA` and the
    rules that tie its keys together; raise :class:`ConfigError` listing
    every problem found, or return the frozen config."""
    errors: List[str] = []
    tree = _walk(_SCHEMA, data, "", errors)
    if tree is None:
        raise ConfigError(errors)

    def rule(label: str, build):
        # the module that consumes the values decides; a rule that reads a
        # value which failed its own test is skipped (its KeyError)
        try:
            return build()
        except KeyError:
            return None
        except (ValueError, ConfigurationError) as exc:
            errors.append(f"{label}: {exc}")
            return None

    opts = tree.get("options", {})
    params = rule("params", lambda: make_params(tree["M"], tree["l"], tree["m"]))
    channel = rule("channel", lambda: Channel(*tree["channel"]))
    grid = rule("grid", lambda: make_grid(tree["grid"]["x_min"], tree["grid"]["n"]))
    evolution = None
    if grid is not None:
        evolution = rule("evolution", lambda: _evolution(tree["evolution"], grid))
        for name, prefix in (("evolve", ""), ("scatter", ""), ("scatter", "target_"),
                             ("velocity", "")):
            label = f"options.{name}: {prefix.replace('_', ' ')}packet"
            rule(label, lambda: _packet(opts[name], grid, prefix))
    for name in ("mourre", "spectrum"):
        rule(f"options.{name}: n", lambda: make_grid(tree["grid"]["x_min"], opts[name]["n"]))
    rule("options.domain-exponent", lambda: _graded_grid(opts["domain-exponent"]))
    if errors:
        raise ConfigError(errors)

    digest = hashlib.sha256(
        json.dumps(tree, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ExperimentConfig(
        params=params,
        channel=channel,
        grid=grid,
        evolution=evolution,
        out=tree["out"],
        seed=tree["seed"],
        options=tree["options"],
        canonical=tree,
        digest=digest,
    )


def parse_config(path) -> ExperimentConfig:
    """Load, decode and validate one JSON config file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    return parse_config_dict(data)


# ------------------------------------------------------------ report files


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_default(v):
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v).__name__}")


def write_csv(path: Path, digest: str, columns: Sequence[str], rows) -> None:
    lines = [f"# config {digest}", f"# artifact {VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, digest: str, payload: Mapping) -> None:
    doc = {"config": digest, "artifact": VERSION}
    doc.update(payload)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n")


@dataclass
class CheckLine:
    """One acceptance-style verdict: a label, a pass flag and the numbers."""

    name: str
    passed: bool
    detail: str

    def line(self, experiment: str) -> str:
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {experiment}.{self.name}: {self.detail}"


@dataclass
class ExperimentResult:
    """One runner's verdicts, scalars and CSV tables (file name → (columns,
    rows)); ``files`` lists what the writer wrote."""

    name: str
    checks: List[CheckLine] = field(default_factory=list)
    scalars: Dict = field(default_factory=dict)
    tables: Dict[str, Tuple[Sequence[str], list]] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)
    error: Optional[str] = None
    wall_clock: float = 0.0
    cpu_s: float = 0.0

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return "pass" if all(c.passed for c in self.checks) else "fail"


@dataclass
class RunManifest:
    """What ran, what it wrote, and whether everything passed.
    ``peak_rss_mb`` is the larger of the run process's and its workers'
    peak resident memory."""

    version: str
    config: str
    out: str
    threads: int
    results: List[ExperimentResult]
    wall_clock: float
    peak_rss_mb: float

    @property
    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_dict(self) -> Dict:
        return {
            "artifact": self.version,
            "config": self.config,
            "out": self.out,
            "threads": self.threads,
            "wall_clock": self.wall_clock,
            "peak_rss_mb": self.peak_rss_mb,
            "all_passed": self.all_passed,
            "experiments": {
                r.name: {
                    "status": r.status,
                    "wall_clock": r.wall_clock,
                    "cpu_s": r.cpu_s,
                    "files": r.files,
                    "checks": {c.name: c.passed for c in r.checks},
                    **({"error": r.error} if r.error else {}),
                }
                for r in self.results
            },
        }


# -------------------------------------------------------- the experiments


def _run_geometry(cfg: ExperimentConfig) -> ExperimentResult:
    """Horizon root, tortoise map vs. quadrature, coordinate round trips."""
    p = cfg.params
    cm = CoordinateMap(p)
    res = ExperimentResult("geometry")

    root = abs(metric_factor(p.r_sads, p.M, p.l))
    res.checks.append(
        CheckLine("horizon_root", root <= 1e-12, f"|F(r_h)| = {root:.3e} (<= 1e-12)")
    )

    deltas = np.geomspace(1e-12, 10.0, 25) * p.r_sads
    r = p.r_sads + deltas
    r_back = cm.r_of_x(cm.x_of_r(r))
    trip_r = float(np.max(np.abs(r_back - r) / r))
    # the deep-horizon side round-trips through the gap δ = r - r_sads,
    # which stays representable long after r itself rounds to r_sads; the
    # scale floor 1e-4 folds an absolute tolerance 1e-14 into the bound
    x = -np.geomspace(1e-8, 0.98 * abs(cfg.grid.x_min), 25)
    x_back = cm.x_of_delta(cm.delta_of_x(x))
    trip_x = float(np.max(np.abs(x_back - x) / (np.abs(x) + 1e-4)))
    trip = max(trip_r, trip_x)
    res.checks.append(
        CheckLine("round_trip", trip <= 1e-10, f"max rel error = {trip:.3e} (<= 1e-10)")
    )

    probes = p.r_sads + np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
    gap = 0.0
    for r1, r2 in zip(probes[:-1], probes[1:]):
        val, _ = quad(
            lambda rr: 1.0 / metric_factor(rr, p.M, p.l),
            r1, r2, epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        gap = max(gap, abs(val - (cm.tortoise(r2) - cm.tortoise(r1))))
    res.checks.append(
        CheckLine(
            "tortoise_quadrature", gap <= 1e-8,
            f"max |closed form - quadrature| = {gap:.3e} (<= 1e-8)",
        )
    )

    exp = expansion_residuals(p)
    res.scalars = {
        "r_sads": p.r_sads,
        "kappa": p.kappa,
        "two_ml": p.two_ml,
        "regime": p.regime.value,
        "horizon_slope_B": exp["horizon_slope_B"],
        "horizon_slope_A": exp["horizon_slope_A"],
    }

    xs = -np.geomspace(1e-8, 0.98 * abs(cfg.grid.x_min), 201)[::-1]
    rows = zip(
        xs.tolist(),
        np.atleast_1d(cm.r_of_x(xs)).tolist(),
        np.atleast_1d(cm.sqrtF_of_x(xs)).tolist(),
        np.atleast_1d(cm.angular_factor_of_x(xs)).tolist(),
    )
    res.tables["geometry_map.csv"] = (("x", "r", "sqrtF", "angular"), list(rows))
    return res


def _run_evolve(cfg: ExperimentConfig) -> ExperimentResult:
    """Unitary flow on the configured operator plus the free-flow oracle.

    The configured flow runs Cayley steps, whose drift is the unitarity
    check.  The oracle takes the exact flow of the discrete comparison
    generator from the Chebyshev expansion, which adds no time-step error,
    so its distance from the closed form is the stencil's alone."""
    res = ExperimentResult("evolve")
    grid = cfg.grid
    op = cfg.operator()

    herm = op.hermiticity_defect()
    res.checks.append(
        CheckLine("hermiticity", herm <= 1e-10, f"defect = {herm:.3e} (<= 1e-10)")
    )

    psi0 = _packet(cfg.options["evolve"], grid)
    traj = evolve(op, psi0, cfg.evolution)
    res.checks.append(
        CheckLine(
            "unitarity", traj.norm_drift <= 1e-8,
            f"norm drift = {traj.norm_drift:.3e} over t = {cfg.evolution.t_final:g} "
            "(<= 1e-8)",
        )
    )

    # The discrete free flow against its closed form at three uniform
    # resolutions: the error must sit below 1e-3 and fall at second order.
    errors, runs = [], []
    for n in (512, 1024, 2048):
        g = make_grid(-8.0, n)
        phi = gaussian_packet(g, -3.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        runs.append(chebyshev_propagate(free_operator(g), phi, (5.0,)))
        exact = free_propagate(phi, 5.0)
        errors.append(g.norm(runs[-1].fields[0].values - exact.values))
    order = float(np.log2(errors[-2] / errors[-1]))
    res.checks.append(
        CheckLine(
            "free_oracle", errors[-1] <= 1e-3,
            f"closed-form error = {errors[-1]:.3e} at n = 2048 (<= 1e-3)",
        )
    )
    res.checks.append(
        CheckLine(
            "free_order", order >= 1.8,
            f"observed order = {order:.2f} between n = 1024 and 2048 (>= 1.8)",
        )
    )

    res.scalars = {
        "norm_drift": traj.norm_drift,
        "hermiticity_defect": herm,
        "dt_effective": traj.dt_effective,
        "steps": traj.steps,
        "max_residual": traj.max_residual,
        "refinements": traj.refinements,
        "free_errors": errors,
        "free_order": order,
        # the oracle's Chebyshev runs, one per resolution
        "free_matvecs": [r.matvecs for r in runs],
        "free_bounds": [r.bound for r in runs],
        "free_drifts": [r.norm_drift for r in runs],
        "bc": op.bc.value,
    }
    res.tables["evolve_norms.csv"] = (
        ("t", "norm"), [(float(t), f.norm()) for t, f in zip(traj.times, traj.fields)]
    )
    return res


def _run_scatter(cfg: ExperimentConfig) -> ExperimentResult:
    """Wave operators along a dyadic schedule, their adjoint pairing, and
    the trivial self-comparison that must come out at solver rounding."""
    res = ExperimentResult("scatter")
    grid = cfg.grid
    op = cfg.operator()
    schedule = cfg.option("scatter", "schedule")

    phi = _packet(cfg.options["scatter"], grid)
    psi = _packet(cfg.options["scatter"], grid, "target_")

    fwd = wave_operator_forward(phi, op, schedule)
    bwd = wave_operator_backward(psi, op, schedule)
    # the packets have unit norm, so converged bounds the final increment
    for name, rep in (("forward", fwd), ("backward", bwd)):
        res.checks.append(
            CheckLine(
                name, rep.converged,
                f"final increment = {rep.increments[-1]:.3e} "
                f"(<= {CONVERGED_FRACTION:g}), converged = {rep.converged}",
            )
        )

    pairing = adjointness_residual(fwd, bwd, phi, psi)
    res.checks.append(
        CheckLine(
            "adjoint", pairing <= 1e-2,
            f"|<Ω φ, ψ> - <φ, W ψ>| = {pairing:.3e} (<= 1e-2)",
        )
    )

    # Self-comparison: the interacting and comparison factors are the same
    # discrete generator, so Ω is the identity by algebra and every
    # increment a solver residual, unless snapshots and pullbacks mismatch.
    f_grid = make_grid(-16.0, 320)
    f_phi = gaussian_packet(f_grid, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
    triv = wave_operator_forward(
        f_phi, free_operator(f_grid), (1.0, 2.0, 3.0), free_factor="discrete"
    )
    triv_max = float(np.max(triv.increments))
    res.checks.append(
        CheckLine(
            "trivial", triv_max <= 1e-10,
            f"max self-comparison increment = {triv_max:.3e} (<= 1e-10), the identity by algebra",
        )
    )

    res.scalars = {
        "schedule": schedule,
        "forward_final": float(fwd.increments[-1]),
        "backward_final": float(bwd.increments[-1]),
        "forward_limit_norm": fwd.limit_norm,
        "backward_limit_norm": bwd.limit_norm,
        "adjoint_gap": float(pairing),
        "trivial_max": triv_max,
        "bc": op.bc.value,
        # the Chebyshev runs of W (Ω and the trivial oracle run Cayley);
        # R of the configured operator; the drift of every run; what W's
        # Hermitian average of S dropped
        "matvecs": bwd.matvecs,
        "bound": bwd.bound,
        "norm_drift": max(fwd.norm_drift, bwd.norm_drift, triv.norm_drift),
        "asymmetry": bwd.asymmetry,
    }
    res.tables["scatter_increments.csv"] = (
        ("t", "forward_increment", "backward_increment"),
        [
            (schedule[k + 1], float(fwd.increments[k]), float(bwd.increments[k]))
            for k in range(len(schedule) - 1)
        ],
    )
    return res


def _run_velocity(cfg: ExperimentConfig) -> ExperimentResult:
    """Propagation-velocity diagnostics from one evolution: minimal and
    maximal cutoff traces, the light-cone sandwich, and ⟨𝒜/t⟩ → 1.

    Content moving left at unit speed must not reach the left wall before
    the last trace time.  The flow is unitary and the wall reflects, so
    only this test guards it: a shorter domain records the four checks as
    FAIL lines saying so, with a header-only trace table."""
    res = ExperimentResult("velocity")
    grid = cfg.grid
    op = cfg.operator()
    times = cfg.option("velocity", "times")
    columns = ("t", "minimal", "maximal", "unit", "cone", "v")
    if abs(grid.x_min) < times[-1] + 6.0:
        short = f"velocity traces to t = {times[-1]:g} need x_min <= -{times[-1] + 6:g}"
        for name in ("minimal", "maximal", "cone", "asymptotic"):
            res.checks.append(CheckLine(name, False, short))
        res.scalars = {"bc": op.bc.value}
        res.tables["velocity_traces.csv"] = (columns, [])
        return res
    phi = _packet(cfg.options["velocity"], grid)
    rep = velocity_report(phi, times, op)

    mn = float(rep.minimal_values[-1])
    mx = float(abs(rep.maximal_values[-1]))
    cone = float(rep.cone_fractions[-1])
    v = rep.v_extrapolated
    res.checks.append(
        CheckLine(
            "minimal", mn <= 1e-2,
            f"sub-unit-speed mass at t = {times[-1]:g}: {mn:.3e} (<= 1e-2)",
        )
    )
    res.checks.append(
        CheckLine(
            "maximal", mx <= 1e-2,
            f"super-unit-speed trace at t = {times[-1]:g}: {mx:.3e} (<= 1e-2)",
        )
    )
    res.checks.append(
        CheckLine(
            "cone", cone >= 0.98,
            f"mass inside |x|/t ∈ (1-δ, 1+δ): {cone:.4f} (>= 0.98)",
        )
    )
    res.checks.append(
        CheckLine(
            "asymptotic", abs(v - 1.0) <= 0.05,
            f"extrapolated mean velocity = {v:.4f} (within 0.05 of 1)",
        )
    )

    res.scalars = {
        "v_extrapolated": v,
        "cone_delta": rep.cone_delta,
        "unit_final": float(rep.unit_values[-1]),
        "wall_mass": rep.wall_mass,
        "bc": op.bc.value,
        "matvecs": rep.matvecs,
        "bound": rep.bound,
        "norm_drift": rep.norm_drift,
        "asymmetry": rep.asymmetry,
    }
    res.tables["velocity_traces.csv"] = (
        columns,
        [
            (
                times[k],
                float(rep.minimal_values[k]),
                float(rep.maximal_values[k]),
                float(rep.unit_values[k]),
                float(rep.cone_fractions[k]),
                float(rep.v_values[k]),
            )
            for k in range(len(times))
        ],
    )
    return res


def _run_mourre(cfg: ExperimentConfig) -> ExperimentResult:
    """Commutator positivity on a spectral window, cross-checked under
    refinement, plus the free operator on the coarse grid, where the
    quotient is exactly one."""
    res = ExperimentResult("mourre")
    n = cfg.option("mourre", "n")
    factor = cfg.option("mourre", "fine_factor")
    interval = tuple(cfg.option("mourre", "interval"))
    x_min = cfg.grid.x_min

    coarse = cfg.operator(make_grid(x_min, n))
    fine = cfg.operator(make_grid(x_min, factor * n))
    res.scalars = {"interval": list(interval), "eps": MOURRE_EPS}
    reports = {}
    # A window holding fewer than ten levels is below the discrete
    # resolution, and one centred on a level cannot be shift-inverted; the
    # ConfigurationError names the levels and is recorded as the FAIL
    # detail instead of ending the experiment.
    try:
        study = mourre_refinement_study(coarse, fine, interval)
    except ConfigurationError as exc:
        res.checks.append(CheckLine("window", False, str(exc)))
        res.checks.append(CheckLine("refinement", False, f"not run: {exc}"))
    else:
        rep_c, rep_f = study["coarse"], study["fine"]
        reports.update(coarse=rep_c, fine=rep_f)
        res.checks.append(
            CheckLine(
                "window", rep_c.passed,
                f"min quotient = {rep_c.min_quotient:.4f} on {list(interval)}, "
                f"η = {rep_c.eta:.4f}, {rep_c.n_states} states (need ≥ {1 - MOURRE_EPS:g})",
            )
        )
        res.checks.append(
            CheckLine(
                "refinement", study["verdict"] == "pass",
                f"verdict = {study['verdict']}, quotient drift = "
                f"{study['quotient_drift']:.3e} (<= {MOURRE_STABILITY:g})",
            )
        )
        res.scalars.update({
            "coarse_quotient": rep_c.min_quotient,
            "fine_quotient": rep_f.min_quotient,
            "quotient_drift": study["quotient_drift"],
            "verdict": study["verdict"],
            "coarse_states": rep_c.n_states,
            "fine_states": rep_f.n_states,
            "eta": rep_c.eta,
        })

    try:
        free = reports["free"] = mourre_check(free_operator(coarse.grid), interval)
    except ConfigurationError as exc:
        res.checks.append(CheckLine("free_quotient", False, f"free operator: {exc}"))
    else:
        free_gap = abs(free.min_quotient - 1.0)
        res.checks.append(
            CheckLine(
                "free_quotient", free_gap <= 1e-9,
                f"|min quotient - 1| = {free_gap:.3e} on the free operator (<= 1e-9)",
            )
        )

    # the eigensolve behind each window: pairs requested against pairs
    # found in the window, largest residual, W-orthonormality defect, and
    # what solving the averaged S dropped
    res.scalars["solves"] = {
        name: {
            "requested": rep.requested,
            "found": rep.n_states,
            "max_residual": rep.max_residual,
            "orthonormality_defect": rep.orthonormality_defect,
            "asymmetry": rep.asymmetry,
        }
        for name, rep in reports.items()
    }
    return res


def _run_spectrum(cfg: ExperimentConfig) -> ExperimentResult:
    """Level counts for |λ| ≤ 1, 2, 4, 8 from one inertia sweep, the levels
    of ``_SPECTRUM_WINDOW`` from one windowed eigensolve (contract numbers,
    eigenvalue dump), and the compactified no-eigenvalue probe over a sweep
    of trial energies.

    A solve that ``eigendecompose`` rejects, or a window too wide for it,
    becomes two FAIL lines carrying the rejected numbers; the sweep still
    runs and the eigenvalue table holds its header only."""
    res = ExperimentResult("spectrum")
    n = cfg.option("spectrum", "n")
    op = cfg.operator(make_grid(cfg.grid.x_min, n))
    cuts = np.array([1, 2, 4, 8])
    below = level_count(op, np.concatenate([-cuts, cuts]))
    counts = {str(k): int(up - down) for k, down, up in zip(cuts, below[:4], below[4:])}
    try:
        dec = eigendecompose(op, _SPECTRUM_WINDOW)
    except (NumericError, ConfigurationError) as exc:
        dec, diag = None, getattr(exc, "diagnostics", {})
        max_res = float(diag.get("max_residual", np.nan))
        ortho = float(diag.get("orthonormality", np.nan))
        rejected = f" (eigensolve rejected: {exc})"
    else:
        max_res, ortho = dec.max_residual, dec.orthonormality_defect
        rejected = ""
    res.checks.append(
        CheckLine("eigen_residual", dec is not None, f"max |Hv - λv| = {max_res:.3e}{rejected}")
    )
    res.checks.append(
        CheckLine(
            "orthonormality", dec is not None, f"defect = {ortho:.3e} (<= 1e-10){rejected}",
        )
    )

    lambdas = cfg.option("spectrum", "lambdas")
    depth = cfg.option("spectrum", "depth")
    sweep = []
    for lam in lambdas:
        rep = no_eigenvalue_test(lam, cfg.channel, params=cfg.params, depth=depth)
        sweep.append(rep)
        res.checks.append(
            CheckLine(
                f"no_eigenvalue[{lam:g}]", rep.invertible_limit,
                f"depth difference = {rep.depth_difference:.3e} (<= 1e-8), "
                f"cond = {rep.condition:.3g} (<= 1e3)",
            )
        )

    eigenvalues = np.empty(0) if dec is None else dec.eigenvalues
    res.scalars = {
        "dimension": 4 * n,
        "window": list(_SPECTRUM_WINDOW),
        "requested": None if dec is None else dec.requested,
        "counts": counts,
        "lambdas": lambdas,
        "depth": depth,
        "conditions": [r.condition for r in sweep],
        "depth_differences": [r.depth_difference for r in sweep],
        "current_defects": [r.current_defect for r in sweep],
        "steps": [r.steps for r in sweep],
    }
    res.tables["spectrum_eigenvalues.csv"] = (
        ("k", "lambda"), [(k, float(v)) for k, v in enumerate(eigenvalues)]
    )
    return res


def _run_domain_exponent(cfg: ExperimentConfig) -> ExperimentResult:
    """Wall decay rate of generic resolvent elements on a graded grid, one
    fit per mass, judged against the regime's expected exponent."""
    res = ExperimentResult("domain-exponent")
    masses = cfg.option("domain-exponent", "masses")
    block = cfg.options["domain-exponent"]
    grid = _graded_grid(block)

    rows = []
    for mass in masses:
        p = make_params(cfg.params.M, cfg.params.l, mass)
        op = assemble_hamiltonian(cfg.channel, p, grid)
        rep = boundary_exponent_fit(op)
        rows.append((mass, p.two_ml, rep))
        label = f"slope[2ml={p.two_ml:g}]"
        if not rep.fitted:
            res.checks.append(CheckLine(label, False, f"fit failed: {rep.reason}"))
        elif p.regime is Regime.CRITICAL:
            res.checks.append(
                CheckLine(
                    label, True,
                    f"slope = {rep.slope:.4f} (limiting regime, recorded only)",
                )
            )
        elif p.regime is Regime.SUPERCRITICAL:
            res.checks.append(
                CheckLine(
                    label, rep.slope >= 0.45,
                    f"slope = {rep.slope:.4f} (>= 0.45; square-integrability floor 0.5)",
                )
            )
        else:
            res.checks.append(
                CheckLine(
                    label, abs(rep.slope - rep.target) <= 0.05,
                    f"slope = {rep.slope:.4f} (within 0.05 of {rep.target:g})",
                )
            )

    res.scalars = {
        "masses": masses,
        "grading": {k: block[k] for k in ("h_min", "ratio", "h_max", "x_min")},
        "slopes": [r.slope for _, _, r in rows],
        "targets": [r.target for _, _, r in rows],
    }
    res.tables["domain_exponent.csv"] = (
        ("mass", "two_ml", "slope", "target", "n_points"),
        [
            (
                mass, two_ml, rep.slope,
                float("nan") if rep.target is None else rep.target,
                rep.n_points,
            )
            for mass, two_ml, rep in rows
        ],
    )
    return res


def _write_reports(res: ExperimentResult, cfg: ExperimentConfig, out_dir: Path) -> None:
    """Write a runner's tables as stamped CSV, then ``<name>.json`` (dashes
    become underscores) with its verdicts and scalars, and list the files
    in that order."""
    for name, (columns, rows) in res.tables.items():
        write_csv(out_dir / name, cfg.digest, columns, rows)
        res.files.append(name)
    name = res.name.replace("-", "_") + ".json"
    write_json(
        out_dir / name, cfg.digest,
        {
            "experiment": res.name,
            "checks": {
                c.name: {"passed": c.passed, "detail": c.detail} for c in res.checks
            },
            "scalars": res.scalars,
        },
    )
    res.files.append(name)


_RUNNERS = {
    "geometry": _run_geometry,
    "evolve": _run_evolve,
    "scatter": _run_scatter,
    "velocity": _run_velocity,
    "mourre": _run_mourre,
    "spectrum": _run_spectrum,
    "domain-exponent": _run_domain_exponent,
}


def _dump_matrix(cfg: ExperimentConfig, out_dir: Path) -> str:
    op = cfg.operator()
    coo = op.matrix.tocoo()
    path = out_dir / "matrix.csv"
    order = np.lexsort((coo.col, coo.row))
    write_csv(
        path, cfg.digest, ("row", "col", "re", "im"),
        [
            (int(coo.row[k]), int(coo.col[k]),
             float(coo.data[k].real), float(coo.data[k].imag))
            for k in order
        ],
    )
    return path.name


def _job(name: str, cfg: ExperimentConfig, out_dir: Path) -> ExperimentResult:
    """Run one experiment and write its reports, with its wall clock and CPU
    time; a module error inside marks the experiment as errored and goes no
    further.  Module level, so that a worker process can run it."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        result = _RUNNERS[name](cfg)
        _write_reports(result, cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        result = ExperimentResult(name, error=f"{type(exc).__name__}: {exc}")
    result.wall_clock = time.perf_counter() - start
    result.cpu_s = time.process_time() - cpu
    return result


def _collect(name: str, future: Future) -> ExperimentResult:
    """A worker's result; a worker that died (``BrokenProcessPool``) or a
    result that could not come back errors only that experiment."""
    try:
        return future.result()
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        return ExperimentResult(name, error=f"{type(exc).__name__}: {exc}")


def _openblas_thread_controls() -> List[Tuple[Callable, Callable]]:
    """(get, set) of the thread count of every OpenBLAS in this process:
    numpy's and scipy's wheels each load one, under their own symbol
    prefix.  Found through ``/proc/self/maps``; empty where that is not
    readable or no OpenBLAS is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.rsplit("/", 1)[-1] and ".so" in line
    }
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
    return controls


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold every OpenBLAS at one thread, and give back its count after.

    The run's parallelism is its workers, which inherit the count: BLAS
    threads on top of them oversubscribe the cores, and waiting OpenBLAS
    threads spin.  One thread also keeps the reports independent of the
    BLAS thread count, which moves the last bits of the window solves."""
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


def _peak_rss_mb() -> float:
    """The larger of this process's and its waited-for workers' peak RSS."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run(
    cfg: ExperimentConfig,
    experiments: Sequence[str],
    out: Optional[str] = None,
    threads: int = 1,
    dump_matrix: bool = False,
) -> RunManifest:
    """Execute the selected experiments, write all report files and
    ``manifest.json``, and return the manifest; nothing is printed.

    Each experiment is one job: it runs, writes its reports and is timed
    (wall clock and CPU).  With ``threads`` > 1 the jobs go to at most that
    many worker processes started by ``fork``, which inherit the parsed
    config and the imported modules; with one job or ``threads`` = 1 they
    run in this process, one after the other.  Every job runs on one BLAS
    thread.  Results are collected in the fixed experiment order, so every
    report but the manifest is byte-identical whatever the width and the
    BLAS thread setting.  A module error inside a job, or a
    worker that dies, marks only the experiments it took as errored, and no
    worker outlives the call.
    """
    selected = tuple(e for e in EXPERIMENTS if e in experiments)
    if not selected:
        raise ConfigurationError("no experiments selected")
    out_dir = Path(out) if out is not None else Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    extra_files: List[str] = []
    if dump_matrix:
        extra_files.append(_dump_matrix(cfg, out_dir))

    width = min(threads, len(selected))
    with _one_blas_thread():
        if width <= 1:
            results = [_job(name, cfg, out_dir) for name in selected]
        else:
            # Imported here, so that a run in this process skips their
            # 15 ms.  fork, not spawn: a spawned worker imports numpy and
            # scipy again, most of a desk run's set-up.  The pool forks every
            # worker at the first submit, before it starts its own threads,
            # and the package starts none.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=width, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                futures = [pool.submit(_job, name, cfg, out_dir) for name in selected]
                results = [_collect(name, f) for name, f in zip(selected, futures)]

    manifest = RunManifest(
        version=VERSION,
        config=cfg.digest,
        out=str(out_dir),
        threads=threads,
        results=results,
        wall_clock=time.perf_counter() - t0,
        peak_rss_mb=_peak_rss_mb(),
    )
    doc = manifest.to_dict()
    if extra_files:
        doc["extra_files"] = extra_files
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
    )
    return manifest
