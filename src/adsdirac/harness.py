"""Experiment harness: validated configs, orchestrated runs, flat-file reports.

A run is described by one JSON file.  Parsing walks one table,
:data:`_SCHEMA`, that gives every key its default, its test and what the
test demands: unknown keys are errors, a null is the same as a missing key,
and defaults are filled in.  A short list of rules then ties keys together
by handing the values to the modules that will consume them (parameters and
channel, the grids, the wave packets on the configured grid), and the
parsed config keeps the grid those rules built.  All complaints are
aggregated into a single :class:`ConfigError` so a long run cannot die late
on a typo.  Execution runs the selected experiments in up to ``threads``
worker processes started by ``fork`` (in this process when the width is 1)
and collects them in a fixed order; each runner returns its check lines
(each one value held to one bound), its scalars and its CSV tables, and one
writer emits the tables, then a JSON file of the lines and scalars.
``run`` prints nothing; the CLI prints the check lines.  Numeric outputs
are byte-reproducible for identical configs: fixed float formatting,
deterministic solvers.  Timing lives only in the manifest, which is the one
file allowed to differ between reruns.

Config shape (only ``M``, ``l``, ``m``, ``channel`` are required; shown
with the defaults, ``options`` without its empty blocks)::

    {
      "M": 1.0, "l": 1.0, "m": 1.0,
      "channel": [0.5, 0.5],
      "grid": {"x_min": -32.0, "n": 2048},
      "out": "runs",
      "seed": 0,
      "options": {"scatter": {"schedule": [1, 2, 4, 8, 16]},
                  "mourre": {"n": 640}, "spectrum": {"n": 640}}
    }

``grid`` is uniform; ``evolve`` steps at half its minimum spacing.  What
else an experiment reads (its packets, times, windows, trial energies,
masses and the graded grid of ``domain-exponent``) is a private constant
of this module, and so is every verdict bound.  The boundary condition at
the wall is the one the 2ml regime requires; every report records it.  The
canonical form of a config is this tree with every default filled in, and
its SHA-256 is the digest stamped into every report.

Every emitted number traces to a module operation; the harness itself only
builds inputs, forwards them, and formats what comes back.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import operator
import resource
import sys
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import roots_legendre

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
    evolve,
    flushes_subnormals,
    free_propagate,
)
from adsdirac.geometry import (
    CoordinateMap,
    Params,
    Regime,
    expansion_residuals,
    inverse_memo,
    make_params,
    metric_factor,
)
from adsdirac.grids import BoundaryGraded, Grid, SpinorField, gaussian_packet, make_grid
from adsdirac.scattering import (
    CONVERGED_FRACTION,
    ROUNDING_FLOOR,
    WALL_DISTANCE,
    adjointness_residual,
    velocity_report,
    wave_operator_backward,
    wave_operator_forward,
)
from adsdirac.spectral import (
    CONDITION_LIMIT,
    DEPTH_TOL,
    EIGEN_TOL,
    MOURRE_EPS,
    MOURRE_STABILITY,
    boundary_exponent_fit,
    eigendecompose,
    level_count,
    mourre_check,
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

#: the spinor of the runners' packets: components 1 and 4, the two that
#: move toward the wall
_PAIR = (1.0, 0.0, 0.0, 1.0)
#: (centre, width) of each packet a runner starts from, each with the
#: spinor ``_PAIR``; the parser builds every one on the configured grid
_PACKETS = {
    "evolve": (-4.0, 0.5),
    "scatter": (-4.0, 0.5),  # φ, which Ω carries
    "scatter target": (-2.5, 0.4),  # ψ, which W carries
    "velocity": (-2.5, 0.25),
}
#: the snapshot times of ``evolve``'s flow, which runs to the last
_EVOLVE_TIMES = (2.0, 4.0, 6.0, 8.0, 10.0)
#: the trace times of ``velocity``
_VELOCITY_TIMES = (4.0, 8.0, 12.0, 16.0, 20.0)
#: the spectral window ``mourre`` tests, on ``mourre.n`` nodes and on this
#: many times as many
_MOURRE_WINDOW = (0.5, 1.5)
_MOURRE_FINE_FACTOR = 2
#: the levels ``spectrum`` solves for; the channel operators keep a gap at 0
_SPECTRUM_WINDOW = (-1.0, 1.0)
#: the trial energies of the no-eigenvalue sweep, and the depth X its probe
#: integrates from (x = -X to x = -1)
_SPECTRUM_LAMBDAS = (-2.0, -1.0, 0.0, 1.0, 2.0)
_SPECTRUM_DEPTH = 20.0
#: the masses ``domain-exponent`` fits, on its graded grid over (x_min, 0)
_DOMAIN_MASSES = (1.0, 0.25)
_DOMAIN_X_MIN = -24.0
_DOMAIN_GRADING = BoundaryGraded(h_min=1e-3, ratio=1.1, h_max=0.05)
_REQUIRED = object()  # the default of a key that must be given
#: nodes of the Gauss–Legendre rule of the ``tortoise_quadrature`` check
_TORTOISE_NODES = 40


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
    "out": ("runs", lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    # accepted and read by nothing since no check samples random fields
    "seed": (0, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "options": {
        "geometry": {},
        "evolve": {},
        "scatter": {
            "schedule": (
                (1.0, 2.0, 4.0, 8.0, 16.0),
                lambda v: _numbers(v) and len(v) >= 3 and v[0] > 0
                and all(a < b for a, b in zip(v, v[1:])),
                "at least 3 increasing positive times",
            ),
        },
        "velocity": {},
        "mourre": {"n": (640, *_INTEGER)},
        "spectrum": {"n": (640, *_INTEGER)},
        "domain-exponent": {},
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


def _packet(grid: Grid, name: str) -> SpinorField:
    """The packet ``_PACKETS[name]`` on ``grid``."""
    center, width = _PACKETS[name]
    return gaussian_packet(grid, center, width, components=_PAIR)


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
    if grid is not None:
        for name in _PACKETS:
            rule(f"grid: {name} packet", lambda: _packet(grid, name))
    for name in ("mourre", "spectrum"):
        rule(f"options.{name}: n", lambda: make_grid(tree["grid"]["x_min"], opts[name]["n"]))
    if errors:
        raise ConfigError(errors)

    digest = hashlib.sha256(
        json.dumps(tree, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ExperimentConfig(
        params=params,
        channel=channel,
        grid=grid,
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


_RELATIONS = {"<=": operator.le, ">=": operator.ge}


@dataclass
class CheckLine:
    """One acceptance check: the measured ``value`` of ``what``, held to
    ``bound`` by ``relation``, "<=" or ">=".  ``passed`` and ``detail``
    derive from these fields.  A NaN value is a number that was not
    measured, and fails under either relation; ``note`` then says why, and
    otherwise what the number means."""

    name: str
    what: str
    value: float
    relation: str
    bound: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    @property
    def detail(self) -> str:
        shown = f"{self.value:.3e}" if isinstance(self.value, float) else f"{self.value}"
        text = f"{self.what} = {shown} ({self.relation} {self.bound:g})"
        return f"{text}; {self.note}" if self.note else text

    def line(self, experiment: str) -> str:
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {experiment}.{self.name}: {self.detail}"


@dataclass
class ExperimentResult:
    """One runner's verdicts, scalars and CSV tables (file name → (columns,
    rows)); ``files`` lists what the writer wrote, and
    ``coordinate_inverses`` how many node sets the job solved the coordinate
    inverse on and how many it read from ``geometry.inverse_memo``."""

    name: str
    checks: List[CheckLine] = field(default_factory=list)
    scalars: Dict = field(default_factory=dict)
    tables: Dict[str, Tuple[Sequence[str], list]] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)
    error: Optional[str] = None
    wall_clock: float = 0.0
    cpu_s: float = 0.0
    coordinate_inverses: Dict[str, int] = field(
        default_factory=lambda: {"solved": 0, "reused": 0}
    )

    @property
    def status(self) -> str:
        """"error" when the runner raised, "pass" when it wrote check lines
        and each one passed, and "fail" otherwise: a run that checked
        nothing has shown nothing."""
        if self.error is not None:
            return "error"
        return "pass" if self.checks and all(c.passed for c in self.checks) else "fail"


@dataclass
class RunManifest:
    """What ran, what it wrote, and whether everything passed.
    ``peak_rss_mb`` is the larger of the run process's and its workers'
    peak resident memory; ``subnormals_flushed`` says whether the
    propagators ran with subnormals flushed to zero."""

    version: str
    config: str
    out: str
    threads: int
    results: List[ExperimentResult]
    wall_clock: float
    peak_rss_mb: float
    subnormals_flushed: bool

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
            "subnormals_flushed": self.subnormals_flushed,
            "all_passed": self.all_passed,
            "experiments": {
                r.name: {
                    "status": r.status,
                    "wall_clock": r.wall_clock,
                    "cpu_s": r.cpu_s,
                    "coordinate_inverses": r.coordinate_inverses,
                    "files": r.files,
                    "checks": {c.name: c.passed for c in r.checks},
                    **({"error": r.error} if r.error else {}),
                }
                for r in self.results
            },
        }


# -------------------------------------------------------- the experiments


def _tortoise_quadrature(p: Params, r: np.ndarray) -> np.ndarray:
    """∫ dr/F between each pair of consecutive radii r > r_sads, by the
    ``_TORTOISE_NODES``-point Gauss–Legendre rule in s = ln δ, δ = r − r_sads,
    on each interval.  There dr/F = (δ/F)·ds, and δ/F is analytic in s
    (F's simple root sits at δ = 0), so the rule converges geometrically.
    F comes from ``metric_factor``, never from the coordinate map the
    integrals are compared with."""
    nodes, weights = roots_legendre(_TORTOISE_NODES)
    s = np.log(r - p.r_sads)
    half = 0.5 * np.diff(s)
    delta = np.exp((0.5 * (s[1:] + s[:-1]))[:, None] + half[:, None] * nodes)
    return half * ((delta / metric_factor(p.r_sads + delta, p.M, p.l)) @ weights)


def _run_geometry(cfg: ExperimentConfig) -> ExperimentResult:
    """Horizon root, tortoise map vs. quadrature, coordinate round trips."""
    p = cfg.params
    cm = CoordinateMap(p)
    res = ExperimentResult("geometry")

    root = abs(metric_factor(p.r_sads, p.M, p.l))
    res.checks.append(CheckLine("horizon_root", "|F(r_h)|", root, "<=", 1e-12))

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
    res.checks.append(CheckLine("round_trip", "max rel error", trip, "<=", 1e-10))

    probes = p.r_sads + np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
    gap = 0.0
    for r1, r2, val in zip(probes[:-1], probes[1:], _tortoise_quadrature(p, probes)):
        gap = max(gap, abs(val - (cm.tortoise(r2) - cm.tortoise(r1))))
    res.checks.append(
        CheckLine(
            "tortoise_quadrature",
            f"max |closed form - {_TORTOISE_NODES}-point Gauss–Legendre in ln δ|",
            gap, "<=", 1e-8,
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
        "horizon_root": root,
        "round_trip": trip,
        "quadrature_gap": gap,
    }

    xs = -np.geomspace(1e-8, 0.98 * abs(cfg.grid.x_min), 201)[::-1]
    rows = zip(
        xs.tolist(),
        cm.r_of_x(xs).tolist(),
        cm.sqrtF_of_x(xs).tolist(),
        cm.angular_factor_of_x(xs).tolist(),
    )
    res.tables["geometry_map.csv"] = (("x", "r", "sqrtF", "angular"), list(rows))
    return res


def _run_evolve(cfg: ExperimentConfig) -> ExperimentResult:
    """Unitary flow on the configured operator plus the free-flow oracle.

    The configured flow runs Cayley steps, whose drift is the unitarity
    check.  The ``hermiticity`` line, not the drift, guards against an S
    that is not Hermitian: a real 1e−2 entry under the packet moves the
    desk drift to 6.7e−10 only.  The oracle takes the exact flow of the
    discrete comparison generator from the Chebyshev expansion, which adds
    no time-step error, so its distance from the closed form is the
    stencil's alone."""
    res = ExperimentResult("evolve")
    grid = cfg.grid
    op = cfg.operator()

    herm = op.hermiticity_defect()
    res.checks.append(
        CheckLine(
            "hermiticity", "defect", herm, "<=", 1e-10,
            "0 by construction, so only a matrix swapped in by hand fails it; "
            "criterion 3's only guard against a non-Hermitian generator",
        )
    )

    psi0 = _packet(grid, "evolve")
    run_to = EvolutionConfig(
        dt=0.5 * grid.min_spacing, t_final=_EVOLVE_TIMES[-1], snapshot_times=_EVOLVE_TIMES
    )
    traj = evolve(op, psi0, run_to)
    # the largest W-mass of the normalized state near x_min, as in velocity.json
    near_wall = grid.nodes < grid.x_min + WALL_DISTANCE
    wall_mass = max(grid.norm(f.values * near_wall) ** 2 for f in traj.fields) / psi0.norm() ** 2
    res.checks.append(
        CheckLine(
            "unitarity", "norm drift", traj.norm_drift, "<=", 1e-8,
            f"over t = {run_to.t_final:g}",
        )
    )

    # The discrete free flow against its closed form at three uniform
    # resolutions: the error must sit below 1e-3 and fall at second order
    # under each refinement, so the order checked is the smaller of two.
    errors, runs = [], []
    for n in (512, 1024, 2048):
        g = make_grid(-8.0, n)
        phi = gaussian_packet(g, -3.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        runs.append(chebyshev_propagate(free_operator(g), phi, (5.0,)))
        exact = free_propagate(phi, 5.0)
        errors.append(g.norm(runs[-1].fields[0].values - exact.values))
    orders = [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]
    res.checks.append(
        CheckLine("free_oracle", "closed-form error at n = 2048", errors[-1], "<=", 1e-3)
    )
    res.checks.append(
        CheckLine(
            "free_order", "smaller observed order", min(orders), ">=", 1.8,
            f"{orders[0]:.2f} from n = 512 to 1024, {orders[1]:.2f} from 1024 to 2048",
        )
    )

    res.scalars = {
        "norm_drift": traj.norm_drift,
        "hermiticity_defect": herm,
        "dt_effective": traj.dt_effective,
        "steps": traj.steps,
        "max_residual": traj.max_residual,
        "refinements": traj.refinements,
        "wall_mass": wall_mass,
        "free_errors": errors,
        "free_order": min(orders),
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


def _module_failure(exc: Exception) -> str:
    """A module error as a note: its message and the numbers behind it."""
    numbers = [f"{k} = {v:.3e}" if isinstance(v, float) else f"{k} = {v}"
               for k, v in getattr(exc, "diagnostics", {}).items()]
    return ", ".join([str(exc)] + numbers)


def _run_scatter(cfg: ExperimentConfig) -> ExperimentResult:
    """Wave operators along a dyadic schedule, their adjoint pairing, and
    the trivial self-comparison that must come out at solver rounding.

    Each wave operator gives two lines: its final increment against
    ``CONVERGED_FRACTION``·‖φ‖, and its ``tail_rises`` against 0.  Content
    moving left at unit speed from six widths beyond either packet must not
    reach x_min by the last time, where the free flow has no data: a
    shorter domain, or a free flow that samples data left of x_min all the
    same, leaves the five lines of Ω and W unmeasured, with the reason in
    their note, and the increments table with its header only."""
    res = ExperimentResult("scatter")
    op = cfg.operator()
    schedule = cfg.options["scatter"]["schedule"]
    columns = ("t", "forward_increment", "backward_increment")

    # Self-comparison: the interacting and comparison factors are the same
    # discrete generator, so Ω is the identity by algebra and every
    # increment a solver residual, unless snapshots and pullbacks mismatch.
    f_grid = make_grid(-16.0, 320)
    f_phi = gaussian_packet(f_grid, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
    triv = wave_operator_forward(
        f_phi, free_operator(f_grid), (1.0, 2.0, 3.0), free_factor="discrete"
    )
    triv_max = float(np.max(triv.increments))
    trivial = CheckLine(
        "trivial", "max self-comparison increment", triv_max, "<=", 1e-10,
        "the identity by algebra",
    )
    res.scalars = {"schedule": schedule, "trivial_max": triv_max, "bc": op.bc.value}

    phi = _packet(cfg.grid, "scatter")
    psi = _packet(cfg.grid, "scatter target")
    rises = f"rises among the last three increments (none if all <= {ROUNDING_FLOOR:g})"

    def lines(fwd_final, fwd_rises, bwd_final, bwd_rises, pairing, note=""):
        return [
            CheckLine("forward", "final increment", fwd_final, "<=",
                      CONVERGED_FRACTION * phi.norm(), note),
            CheckLine("forward_tail", rises, fwd_rises, "<=", 0, note),
            CheckLine("backward", "final increment", bwd_final, "<=",
                      CONVERGED_FRACTION * psi.norm(), note),
            CheckLine("backward_tail", rises, bwd_rises, "<=", 0, note),
            CheckLine("adjoint", "|<Ω φ, ψ> - <φ, W ψ>|", pairing, "<=", 1e-2, note),
            trivial,
        ]

    reach = schedule[-1] + max(
        abs(center) + 6.0 * width
        for center, width in (_PACKETS["scatter"], _PACKETS["scatter target"])
    )
    failure = None
    if abs(cfg.grid.x_min) < reach:
        failure = f"scatter to t = {schedule[-1]:g} needs x_min <= -{reach:g}"
    else:
        try:
            fwd = wave_operator_forward(phi, op, schedule)
            bwd = wave_operator_backward(psi, op, schedule)
        except NumericError as exc:
            failure = _module_failure(exc)
    if failure is not None:
        res.checks = lines(*[math.nan] * 5, note=failure)
        res.tables["scatter_increments.csv"] = (columns, [])
        return res

    pairing = adjointness_residual(fwd, bwd, phi, psi)
    res.checks = lines(
        fwd.increments[-1], fwd.tail_rises, bwd.increments[-1], bwd.tail_rises, pairing
    )
    res.scalars.update({
        "forward_final": float(fwd.increments[-1]),
        "backward_final": float(bwd.increments[-1]),
        "forward_limit_norm": fwd.limit_norm,
        "backward_limit_norm": bwd.limit_norm,
        "adjoint_gap": float(pairing),
        # the Chebyshev runs of W (Ω and the trivial oracle run Cayley);
        # R of the configured operator; the drift of every run
        "matvecs": bwd.matvecs,
        "bound": bwd.bound,
        "norm_drift": max(fwd.norm_drift, bwd.norm_drift, triv.norm_drift),
    })
    rows = zip(schedule[1:], fwd.increments.tolist(), bwd.increments.tolist())
    res.tables["scatter_increments.csv"] = (columns, list(rows))
    return res


def _run_velocity(cfg: ExperimentConfig) -> ExperimentResult:
    """Propagation-velocity diagnostics from one evolution: minimal and
    maximal cutoff traces, the light-cone sandwich, and ⟨𝒜/t⟩ → 1.

    Content moving left at unit speed must not reach the left wall before
    the last trace time.  The flow is unitary and the wall reflects, so
    only this test guards it: a shorter domain records the four lines
    unmeasured, saying so, with a header-only trace table."""
    res = ExperimentResult("velocity")
    grid = cfg.grid
    op = cfg.operator()
    times = _VELOCITY_TIMES
    columns = ("t", "minimal", "maximal", "unit", "cone", "v")
    short = ""
    if abs(grid.x_min) < times[-1] + 6.0:
        short = f"velocity traces to t = {times[-1]:g} need x_min <= -{times[-1] + 6:g}"
        mn = mx = cone = v = math.nan
    else:
        rep = velocity_report(_packet(grid, "velocity"), times, op)
        mn = float(rep.minimal_values[-1])
        mx = float(abs(rep.maximal_values[-1]))
        cone = float(rep.cone_fractions[-1])
        v = rep.v_extrapolated
    at = f"at t = {times[-1]:g}"
    res.checks = [
        CheckLine("minimal", f"sub-unit-speed mass {at}", mn, "<=", 1e-2, short),
        CheckLine("maximal", f"super-unit-speed trace {at}", mx, "<=", 1e-2, short),
        CheckLine("cone", "mass inside |x|/t ∈ (1-δ, 1+δ)", cone, ">=", 0.98, short),
        CheckLine(
            "asymptotic", "|extrapolated mean velocity - 1|", abs(v - 1.0), "<=", 0.05,
            short or f"v = {v:.4f}",
        ),
    ]
    if short:
        res.scalars = {"bc": op.bc.value}
        res.tables["velocity_traces.csv"] = (columns, [])
        return res

    res.scalars = {
        "v_extrapolated": v,
        "cone_delta": rep.cone_delta,
        "unit_final": float(rep.unit_values[-1]),
        "wall_mass": rep.wall_mass,
        "bc": op.bc.value,
        "matvecs": rep.matvecs,
        "bound": rep.bound,
        "norm_drift": rep.norm_drift,
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
    """Commutator positivity on a spectral window at two resolutions, each
    minimum quotient held to 1 − ``MOURRE_EPS`` and their drift to
    ``MOURRE_STABILITY``, plus the free operator on the coarse grid, where
    the quotient is exactly one."""
    res = ExperimentResult("mourre")
    n = cfg.options["mourre"]["n"]
    coarse_grid = make_grid(cfg.grid.x_min, n)
    res.scalars = {"interval": list(_MOURRE_WINDOW), "eps": MOURRE_EPS}
    # A window holding fewer than ten levels is below the discrete
    # resolution, and one centred on a level cannot be shift-inverted; the
    # ConfigurationError names the levels and becomes the note of an
    # unmeasured line instead of ending the experiment.
    reports, failures = {}, {}
    for name, op in (
        ("coarse", cfg.operator(coarse_grid)),
        ("fine", cfg.operator(make_grid(cfg.grid.x_min, _MOURRE_FINE_FACTOR * n))),
        ("free", free_operator(coarse_grid)),
    ):
        try:
            reports[name] = mourre_check(op, _MOURRE_WINDOW)
        except ConfigurationError as exc:
            failures[name] = str(exc)

    quotient = {name: rep.min_quotient for name, rep in reports.items()}
    for line, name in (("window", "coarse"), ("fine_window", "fine")):
        rep = reports.get(name)
        res.checks.append(
            CheckLine(
                line, f"min quotient on {list(_MOURRE_WINDOW)}", quotient.get(name, math.nan),
                ">=", 1.0 - MOURRE_EPS,
                f"η = {rep.eta:.4f}, {rep.n_states} states" if rep else failures[name],
            )
        )
    drift = abs(quotient.get("fine", math.nan) - quotient.get("coarse", math.nan))
    not_run = failures.get("coarse", failures.get("fine"))
    res.checks.append(
        CheckLine(
            "refinement", "quotient drift", drift, "<=", MOURRE_STABILITY,
            f"not run: {not_run}" if not_run else "",
        )
    )
    free_gap = abs(quotient.get("free", math.nan) - 1.0)
    res.checks.append(
        CheckLine(
            "free_quotient", "|min quotient - 1| on the free operator", free_gap, "<=", 1e-9,
            f"free operator: {failures['free']}" if "free" in failures else "",
        )
    )
    if not_run is None:
        rep_c, rep_f = reports["coarse"], reports["fine"]
        res.scalars.update({
            "coarse_quotient": rep_c.min_quotient,
            "fine_quotient": rep_f.min_quotient,
            "quotient_drift": drift,
            "coarse_states": rep_c.n_states,
            "fine_states": rep_f.n_states,
            "eta": rep_c.eta,
        })
    if "free" in reports:
        res.scalars["free_gap"] = free_gap

    # the eigensolve behind each window: pairs requested against pairs
    # found in the window, largest residual and W-orthonormality defect
    res.scalars["solves"] = {
        name: {
            "requested": rep.requested,
            "found": rep.n_states,
            "max_residual": rep.max_residual,
            "orthonormality_defect": rep.orthonormality_defect,
        }
        for name, rep in reports.items()
    }
    return res


def _run_spectrum(cfg: ExperimentConfig) -> ExperimentResult:
    """Level counts for |λ| ≤ 1, 2, 4, 8 from one inertia sweep, the levels
    of ``_SPECTRUM_WINDOW`` from one windowed eigensolve (contract numbers,
    eigenvalue dump), and the compactified no-eigenvalue probe over a sweep
    of trial energies, its depth difference and its condition number one
    line each.

    The two contract lines hold the solve to the bounds ``eigendecompose``
    enforces.  A solve it rejects, or a window too wide for it, leaves them
    unmeasured, with the rejected numbers in the note; the sweep still runs
    and the eigenvalue table holds its header only."""
    res = ExperimentResult("spectrum")
    n = cfg.options["spectrum"]["n"]
    op = cfg.operator(make_grid(cfg.grid.x_min, n))
    cuts = np.array([1, 2, 4, 8])
    below = level_count(op, np.concatenate([-cuts, cuts]))
    counts = {str(k): int(up - down) for k, down, up in zip(cuts, below[:4], below[4:])}
    try:
        dec = eigendecompose(op, _SPECTRUM_WINDOW)
    except (NumericError, ConfigurationError) as exc:
        dec, rejected = None, f"eigensolve rejected: {_module_failure(exc)}"
        max_res = ortho = scale = math.nan
    else:
        max_res, ortho, rejected = dec.max_residual, dec.orthonormality_defect, ""
        scale = float(np.max(np.abs(dec.eigenvalues), initial=0.0))
    res.checks.append(
        CheckLine(
            "eigen_residual", "max |Hv - λv|", max_res, "<=", EIGEN_TOL * scale,
            rejected or f"the bound is {EIGEN_TOL:g}·max|λ|, max|λ| = {scale:.4f}",
        )
    )
    res.checks.append(CheckLine("orthonormality", "defect", ortho, "<=", EIGEN_TOL, rejected))

    sweep = []
    for lam in _SPECTRUM_LAMBDAS:
        rep = no_eigenvalue_test(lam, cfg.channel, params=cfg.params, depth=_SPECTRUM_DEPTH)
        sweep.append(rep)
        res.checks += [
            CheckLine(f"no_eigenvalue[{lam:g}]", "depth difference", rep.depth_difference,
                      "<=", DEPTH_TOL),
            CheckLine(f"condition[{lam:g}]", "cond₂ Φ_X", rep.condition, "<=", CONDITION_LIMIT),
        ]

    eigenvalues = np.empty(0) if dec is None else dec.eigenvalues
    res.scalars = {
        "dimension": 4 * n,
        "window": list(_SPECTRUM_WINDOW),
        "requested": None if dec is None else dec.requested,
        "counts": counts,
        "lambdas": list(_SPECTRUM_LAMBDAS),
        "depth": _SPECTRUM_DEPTH,
        "conditions": [r.condition for r in sweep],
        "depth_differences": [r.depth_difference for r in sweep],
        "current_defects": [r.current_defect for r in sweep],
        "integral_tails": [r.integral_tail for r in sweep],
        "steps": [r.steps for r in sweep],
    }
    res.tables["spectrum_eigenvalues.csv"] = (
        ("k", "lambda"), [(k, float(v)) for k, v in enumerate(eigenvalues)]
    )
    return res


def _run_domain_exponent(cfg: ExperimentConfig) -> ExperimentResult:
    """Wall decay rate of generic resolvent elements on a graded grid, one
    fit per mass, judged against the regime's expected exponent; the
    critical regime's slope carries no claim and is only recorded."""
    res = ExperimentResult("domain-exponent")
    grid = make_grid(_DOMAIN_X_MIN, policy=_DOMAIN_GRADING)

    rows, walls = [], []
    for mass in _DOMAIN_MASSES:
        p = make_params(cfg.params.M, cfg.params.l, mass)
        op = assemble_hamiltonian(cfg.channel, p, grid)
        rep = boundary_exponent_fit(op)
        rows.append((mass, p.two_ml, rep))
        walls.append(op.wall_exponent)
        label = f"slope[2ml={p.two_ml:g}]"
        slope = rep.slope if rep.fitted else math.nan
        failed = "" if rep.fitted else f"fit failed: {rep.reason}"
        if p.regime is Regime.SUPERCRITICAL:
            res.checks.append(CheckLine(
                label, "slope", slope, ">=", 0.45,
                failed or f"square-integrability floor {rep.target:g}",
            ))
        elif p.regime is Regime.SUBCRITICAL:
            res.checks.append(CheckLine(
                label, f"|slope - ({rep.target:g})|", abs(slope - rep.target), "<=", 0.05,
                failed or f"slope = {slope:.4f}",
            ))

    res.scalars = {
        "masses": list(_DOMAIN_MASSES),
        "grading": {
            "x_min": _DOMAIN_X_MIN, "h_min": _DOMAIN_GRADING.h_min,
            "ratio": _DOMAIN_GRADING.ratio, "h_max": _DOMAIN_GRADING.h_max,
        },
        "slopes": [r.slope for _, _, r in rows],
        "targets": [r.target for _, _, r in rows],
        "wall_exponents": walls,  # what each wall row carries, null for the mirror
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
                c.name: {
                    k: getattr(c, k) for k in ("value", "relation", "bound", "passed", "detail")
                }
                for c in res.checks
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
    """matrix.csv: the entries of G = PSPᵀ/2, the assembled matrix, by row."""
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
    """Run one experiment and write its reports, with its wall clock, CPU
    time and the coordinate inverses it solved and reused, read from the
    memo's counters in the process that ran it.  The memo starts empty, so
    the counts do not depend on which experiments a worker ran before.  A
    module error inside marks the experiment as errored and goes no
    further.  Module level, so that a worker process can run it."""
    start, cpu = time.perf_counter(), time.process_time()
    inverse_memo.cache_clear()
    try:
        result = _RUNNERS[name](cfg)
        _write_reports(result, cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        result = ExperimentResult(name, error=f"{type(exc).__name__}: {exc}")
    result.wall_clock = time.perf_counter() - start
    result.cpu_s = time.process_time() - cpu
    memo = inverse_memo.cache_info()
    result.coordinate_inverses = {"solved": memo.misses, "reused": memo.hits}
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
        subnormals_flushed=flushes_subnormals(),
    )
    doc = {**manifest.to_dict(), "canonical": cfg.canonical}  # what the digest hashes
    if extra_files:
        doc["extra_files"] = extra_files
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
    )
    return manifest
