"""Norm-preserving time evolution and the exact comparison propagator.

Both propagators work in the sector coordinates u = PW^{1/2}ψ of
``channel.to_sectors``, ‖u‖ = √2·‖ψ‖_W, on the blocks of the assembled
matrix G = PSPᵀ/2 (``ChannelOperator.sectors``), S = W^{1/2} H W^{−1/2}:
one 2n-row block per sector of γ³γ⁵, read as assembled.  An
operator with an entry across the sectors has no such blocks, and both
propagators raise ``ConfigurationError`` on it.  A run maps the state to
u once at the start and back once per snapshot, and propagates only the
blocks u occupies; the others stay exactly zero, so the packets (1, 0, 0, 1) of the experiments,
which lie in one sector, pay half of every solve and product.

The one-step map is the Cayley (trapezoidal) rational approximation of the
exponential,

    (𝟙 + i·dt/2·G) u^{k+1} = (𝟙 − i·dt/2·G) u^k ,

which is *exactly* unitary for a discretely self-adjoint H — unitarity of
the computed flow is then a structural fact, limited only by the direct
solver's rounding, never by the step size.  With A = i·dt/2·G and
M₊ = 𝟙 + A, the same map is (𝟙 + A)⁻¹(𝟙 − A) = 2M₊⁻¹ − 𝟙: one sparse
solve y = M₊⁻¹u per occupied block, with M₊ factored once per (block, dt),
checked by its residual r = u − M₊y and folded in as u ← 2(y + r) − u.
The unitarity check, the ``evolve`` experiment's own flow and the forward
wave operator run on it.

``chebyshev_propagate`` applies the exponential itself, by the Chebyshev
expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) on each
occupied block G_b of G:

    e^{−itG_b} = Σ_k (2 − δ_k0)(−i)^k J_k(tR) T_k(G_b/R) ,

with R the Gershgorin bound of G_b — a guaranteed bound, since the series
diverges on any level outside [−R, R] — and the sum cut at the first
order K > tR with |J_K(tR)| < 1e−17.  R is built once per operator with
the blocks, 2G_b/R once per run.  The run is unitary only up to that
truncation, so it measures its drift and raises past 1e−8, naming R and
the operator's hermiticity defect, the two possible causes.  It costs
about tR matvecs and no solve, and it has no time-step error, so the
backward wave operator, the velocity traces and the free-oracle check
(the discrete comparison flow against the closed form below) run on it.

Both loops run with subnormals flushed to zero (``_flush_to_zero``: the
FTZ and DAZ bits of x86-64's MXCSR, set through libm's ``fesetenv`` and
the saved environment given back after, exceptions included).  Far from
its centre a packet is exactly zero, and every solve or product fills
that region with exponentially small values that pass through the
subnormal range (below 2.2e−308), which the processor handles slowly: on
a 2-core Xeon VM that was more than a quarter of every Cayley step and
every Chebyshev product (fastest of eight runs each: a step on a
4096-row block 312 → 229 µs, a product on an 8192-row block 94 → 67 µs;
``BENCH_29.json``).  Flushing only moves values some 290 decades below
``SOLVER_TOL``, ``DRIFT_LIMIT`` and the Bessel tail, so drifts,
residuals, refinement and matvec counts do not move, and the states'
real and imaginary parts agree bit for bit wherever the part is above
1e−100 in modulus.  Under DAZ, a block that
holds only subnormals reads as empty, so ``CayleyStepper.step`` leaves
it at exactly zero.  Off x86-64 Linux the loops run in IEEE mode.

The comparison generator Γ¹D_x with the bag-type wall has an explicit
method-of-characteristics solution: components (1, 4) transport with speed
+1 and reflect at x = 0 into components (3, 2) with signs (−, +), matching
the wall coupling ψ₁(t,0) = −ψ₃(t,0), ψ₂(t,0) = ψ₄(t,0).  ``free_propagate``
evaluates that closed form by sampling the initial data with the
not-a-knot cubic spline through the nodes (``scipy.interpolate.CubicSpline``'s
default, built here by the same arithmetic, so scipy.interpolate is never
imported), so it serves as an independent oracle for the discrete flow.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu
from scipy.special import jv

from .channel import ChannelOperator, ConfigurationError, from_sectors, to_sectors
from .grids import Grid, SpinorField

__all__ = [
    "Direction",
    "EvolutionConfig",
    "NumericError",
    "Trajectory",
    "check_step",
    "CayleyStepper",
    "evolve",
    "Propagation",
    "chebyshev_propagate",
    "flushes_subnormals",
    "free_propagate",
]

#: relative residual ‖ψ − M₊y‖/‖ψ‖ every Cayley solve is held to
SOLVER_TOL = 1e-10
#: relative W-norm drift past which a Chebyshev run raises
DRIFT_LIMIT = 1e-8
#: a Chebyshev series stops at the first order K > tR with |J_K(tR)| below this
_BESSEL_TAIL = 1e-17

#: glibc's x86-64 fenv_t: 32 bytes, the last 32-bit word the SSE control
#: and status register MXCSR
_FenvT = ctypes.c_uint32 * 8
#: MXCSR's flush-to-zero (0x8000) and denormals-are-zero (0x0040) bits
_FTZ_DAZ = 0x8040
#: the one platform whose fenv_t layout ``_flush_to_zero`` knows
_FLUSH_PLATFORM = sys.platform == "linux" and os.uname().machine == "x86_64"


@functools.lru_cache(maxsize=None)
def _fenv_calls():
    """libm's (fegetenv, fesetenv), looked up once from the loaded
    libraries; None off x86-64 Linux."""
    if not _FLUSH_PLATFORM:
        return None
    libm = ctypes.CDLL(None)
    calls = (libm.fegetenv, libm.fesetenv)
    for call in calls:
        call.argtypes, call.restype = [ctypes.POINTER(_FenvT)], ctypes.c_int
    return calls


def flushes_subnormals() -> bool:
    """Whether ``evolve`` and ``chebyshev_propagate`` run with subnormals
    flushed to zero on this platform (x86-64 Linux)."""
    return _fenv_calls() is not None


@contextmanager
def _flush_to_zero() -> Iterator[None]:
    """Run the block with subnormal results flushed to zero and subnormal
    operands read as zero (MXCSR's FTZ and DAZ bits), and give back the
    floating-point environment as it was after, exceptions included.  Does
    nothing off x86-64 Linux."""
    calls = _fenv_calls()
    if calls is None:
        yield
        return
    get, put = calls
    saved = _FenvT()
    get(saved)
    flushed = _FenvT(*saved)
    flushed[7] |= _FTZ_DAZ
    put(flushed)
    try:
        yield
    finally:
        put(saved)


class Direction(Enum):
    FORWARD = "forward"  # e^{−itH}
    BACKWARD = "backward"  # e^{+itH}


class NumericError(RuntimeError):
    """A numerical step failed, or its result failed the check it is held
    to, so nothing is returned: an unconverged or failed solve, a drifting
    Chebyshev run, a state that left the grid, a bad pivot of the inertia
    sweep, a miscounted or inaccurate eigensolve.  ``diagnostics`` holds
    the numbers behind it."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class EvolutionConfig:
    """Step size, horizon time and the snapshot times (the final time
    only when unset).

    The step-size guard dt ≤ min(spacing)/2 is about resolving transport
    across a cell, not stability — the scheme is unconditionally stable.
    """

    dt: float
    t_final: float
    snapshot_times: Optional[Sequence[float]] = None

    def __post_init__(self):
        if not (self.dt > 0):
            raise ConfigurationError("dt must be positive")
        if not (self.t_final > 0):
            raise ConfigurationError("t_final must be positive")


def check_step(dt: float, grid: Grid) -> None:
    """Raise :class:`ConfigurationError` unless dt ≤ min(spacing)/2, the
    guard every Cayley step is held to (see :class:`EvolutionConfig`)."""
    if dt > 0.5 * grid.min_spacing * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt={dt} exceeds half the minimum spacing "
            f"{grid.min_spacing}; transport would skip cells"
        )


class CayleyStepper:
    """Factorized one-step map; ``direction`` picks e^{∓i·dt·H}.

    Keeps M₊ = 𝟙 + i·sgn·dt/2·G_b and its LU factor for each block G_b of
    ``op.sectors()``.  ``step`` solves on the blocks the state occupies,
    checks the residual against ``SOLVER_TOL`` over the whole state (one
    round of iterative refinement, then ``NumericError``) and leaves the
    other blocks at exactly zero.  ``max_residual`` is the largest relative
    residual ‖r‖/‖u‖ of the accepted steps, ``refinements`` the number of
    steps that needed the refinement round.  Inside ``evolve`` the steps
    run with subnormals read as zero, so there a block that holds only
    subnormals counts as empty and stays at exactly zero.
    """

    def __init__(
        self,
        op: ChannelOperator,
        dt: float,
        direction: Direction = Direction.FORWARD,
    ):
        check_step(dt, op.grid)
        a = 0.5j * (1.0 if direction == Direction.FORWARD else -1.0) * dt  # A = a·G_b
        self.dt = dt
        self.max_residual = 0.0
        self.refinements = 0
        blocks = op.sectors()
        self._rows = [block.rows for block in blocks]
        self._implicit = [
            (sp.identity(b.matrix.shape[0], format="csc") + a * b.matrix).tocsc()
            for b in blocks
        ]
        self._lu = [splu(implicit) for implicit in self._implicit]

    def step(self, u: np.ndarray) -> np.ndarray:
        """Advance a state u in sector coordinates (``channel.to_sectors``)
        by one step of dt; returns a new vector."""
        out = np.zeros_like(u)
        # (block, its part of u, its part of the result) per occupied block
        work = [(k, u[rows], out[rows]) for k, rows in enumerate(self._rows) if u[rows].any()]
        for k, part, y in work:
            y[:] = self._lu[k].solve(part)
        resid = self._residuals(work)
        scale = math.hypot(*(_norm(part) for _, part, _ in work))
        limit = SOLVER_TOL * max(scale, 1e-30)
        res = math.hypot(*map(_norm, resid))
        if res > limit:
            # one round of iterative refinement before giving up
            for (k, _, y), r in zip(work, resid):
                y += self._lu[k].solve(r)
            resid = self._residuals(work)
            res = math.hypot(*map(_norm, resid))
            if res > limit:
                raise NumericError(
                    "Cayley solve did not converge",
                    {"residual": float(res), "rhs_norm": float(scale), "dt": self.dt},
                )
            self.refinements += 1
        self.max_residual = max(self.max_residual, res / max(scale, 1e-30))
        # y + r is a Richardson sweep with 𝟙 for M₊ = 𝟙 + A: it maps the
        # solve error e to −A·e.  The factor's rounding error is the same on
        # every step, so 2y − u, which doubles it, would let the norm drift
        # linearly in the step count at twice the two-matrix form's rate.
        for (_, part, y), r in zip(work, resid):
            y += r
            y *= 2.0
            y -= part
        return out

    def _residuals(self, work) -> List[np.ndarray]:
        """u − M₊y on each occupied block."""
        return [part - self._implicit[k] @ y for k, part, y in work]


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def _field(u: np.ndarray, grid: Grid) -> SpinorField:
    """The field of sector coordinates u."""
    return SpinorField(grid, from_sectors(u, grid).reshape((4, grid.n), order="F"))


@dataclass
class Trajectory:
    """Snapshots of one evolution, with the worst observed norm drift."""

    times: np.ndarray
    fields: List[SpinorField]
    norm_drift: float
    dt_effective: float
    steps: int
    max_residual: float  # largest relative solve residual ‖M₊y − u‖/‖u‖
    refinements: int  # steps that needed the refinement round

    @property
    def final(self) -> SpinorField:
        return self.fields[-1]


def evolve(
    op: ChannelOperator,
    psi0: SpinorField,
    cfg: EvolutionConfig,
    direction: Direction = Direction.FORWARD,
) -> Trajectory:
    """Run the unitary flow up to t_final, returning requested snapshots.

    The step count is rounded so an integer number of steps lands exactly
    on t_final (the effective dt never exceeds the requested one); snapshot
    times are snapped to the nearest step.  The fields are the initial
    state, then one snapshot per time of ``cfg.snapshot_times`` in the
    order asked (two times on the same step give two entries), then the
    final state unless the last requested time already is t_final; with no
    snapshot times, that is the initial and the final state.
    """
    if not np.array_equal(psi0.grid.nodes, op.grid.nodes):
        raise ConfigurationError("field and operator live on different grids")

    n_steps = max(1, int(np.ceil(cfg.t_final / cfg.dt - 1e-12)))
    dt_eff = cfg.t_final / n_steps
    stepper = CayleyStepper(op, dt_eff, direction)

    wanted = cfg.snapshot_times if cfg.snapshot_times is not None else ()
    snap_steps = [int(round(t / dt_eff)) for t in wanted]
    if any(k < 0 or k > n_steps for k in snap_steps):
        raise ConfigurationError("snapshot times must lie in [0, t_final]")
    if not snap_steps or snap_steps[-1] != n_steps:
        snap_steps.append(n_steps)

    u = to_sectors(psi0)
    norm0 = _norm(u)
    taken = set(snap_steps)
    at_step = {0: psi0.copy()}
    drift = 0.0
    with _flush_to_zero():
        for k in range(1, n_steps + 1):
            u = stepper.step(u)
            drift = max(drift, abs(_norm(u) - norm0) / max(norm0, 1e-30))
            if k in taken:
                at_step[k] = _field(u, op.grid)
    return Trajectory(
        times=np.asarray([0.0] + [k * dt_eff for k in snap_steps]),
        fields=[at_step[0]] + [at_step[k] for k in snap_steps],
        norm_drift=drift,
        dt_effective=dt_eff,
        steps=n_steps,
        max_residual=stepper.max_residual,
        refinements=stepper.refinements,
    )


@dataclass
class Propagation:
    """The states of one Chebyshev run, one per requested time, with its
    counters."""

    fields: List[SpinorField]
    matvecs: int  # products with a sector block over the whole run
    bound: float  # the largest R, the Gershgorin bound of a sector block
    norm_drift: float  # worst relative W-norm change over the snapshots


def _bessel_terms(z: float) -> np.ndarray:
    """J_k(z) for k < K, with K the first order past z where |J_K(z)| < 1e−17.

    K − z grows like z^{1/3}, the width of J_k's turning region, so the
    orders up to z + 12·z^{1/3} + 32 are evaluated first; should K lie
    beyond, the margin doubles and only the new orders are evaluated."""
    margin = int(12.0 * np.cbrt(z)) + 32
    j = np.empty(0)
    while True:
        j = np.concatenate((j, jv(np.arange(j.size, int(z) + margin + 1), z)))
        past = np.flatnonzero((np.arange(j.size) > z) & (np.abs(j) < _BESSEL_TAIL))
        if past.size:
            return j[: past[0]]
        margin *= 2


def _chebyshev_series(
    scaled: sp.csr_matrix, u: np.ndarray, z: float, phase: complex
) -> Tuple[np.ndarray, int]:
    """e^{phase·tS}u for z = tR and ``scaled`` = 2S/R; returns the result
    and its matvec count.  The three-term recurrence
    T_{k+1}u = (2S/R)T_k u − T_{k−1}u accumulates Σ c_k T_k u with
    c_k = (2 − δ_k0)·phase^k·J_k(z)."""
    j = _bessel_terms(z)
    # phase^k cycles through 1, phase, −1, −phase exactly
    cycle = np.array([1.0, phase, -1.0, -phase])
    coef = 2.0 * j * cycle[np.arange(j.size) % 4]
    out = j[0] * u
    if j.size == 1:
        return out, 0
    prev, cur = u, 0.5 * (scaled @ u)
    out += coef[1] * cur
    for c in coef[2:]:
        nxt = scaled @ cur
        nxt -= prev
        out += c * nxt
        prev, cur = cur, nxt
    return out, j.size - 1


def chebyshev_propagate(
    op: ChannelOperator,
    psi0: SpinorField,
    times: Sequence[float],
    direction: Direction = Direction.FORWARD,
) -> Propagation:
    """e^{∓itH}ψ⁰ at each requested time, by the Chebyshev expansion.

    The series runs on each sector block G_b of G = PSPᵀ/2 that
    u = PW^{1/2}ψ occupies, as assembled, with that block's R.
    ``matvecs`` counts the products with every block, ``bound`` is the
    largest R.  Snapshots chain: the state at t_{k+1} is
    e^{∓i(t_{k+1}−t_k)H} applied to the state at t_k, so one run costs
    about t_last·R matvecs per occupied block whatever the number of
    times.  ``times`` must be non-negative and non-decreasing; a repeated
    time repeats the state.  After every interval ‖u‖ is compared with the
    input's, and a relative drift past 1e−8 raises ``NumericError``, whose
    diagnostics carry R and the operator's ``hermiticity_defect``: either R
    is below the spectral radius, or the generator is not Hermitian, so
    that e^{∓itG} itself changes the norm.
    """
    if not np.array_equal(psi0.grid.nodes, op.grid.nodes):
        raise ConfigurationError("field and operator live on different grids")
    t = np.asarray(times, dtype=float)
    if t.size == 0 or t[0] < 0 or np.any(np.diff(t) < 0):
        raise ConfigurationError("times must be non-negative and non-decreasing")
    blocks = op.sectors()
    bound = max(block.bound for block in blocks)
    phase = -1j if direction == Direction.FORWARD else 1j

    u = to_sectors(psi0)
    # (rows, 2G_b/R, R) of each block u occupies; the others stay exactly zero
    occupied = [
        (b.rows, (b.matrix * (2.0 / b.bound)).tocsr(), b.bound)
        for b in blocks if u[b.rows].any()
    ]
    norm0 = _norm(u)
    field = psi0.copy()
    fields: List[SpinorField] = []
    matvecs, drift, now = 0, 0.0, 0.0
    with _flush_to_zero():
        for t_k in t:
            if t_k > now:
                for rows, scaled, r in occupied:
                    u[rows], count = _chebyshev_series(scaled, u[rows], (t_k - now) * r, phase)
                    matvecs += count
                change = abs(_norm(u) - norm0) / max(norm0, 1e-30)
                if not change <= DRIFT_LIMIT:  # NaN from a diverged series too
                    raise NumericError(
                        "Chebyshev propagation lost unitarity: R too low or S not Hermitian",
                        {"t": float(t_k), "norm_drift": change, "bound": bound,
                         "hermiticity_defect": op.hermiticity_defect()},
                    )
                drift = max(drift, change)
                field = _field(u, op.grid)
                now = t_k
            fields.append(field)
    return Propagation(fields, matvecs, bound, drift)


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-form coefficients c, shape (4, n − 1, k), of the not-a-knot
    cubic spline through each column of y (shape (n, k), n ≥ 4): on
    [x_i, x_{i+1}] the spline is c₃ + c₂h + c₁h² + c₀h³ with h = ξ − x_i.

    The slopes at the nodes solve one tridiagonal system for all columns,
    whose first and last rows make the third derivative continuous at x₁
    and x_{n−2}.  Every step repeats ``scipy.interpolate.CubicSpline``'s
    arithmetic, so the two agree bit for bit."""
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # the tridiagonal matrix in solve_banded's (1, 1) layout
    ab = np.zeros((3, x.size))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[2, :-2] = dx[1:]
    b = np.empty(y.shape, dtype=y.dtype)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # the end rows in scalars: numpy's scalar ** 2 is pow(), its array ** 2 a product
    d = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1], ab[2, -2] = dx[-2], d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _spline_at(x: np.ndarray, c: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The spline of ``_not_a_knot`` coefficients c (one column, shape
    (4, n − 1)) at points xi in [x₀, x_{n−1}]: each point is read on the
    interval [x_i, x_{i+1}) that holds it, x_{n−1} on the last, and the sum
    runs in CubicSpline's order."""
    i = np.minimum(np.searchsorted(x, xi, side="right") - 1, x.size - 2)
    h = xi - x[i]
    h2 = h * h
    return c[3, i] + c[2, i] * h + c[1, i] * h2 + c[0, i] * (h2 * h)


def free_propagate(
    psi0: SpinorField, t: float, direction: Direction = Direction.FORWARD
) -> SpinorField:
    """Closed-form flow of the comparison generator with wall reflection.

    Writing τ = +t for e^{+itH_c} (backward) and τ = −t for e^{−itH_c}
    (forward), the solution samples the initial data at shifted arguments,
    reflecting arguments that cross the wall:

        ψ₁(x) = ψ₁⁰(x+τ)  if x+τ < 0,  else −ψ₃⁰(−(x+τ))
        ψ₂(x) = ψ₂⁰(x−τ)  if x−τ < 0,  else +ψ₄⁰(−(x−τ))
        ψ₃(x) = ψ₃⁰(x−τ)  if x−τ < 0,  else −ψ₁⁰(−(x−τ))
        ψ₄(x) = ψ₄⁰(x+τ)  if x+τ < 0,  else +ψ₂⁰(−(x+τ))

    Either way the sample point is −|x ± τ|.  The initial data are read
    through the not-a-knot cubic spline of each component (``_not_a_knot``,
    CubicSpline's default).  Points in the half-cells between the end nodes
    and the walls read the end node's value; both lie inside the physical
    domain.  A point left of x_min has no data: when the output's W-mass at
    such points exceeds 1e−12·‖ψ⁰‖², the flow has carried content through
    the artificial wall and ``NumericError`` is raised instead of returning
    mass made up from the end node.
    """
    grid = psi0.grid
    x = grid.nodes
    tau = t if direction == Direction.BACKWARD else -t
    coef = _not_a_knot(x, psi0.values.T)

    def sample(c: int, args: np.ndarray) -> np.ndarray:
        return _spline_at(x, coef[..., c], np.clip(args, x[0], x[-1]))

    out = np.zeros((4, grid.n), dtype=complex)
    outside = np.zeros((4, grid.n), dtype=bool)
    plus, minus = x + tau, x - tau
    for c, (args, partner, sign) in enumerate(
        [(plus, 2, -1.0), (minus, 3, +1.0), (minus, 0, -1.0), (plus, 1, +1.0)]
    ):
        direct = args < 0.0
        out[c, direct] = sample(c, args[direct])
        out[c, ~direct] = sign * sample(partner, -args[~direct])
        outside[c] = -np.abs(args) < grid.x_min
    lost = float(np.sum((grid.weights * np.abs(out) ** 2)[outside]))
    if lost > 1e-12 * psi0.norm() ** 2:
        raise NumericError(
            "free flow samples data left of x_min; extend the grid",
            {"t": t, "mass_outside": lost, "x_min": grid.x_min},
        )
    return SpinorField(grid, out)
