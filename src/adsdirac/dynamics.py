"""Norm-preserving time evolution and the exact comparison propagator.

The one-step map is the Cayley (trapezoidal) rational approximation of the
exponential,

    (𝟙 + i·dt/2·H) ψ^{k+1} = (𝟙 − i·dt/2·H) ψ^k ,

which is *exactly* unitary for a discretely self-adjoint H — unitarity of
the computed flow is then a structural fact, limited only by the direct
solver's rounding, never by the step size.  With A = i·dt/2·H and
M₊ = 𝟙 + A, the same map is (𝟙 + A)⁻¹(𝟙 − A) = 2M₊⁻¹ − 𝟙, so a step is one
sparse solve y = M₊⁻¹ψ and the update ψ ← 2y − ψ.  Only M₊ is formed and
factored, once per (operator, dt), and reused across steps.  Every step
checks its solve with one matvec, r = ψ − M₊y with ‖r‖ ≤ 1e−10·‖ψ‖,
refining once before it gives up, and updates by ψ ← 2(y + r) − ψ: adding
the residual it already has keeps the factor's rounding from building up
a norm drift.  The Cayley flow is the structurally unitary reference: the
unitarity check, the ``evolve`` experiment's own flow and the forward wave
operator run on it.

Both propagators work in sector coordinates.  Q = γ³γ⁵ commutes with every
assembled H node by node, so H splits into two 2n-row blocks, one for each
eigenvalue ±1 of Q, that never mix (``ChannelOperator.sectors``; one 4n-row
block for an operator that breaks Q).  A run maps the state to v = Pψ once
at the start and back once per snapshot, and propagates only the blocks v
occupies; a block it does not occupy stays exactly zero.  The packets
(1, 0, 0, 1) of the experiments lie in the Q = −1 sector alone, so they
pay half of every solve and product.  The Cayley factors are one per
block, and each step checks its residual over the whole state.

``chebyshev_propagate`` applies the exponential itself, by the Chebyshev
expansion of e^{−itS} for S = W^{1/2} H W^{−1/2} (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967 (1984)):

    e^{−itS} = Σ_k (2 − δ_k0)(−i)^k J_k(tR) T_k(S/R) ,

run block by block, with R the Gershgorin bound on the spectrum of the
block of S — a guaranteed bound, since the series diverges on any level
outside [−R, R] — and the sum cut at the first order K > tR with
|J_K(tR)| < 1e−17.  Each block's R and its scaled matrix 2S/R are built
once per operator with the blocks.  It is unitary only up to
that truncation, so every run measures its W-norm drift and raises past
1e−8.  It costs about tR matvecs and no solve, and it has no time-step
error, so the backward wave operator, the velocity traces and the
free-oracle check (the discrete comparison flow against the closed form
below) run on it.

The comparison generator Γ¹D_x with the bag-type wall has an explicit
method-of-characteristics solution: components (1, 4) transport with speed
+1 and reflect at x = 0 into components (3, 2) with signs (−, +), matching
the wall coupling ψ₁(t,0) = −ψ₃(t,0), ψ₂(t,0) = ψ₄(t,0).  ``free_propagate``
evaluates that closed form by sampling the initial data with cubic
interpolation, so it serves as an independent oracle for the discrete flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import CubicSpline
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
    "free_propagate",
]

#: relative residual ‖ψ − M₊y‖/‖ψ‖ every Cayley solve is held to
SOLVER_TOL = 1e-10
#: relative W-norm drift past which a Chebyshev run raises
DRIFT_LIMIT = 1e-8
#: a Chebyshev series stops at the first order K > tR with |J_K(tR)| below this
_BESSEL_TAIL = 1e-17


class Direction(Enum):
    FORWARD = "forward"  # e^{−itH}
    BACKWARD = "backward"  # e^{+itH}


class NumericError(RuntimeError):
    """Linear solve failed to reach the requested residual tolerance."""

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

    Keeps M₊ = 𝟙 + i·sgn·dt/2·H and its LU factor for each block of
    ``op.sectors()``.  ``step`` takes a state in sector coordinates and, on
    every block the state occupies, solves y = M₊⁻¹v and forms the residual
    r = v − M₊y; it checks ‖r‖ ≤ ``SOLVER_TOL``·‖v‖ over the whole state
    on every call (one round of iterative refinement, then ``NumericError``)
    and returns 2(y + r) − v, which is (𝟙 + A)⁻¹(𝟙 − A)v up to rounding.  A
    block the state does not occupy is left at exactly zero.
    ``max_residual`` is the largest relative residual ‖r‖/‖v‖ of the
    accepted steps, ``refinements`` the number of steps that needed the
    refinement round.
    """

    def __init__(
        self,
        op: ChannelOperator,
        dt: float,
        direction: Direction = Direction.FORWARD,
    ):
        check_step(dt, op.grid)
        sgn = 1.0 if direction == Direction.FORWARD else -1.0
        self.dt = dt
        self.max_residual = 0.0
        self.refinements = 0
        self._rows, self._implicit, self._lu = [], [], []
        for block in op.sectors():
            eye = sp.identity(block.hamiltonian.shape[0], dtype=complex, format="csc")
            implicit = (eye + 0.5j * sgn * dt * block.hamiltonian).tocsc()
            self._rows.append(block.rows)
            self._implicit.append(implicit)
            self._lu.append(splu(implicit))

    def step(self, v: np.ndarray) -> np.ndarray:
        """Advance a state in sector coordinates (``channel.to_sectors``)
        by one step of dt; returns a new vector."""
        out = np.zeros_like(v)
        # (block, its part of v, its part of the result) per occupied block
        work = [(k, v[rows], out[rows]) for k, rows in enumerate(self._rows) if v[rows].any()]
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
        # every step, so 2y − v, which doubles it, would let the norm drift
        # linearly in the step count at twice the two-matrix form's rate.
        for (_, part, y), r in zip(work, resid):
            y += r
            y *= 2.0
            y -= part
        return out

    def _residuals(self, work) -> List[np.ndarray]:
        """v − M₊y on each occupied block."""
        return [part - self._implicit[k] @ y for k, part, y in work]


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


@dataclass
class Trajectory:
    """Snapshots of one evolution, with the worst observed norm drift."""

    times: np.ndarray
    fields: List[SpinorField]
    norm_drift: float
    dt_effective: float
    steps: int
    max_residual: float  # largest relative solve residual ‖M₊y − ψ‖/‖ψ‖
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

    n = op.grid.n
    # W-norm of the sector state through its float view: in each half,
    # node j owns floats 4j … 4j+3, so the weights repeat 4 times, twice
    root_w = np.tile(np.sqrt(np.repeat(op.grid.weights, 4)), 2)
    buf = np.empty(root_w.size)

    def w_norm(v: np.ndarray) -> float:
        np.multiply(root_w, v.view(float), out=buf)
        return math.sqrt(buf @ buf)

    v = to_sectors(psi0.values.flatten(order="F"))
    norm0 = w_norm(v)
    taken = set(snap_steps)
    at_step = {0: psi0.copy()}
    drift = 0.0
    for k in range(1, n_steps + 1):
        v = stepper.step(v)
        drift = max(drift, abs(w_norm(v) - norm0) / max(norm0, 1e-30))
        if k in taken:
            at_step[k] = SpinorField(op.grid, from_sectors(v).reshape((4, n), order="F"))
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
    matvecs: int  # products with a sector block of S over the whole run
    bound: float  # the largest R, the Gershgorin bound of a sector block of S
    norm_drift: float  # worst relative W-norm change over the snapshots
    asymmetry: float  # row-sum bound on ‖S − S†‖₂, which the run averages away


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

    The run works on u = W^{1/2}ψ and S = W^{1/2} H W^{−1/2}, so the
    W-norm of ψ is the plain norm of u.  S is Hermitian-averaged first; the
    bound on what that drops is ``asymmetry``, the operator's
    ``hermiticity_defect``.  The series runs on each sector block that u
    occupies, with that block's R; ``matvecs`` counts the products with
    every block, ``bound`` is the largest R.  Snapshots chain: the state at
    t_{k+1} is e^{∓i(t_{k+1}−t_k)S} applied to the state at t_k, so one run
    costs about t_last·R matvecs per occupied block whatever the number of
    times.  ``times`` must be non-negative and non-decreasing; a repeated
    time repeats the state.  After every interval the W-norm is compared
    with the input's, and a relative drift past 1e−8 raises
    ``NumericError`` — the sign of a bound R below the spectral radius.
    """
    if not np.array_equal(psi0.grid.nodes, op.grid.nodes):
        raise ConfigurationError("field and operator live on different grids")
    t = np.asarray(times, dtype=float)
    if t.size == 0 or t[0] < 0 or np.any(np.diff(t) < 0):
        raise ConfigurationError("times must be non-negative and non-decreasing")
    root = np.sqrt(np.repeat(op.grid.weights, 4))
    blocks = op.sectors()
    bound = max(block.bound for block in blocks)
    phase = -1j if direction == Direction.FORWARD else 1j

    u = to_sectors(root * psi0.values.flatten(order="F"))
    norm0 = _norm(u)
    field = psi0.copy()
    fields: List[SpinorField] = []
    matvecs, drift, now = 0, 0.0, 0.0
    for t_k in t:
        if t_k > now:
            for block in blocks:
                if u[block.rows].any():
                    u[block.rows], count = _chebyshev_series(
                        block.scaled, u[block.rows], (t_k - now) * block.bound, phase
                    )
                    matvecs += count
            change = abs(_norm(u) - norm0) / max(norm0, 1e-30)
            if not change <= DRIFT_LIMIT:  # NaN from a diverged series too
                raise NumericError(
                    "Chebyshev propagation lost unitarity",
                    {"t": float(t_k), "norm_drift": change, "bound": bound},
                )
            drift = max(drift, change)
            flat = from_sectors(u) / root
            field = SpinorField(op.grid, flat.reshape((4, op.grid.n), order="F"))
            now = t_k
        fields.append(field)
    return Propagation(fields, matvecs, bound, drift, op.hermiticity_defect())


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

    Either way the sample point is −|x ± τ|.  Points in the half-cells
    between the end nodes and the walls read the end node's value; both lie
    inside the physical domain.  A point left of x_min has no data: when
    the output's W-mass at such points exceeds 1e−12·‖ψ⁰‖², the flow has
    carried content through the artificial wall and ``NumericError`` is
    raised instead of returning mass made up from the end node.
    """
    grid = psi0.grid
    x = grid.nodes
    tau = t if direction == Direction.BACKWARD else -t
    splines = [
        CubicSpline(x, psi0.values[c], extrapolate=False) for c in range(4)
    ]

    def sample(c: int, args: np.ndarray) -> np.ndarray:
        clamped = np.clip(args, x[0], x[-1])
        return splines[c](clamped)

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
