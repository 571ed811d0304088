"""Wave operators and their adjoint pairing, and the velocity diagnostics —
one channel at a time.

Wave operators are estimated hybrid-fashion: the interacting factor is a
discrete flow, while the comparison factor e^{±itH_c} is applied in exact
closed form, so only one factor carries discretization error.  The two
estimates take the interacting factor from different propagators.  Ω runs
the Cayley ``evolve`` (structurally unitary, second order in its step
dt = h/2) once, with snapshots at the schedule times.  W runs
``chebyshev_propagate``, the exponential of the assembled operator to the
truncation level of its series, which adds no time-step error.  The adjoint
pairing of the two is therefore a cross-check of the propagators (about
1e−5 on criterion 6's grids), not an identity that holds by construction.
Ω alone takes ``free_factor="discrete"``, which replaces the closed form by
backward Cayley steps under the assembled free generator, the exact
algebraic inverse of the forward ones, so the zero-potential composition
collapses to the identity at solver rounding — the trivial oracle for the
whole pipeline.  Any other ``free_factor`` is a ``ConfigurationError``.

Convergence of Ω_k φ = e^{+it_kH_c} e^{−it_kH} φ along a geometric schedule
is judged by the Cauchy increments ‖Ω_{k+1}φ − Ω_kφ‖, in two parts that
the harness holds to their bounds one line each: the final increment is
at most ``CONVERGED_FRACTION``·‖φ‖ = 1e−2·‖φ‖ (a deliberately conservative
engineering threshold — existence of the limit carries no rate), and the
report's ``tail_rises``, the steps among the last three increments that
do not fall strictly, is 0.  It counts 0 as well when all three lie at or
below ``ROUNDING_FLOOR``·‖φ‖ = 1e−9·‖φ‖: the increments of an estimate
exact up to its propagators, such as the trivial oracle's identity, are
solver rounding (about 1e−15) and rise and fall at random.
``adjointness_residual`` measures how far the two finite-time estimates are
from adjoint: |⟨Ωφ, ψ⟩ − ⟨φ, Wψ⟩|.  Every report carries the worst norm
drift over every run of the estimate; W's also carries the expansion's
counters, its matvecs and the bound R on the spectrum.

The conjugate observable 𝒜/t is pointwise multiplication by Γ¹x/t, so the
functional calculus J(𝒜/t) is pointwise evaluation of J at ±x/t per
component.  ``velocity_report`` evaluates every velocity diagnostic —
the minimal and maximal velocity traces with C² quintic cutoffs, the cone
mass fraction and the mean velocity ⟨𝒜/t⟩ — as one weighted sum each over
the density of every snapshot of one evolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import VELOCITY
from .channel import ChannelOperator, ConfigurationError, free_operator
from .dynamics import (
    Direction,
    EvolutionConfig,
    NumericError,
    chebyshev_propagate,
    evolve,
    free_propagate,
)
from .grids import SpinorField

__all__ = [
    "ScatteringReport",
    "wave_operator_forward",
    "wave_operator_backward",
    "adjointness_residual",
    "quintic_step",
    "VelocityReport",
    "velocity_report",
]

#: the largest final increment, relative to ‖φ‖, of a converged estimate
CONVERGED_FRACTION = 1e-2
#: the width of the strip next to x_min whose W-mass a velocity report records
WALL_DISTANCE = 2.0
#: a tail at or below this, relative to ‖φ‖, is propagator noise: no rises
ROUNDING_FLOOR = 1e-9


# ------------------------------------------------------------ wave operators

@dataclass
class ScatteringReport:
    """One wave-operator estimate along a geometric schedule."""

    increments: np.ndarray
    limit: SpinorField
    limit_norm: float
    #: steps among the last three increments that do not fall strictly; 0
    #: when all three lie at or below ROUNDING_FLOOR·‖φ‖
    tail_rises: int
    norm_drift: float  # worst over every run of the estimate


@dataclass
class BackwardReport(ScatteringReport):
    """W's estimate, with the counters of its Chebyshev runs."""

    matvecs: int  # over every run of the estimate
    bound: float  # R of the interacting operator


def _tail_rises(increments: np.ndarray, input_norm: float) -> int:
    # the tail rule of the module docstring; a NaN step counts as a rise
    tail = increments[-3:]
    if np.max(tail) <= ROUNDING_FLOOR * input_norm:
        return 0
    return int(np.sum(~(np.diff(tail) < 0.0)))


def _check_schedule(schedule: Sequence[float]) -> np.ndarray:
    t = np.asarray(schedule, dtype=float)
    if t.size < 3 or np.any(np.diff(t) <= 0) or np.any(t <= 0):
        raise ConfigurationError("schedule must be at least 3 increasing positive times")
    return t


def wave_operator_forward(
    phi: SpinorField,
    op: ChannelOperator,
    schedule: Sequence[float],
    free_factor: str = "exact",
) -> ScatteringReport:
    """Ω_k φ = e^{+it_kH_c} e^{−it_kH} φ along the schedule.

    The interacting evolution is one Cayley run with snapshots at the
    schedule times (each snapped to the nearest step); each snapshot is
    pulled back by the free flow, in closed form or by backward Cayley
    steps of the assembled free generator.
    """
    if free_factor not in ("exact", "discrete"):
        raise ConfigurationError(
            f"free_factor must be 'exact' or 'discrete', got {free_factor!r}"
        )
    times = _check_schedule(schedule)
    dt = op.grid.min_spacing / 2
    traj = evolve(
        op, phi, EvolutionConfig(dt=dt, t_final=float(times[-1]), snapshot_times=times)
    )
    snaps = list(zip(traj.times[1:], traj.fields[1:]))
    drift = traj.norm_drift
    if free_factor == "exact":
        omegas = [free_propagate(f, float(t), Direction.BACKWARD) for t, f in snaps]
    else:
        free = free_operator(op.grid)
        pulled = [
            evolve(free, f, EvolutionConfig(dt=dt, t_final=float(t)), Direction.BACKWARD)
            for t, f in snaps
        ]
        omegas = [p.final for p in pulled]
        drift = max([drift] + [p.norm_drift for p in pulled])
    increments = np.array(
        [
            op.grid.norm(b.values - a.values)
            for a, b in zip(omegas[:-1], omegas[1:])
        ]
    )
    return ScatteringReport(
        increments=increments,
        limit=omegas[-1],
        limit_norm=omegas[-1].norm(),
        tail_rises=_tail_rises(increments, phi.norm()),
        norm_drift=drift,
    )


def wave_operator_backward(
    psi: SpinorField,
    op: ChannelOperator,
    schedule: Sequence[float],
) -> BackwardReport:
    """W_k ψ = e^{+it_kH} e^{−it_kH_c} ψ along the schedule.

    With ζ_k = e^{−it_kH_c}ψ, unitarity of the interacting flow gives
    ‖W_{k+1}ψ − W_kψ‖ = ‖e^{+iΔ_kH}ζ_{k+1} − ζ_k‖ for Δ_k = t_{k+1} − t_k,
    so each increment needs a run of length Δ_k only.  The last run goes
    on from Δ_{K−1} to t_K, where it reaches the limit W_Kψ = e^{+it_KH}ζ_K:
    t_K − t_1 + t_{K−1} time units in all, not Σ t_k.  The identity holds
    for the expansion up to its truncation level, far below any increment
    a check reads.
    """
    times = _check_schedule(schedule)
    zetas = [free_propagate(psi, float(t), Direction.FORWARD) for t in times]
    steps = np.diff(times)
    runs = [
        chebyshev_propagate(op, newer, (dt,), Direction.BACKWARD)
        for dt, newer in zip(steps[:-1], zetas[1:-1])
    ]
    runs.append(
        chebyshev_propagate(op, zetas[-1], (steps[-1], times[-1]), Direction.BACKWARD)
    )
    increments = np.array(
        [op.grid.norm(r.fields[0].values - z.values) for r, z in zip(runs, zetas)]
    )
    limit = runs[-1].fields[-1]
    return BackwardReport(
        increments=increments,
        limit=limit,
        limit_norm=limit.norm(),
        tail_rises=_tail_rises(increments, psi.norm()),
        matvecs=sum(r.matvecs for r in runs),
        bound=runs[0].bound,
        norm_drift=max(r.norm_drift for r in runs),
    )


def adjointness_residual(
    forward: ScatteringReport,
    backward: ScatteringReport,
    phi: SpinorField,
    psi: SpinorField,
) -> float:
    """|⟨Ωφ, ψ⟩ − ⟨φ, Wψ⟩|, the finite-time adjoint-pairing defect."""
    lhs = forward.limit.inner(psi)
    rhs = phi.inner(backward.limit)
    return float(abs(lhs - rhs))


# ------------------------------------------------------- velocity diagnostics

def quintic_step(t):
    """C² monotone step: 0 for t ≤ 0, 1 for t ≥ 1, 10t³ − 15t⁴ + 6t⁵ between."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


@dataclass
class VelocityReport:
    """Everything the velocity diagnostics measure, from one evolution."""

    minimal_values: np.ndarray
    maximal_values: np.ndarray
    unit_values: np.ndarray  # J ≡ 1 trace; equals ‖ψ(t)‖² identically
    cone_fractions: np.ndarray
    v_values: np.ndarray
    v_extrapolated: float
    cone_delta: float
    #: the largest W-mass of the normalized state within ``WALL_DISTANCE``
    #: of x_min over the snapshots: content that reached the artificial wall
    wall_mass: float
    # the Chebyshev run's counters; zero for the closed-form free flow
    matvecs: int
    bound: float
    norm_drift: float


def velocity_report(
    phi: SpinorField,
    times: Sequence[float],
    op: Optional[ChannelOperator] = None,
    delta: float = 0.2,
    eps: float = 0.2,
    cone_delta: float = 0.25,
) -> VelocityReport:
    """Velocity traces ⟨ψ(t), J(𝒜/t)ψ(t)⟩ from a single chained Chebyshev
    run under ``op`` (the exact free flow when ``op`` is None).

    The input is normalized, and each snapshot gives the density
    w·|ψ_k|² and the velocity Γ¹_kk·x/t per component; every diagnostic is
    one weighted sum over them:

    * minimal: J ≡ 1 below 1 − 2δ, C²-decaying to 0 at 1 − δ;
    * maximal: J ≡ 0 below 1 + ε, C²-growing to 1 at 1 + 2ε;
    * unit: J ≡ 1, the squared norm;
    * cone: the mass fraction with velocity in [1 − δ_c, 1 + δ_c];
    * v: the mean velocity ⟨𝒜/t⟩, with its Richardson limit from the last
      two times;
    * wall mass: the largest mass within ``WALL_DISTANCE`` of x_min.

    Raises ``ConfigurationError`` unless 0 < δ < 1/2 and ε > 0, and
    ``NumericError`` below a snapshot mass of 1e-8, which cannot happen
    under ``op``: the Chebyshev flow is unitary on the closed grid (it
    raises past a drift of 1e-8), and content that reaches x_min reflects
    off the bag wall.  A domain too short for the trace times shows only
    in the wall mass, so the caller sizes x_min (the harness needs
    x_min ≤ −(t + 6) at the last time t); the free flow raises itself when
    it would read data from left of x_min.
    """
    if not (0 < delta < 0.5):
        raise ConfigurationError("need 0 < delta < 1/2")
    if not (eps > 0):
        raise ConfigurationError("need eps > 0")
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ConfigurationError("times must be positive and increasing")
    nrm = phi.norm()
    if nrm == 0:
        raise ConfigurationError("cannot trace the zero field")
    phi = SpinorField(phi.grid, phi.values / nrm)
    signs = np.diag(VELOCITY)[:, None]
    near_wall = phi.grid.nodes < phi.grid.x_min + WALL_DISTANCE
    rows = []
    if op is None:
        fields = [free_propagate(phi, float(t), Direction.FORWARD) for t in times]
        matvecs, bound, drift = 0, 0.0, 0.0
    else:
        run = chebyshev_propagate(op, phi, times)
        fields, matvecs, bound, drift = run.fields, run.matvecs, run.bound, run.norm_drift
    for t, field in zip(times, fields):
        dens = field.grid.weights * np.abs(field.values) ** 2
        arg = signs * field.grid.nodes / t
        mass = float(np.sum(dens))
        if mass < 1e-8:
            raise NumericError(
                "state mass vanished while tracing the velocity — content has "
                "left the grid; extend x_min past the largest trace time",
                {"t": float(t), "mass": mass, "x_min": field.grid.x_min},
            )
        cone = (arg >= 1.0 - cone_delta) & (arg <= 1.0 + cone_delta)
        rows.append((
            np.sum(dens * (1.0 - quintic_step((arg - 1.0 + 2.0 * delta) / delta))),
            np.sum(dens * quintic_step((arg - 1.0 - eps) / eps)),
            mass,
            np.sum(dens[cone]) / mass,
            np.sum(dens * arg) / mass,
            np.sum(dens[:, near_wall]),
        ))
    minimal, maximal, unit, cone_fractions, v_vals, wall = np.array(rows).T
    t1, t2 = times[-2], times[-1]
    v1, v2 = v_vals[-2], v_vals[-1]
    return VelocityReport(
        minimal_values=minimal,
        maximal_values=maximal,
        unit_values=unit,
        cone_fractions=cone_fractions,
        v_values=v_vals,
        v_extrapolated=float((v2 * t2 - v1 * t1) / (t2 - t1)),
        cone_delta=cone_delta,
        wall_mass=float(np.max(wall)),
        matvecs=matvecs,
        bound=bound,
        norm_drift=drift,
    )
