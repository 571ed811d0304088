"""Wave operators and their adjoint pairing, and the velocity diagnostics —
one channel at a time.

Wave operators are estimated hybrid-fashion: the interacting factor is the
discrete unitary flow, while the comparison factor e^{±itH_c} is applied in
exact closed form (``free_factor="exact"``), so only one factor carries
discretization error.  Passing ``free_factor="discrete"`` replaces the
closed form by backward Cayley stepping under the assembled free generator;
since the backward Cayley step is the exact algebraic inverse of the
forward one, the zero-potential composition then collapses to the identity
at solver rounding — the trivial oracle for the whole pipeline.  Any other
``free_factor`` is a ``ConfigurationError``.

Convergence of Ω_k φ = e^{+it_kH_c} e^{−it_kH} φ along a geometric schedule
is judged by the Cauchy increments ‖Ω_{k+1}φ − Ω_kφ‖: "converged" means the
last three increments decrease monotonically and the final one is at most
1e−2·‖φ‖ (a deliberately conservative engineering threshold — existence of
the limit carries no rate).  ``adjointness_residual`` measures how far the
two finite-time estimates are from adjoint: |⟨Ωφ, ψ⟩ − ⟨φ, Wψ⟩|.

The conjugate observable 𝒜/t is pointwise multiplication by Γ¹x/t, so the
functional calculus J(𝒜/t) is pointwise evaluation of J at ±x/t per
component.  ``velocity_report`` evaluates every velocity diagnostic —
the minimal and maximal velocity traces with C² quintic cutoffs, the cone
mass fraction and the mean velocity ⟨𝒜/t⟩ — as one weighted sum each over
the density of every snapshot of one evolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .algebra import VELOCITY
from .channel import ChannelOperator, ConfigurationError, free_operator
from .dynamics import Direction, EvolutionConfig, NumericError, evolve, free_propagate
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

_CONVERGED_FRACTION = 1e-2  # final increment vs ‖φ‖; engineering choice
_ROUNDING_FLOOR = 1e-9  # below this (relative) the tail is solver noise


# ------------------------------------------------------------ wave operators

@dataclass
class ScatteringReport:
    """One wave-operator estimate along a geometric schedule."""

    times: np.ndarray
    increments: np.ndarray
    limit: SpinorField
    input_norm: float
    limit_norm: float
    converged: bool


def _verdict(increments: np.ndarray, input_norm: float) -> bool:
    # Converged: the last three increments decrease monotonically and the
    # final one is ≤ 1e−2·‖φ‖.  A tail already at the solver's rounding
    # floor counts as converged — monotonicity is meaningless in noise.
    tail = increments[-3:]
    monotone = bool(np.all(np.diff(tail) < 0.0)) if tail.size >= 2 else True
    at_floor = bool(np.max(tail) <= _ROUNDING_FLOOR * input_norm)
    small = bool(increments[-1] <= _CONVERGED_FRACTION * input_norm)
    return small and (monotone or at_floor)


def _check_schedule(schedule: Sequence[float], free_factor: str):
    if free_factor not in ("exact", "discrete"):
        raise ConfigurationError(
            f"free_factor must be 'exact' or 'discrete', got {free_factor!r}"
        )
    t = np.asarray(schedule, dtype=float)
    if t.size < 3 or np.any(np.diff(t) <= 0) or np.any(t <= 0):
        raise ConfigurationError("schedule must be at least 3 increasing positive times")
    return t


def _free_flow(
    op: ChannelOperator, psi: SpinorField, t: float, free_factor: str, direction: Direction
) -> SpinorField:
    """The comparison flow over time t on ``op``'s grid, in closed form or
    by Cayley steps of the assembled free generator."""
    if free_factor == "exact":
        return free_propagate(psi, t, direction)
    cfg = EvolutionConfig(dt=op.grid.min_spacing / 2, t_final=t)
    return evolve(free_operator(op.grid), psi, cfg, direction).final


def wave_operator_forward(
    phi: SpinorField,
    op: ChannelOperator,
    schedule: Sequence[float],
    free_factor: str = "exact",
) -> ScatteringReport:
    """Ω_k φ = e^{+it_kH_c} e^{−it_kH} φ along the schedule.

    The interacting evolution runs once with snapshots at the schedule
    times; each snapshot is pulled back by the free flow.
    """
    times = _check_schedule(schedule, free_factor)
    cfg = EvolutionConfig(
        dt=op.grid.min_spacing / 2, t_final=float(times[-1]), snapshot_times=times
    )
    traj = evolve(op, phi, cfg)
    omegas = [
        _free_flow(op, f, t, free_factor, Direction.BACKWARD)
        for t, f in zip(traj.times[1:], traj.fields[1:])
    ]
    increments = np.array(
        [
            op.grid.norm(b.values - a.values)
            for a, b in zip(omegas[:-1], omegas[1:])
        ]
    )
    nrm = phi.norm()
    return ScatteringReport(
        times=np.asarray(traj.times[1:]),
        increments=increments,
        limit=omegas[-1],
        input_norm=nrm,
        limit_norm=omegas[-1].norm(),
        converged=_verdict(increments, nrm),
    )


def wave_operator_backward(
    psi: SpinorField,
    op: ChannelOperator,
    schedule: Sequence[float],
    free_factor: str = "exact",
) -> ScatteringReport:
    """W_k ψ = e^{+it_kH} e^{−it_kH_c} ψ along the schedule.

    Mirror of the forward operator: the free factor is exact, the
    interacting factor is the discrete backward flow (one run per t_k —
    the inputs differ, so nothing can be shared)."""
    times = _check_schedule(schedule, free_factor)
    outs: List[SpinorField] = []
    for t in times:
        zeta = _free_flow(op, psi, float(t), free_factor, Direction.FORWARD)
        cfg = EvolutionConfig(dt=op.grid.min_spacing / 2, t_final=float(t))
        outs.append(evolve(op, zeta, cfg, Direction.BACKWARD).final)
    increments = np.array(
        [op.grid.norm(b.values - a.values) for a, b in zip(outs[:-1], outs[1:])]
    )
    nrm = psi.norm()
    return ScatteringReport(
        times=times,
        increments=increments,
        limit=outs[-1],
        input_norm=nrm,
        limit_norm=outs[-1].norm(),
        converged=_verdict(increments, nrm),
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


def _fields_at_times(
    phi: SpinorField, times: np.ndarray, op: Optional[ChannelOperator]
) -> List[SpinorField]:
    if op is None:
        return [free_propagate(phi, float(t), Direction.FORWARD) for t in times]
    cfg = EvolutionConfig(
        dt=op.grid.min_spacing / 2, t_final=float(times[-1]), snapshot_times=times
    )
    return evolve(op, phi, cfg).fields[1:]


@dataclass
class VelocityReport:
    """Everything the velocity diagnostics measure, from one evolution."""

    times: np.ndarray
    minimal_values: np.ndarray
    maximal_values: np.ndarray
    unit_values: np.ndarray  # J ≡ 1 trace; equals ‖ψ(t)‖² identically
    cone_fractions: np.ndarray
    v_values: np.ndarray
    v_extrapolated: float
    cone_delta: float


def velocity_report(
    phi: SpinorField,
    times: Sequence[float],
    op: Optional[ChannelOperator] = None,
    delta: float = 0.2,
    eps: float = 0.2,
    cone_delta: float = 0.25,
) -> VelocityReport:
    """Velocity traces ⟨ψ(t), J(𝒜/t)ψ(t)⟩ from a single evolution under
    the discrete flow of ``op`` (the exact free flow when ``op`` is None).

    The input is normalized, and each snapshot gives the density
    w·|ψ_k|² and the velocity Γ¹_kk·x/t per component; every diagnostic is
    one weighted sum over them:

    * minimal: J ≡ 1 below 1 − 2δ, C²-decaying to 0 at 1 − δ;
    * maximal: J ≡ 0 below 1 + ε, C²-growing to 1 at 1 + 2ε;
    * unit: J ≡ 1, the squared norm;
    * cone: the mass fraction with velocity in [1 − δ_c, 1 + δ_c];
    * v: the mean velocity ⟨𝒜/t⟩, with its Richardson limit from the last
      two times.

    Raises ``ConfigurationError`` unless 0 < δ < 1/2 and ε > 0, and
    ``NumericError`` when the mass has left the grid.
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
    rows = []
    for t, field in zip(times, _fields_at_times(phi, times, op)):
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
        ))
    minimal, maximal, unit, cone_fractions, v_vals = np.array(rows).T
    t1, t2 = times[-2], times[-1]
    v1, v2 = v_vals[-2], v_vals[-1]
    return VelocityReport(
        times=times,
        minimal_values=minimal,
        maximal_values=maximal,
        unit_values=unit,
        cone_fractions=cone_fractions,
        v_values=v_vals,
        v_extrapolated=float((v2 * t2 - v1 * t1) / (t2 - t1)),
        cone_delta=cone_delta,
    )
