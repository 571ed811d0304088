# adsdirac/geometry.py
"""
Exterior Schwarzschild-Anti-de Sitter geometry in 1+1 channel coordinates.

The static metric factor is

    F(r) = 1 - 2M/r + r**2/l**2,        r > r_sads,

with black-hole mass M > 0 and AdS radius l > 0 (cosmological constant
Λ = -3/l²).  F has a single simple root r_sads on (0, ∞); the surface
gravity is κ = F'(r_sads)/2.

The tortoise coordinate integrates dr_*/dr = 1/F in closed form:

    r_*(r) = ln[ (r - r_sads)^{α₁} · (r² + r_sads·r + r_sads² + l²)^{-α₁/2} ]
             + C · arctan( (2r + r_sads) / √(3·r_sads² + 4l²) ),

    α₁ = r_sads·l² / (3·r_sads² + l²)  =  1/(2κ),
    C  = l²(3·r_sads² + 2l²) / ( (3·r_sads²+l²) · √(3·r_sads²+4l²) ).

The working coordinate is x = r_* - Cπ/2, which maps the exterior onto
(-∞, 0): x → -∞ at the horizon (like α₁·ln(r-r_sads)) and x → 0⁻ at the
conformal boundary r → ∞ (like -l²/r).

Numerical conventions
---------------------
- Near the horizon r - r_sads underflows the float spacing of r_sads
  long before anything else degrades, so all evaluators run on the gap
  δ = r - r_sads.  F is computed through the cancellation-free identity
      F(r_sads + δ)/δ = 2M/(r_sads(r_sads+δ)) + (2·r_sads+δ)/l²,
  which is exact relative to the computed root.
- The forward map is evaluated in u = ln δ as a sum of two negative terms,
      x = -½α₁·ln(P(r)/δ²) - C·arctan(√(3r_sads² + 4l²)/(2r + r_sads)),
  with P(r) = r² + r_sads·r + r_sads² + l².  ln(P/δ²) is taken through
  logaddexp in u, so no term overflows or cancels at either end.
- The inverse x ↦ u is one vectorized Newton solve, bracketed by bisection.
  x(u) is smooth and strictly increasing with slope dx/du = δ/F, which tends
  to α₁ at the horizon and to l²/δ at the boundary.  Each element stops once
  its step is below tolerance, so batches and scalars agree bit for bit.
  r, δ, √F = e^{u/2}·√(F/δ) and √F/r all follow from u; √F never passes
  through δ, so it keeps its e^{κx} decay after δ itself underflows.
- For -1e-8 < x < 0 the boundary series is used directly:
      r = -l²/x + x/3,   √F = -l/x - x/(6l),   √F/r = 1/l + x²/(2l³).
- u and the potentials (√F/r, √F) depend on (M, l) and x only, not on the
  field mass or the channel, so the inverse is solved once per spacetime
  and node set and kept, with both potentials, in :func:`inverse_memo`.
  Every evaluator along x reads it there; a 0-d x is a node set of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Regime",
    "Params",
    "CoordinateMap",
    "horizon_radius",
    "metric_factor",
    "metric_factor_deriv",
    "make_params",
    "expansion_residuals",
    "inverse_memo",
]

# crossover below which the boundary series replaces the inverse solve
_X_SERIES = -1e-8
# the inverse's Newton iteration stops on a step |Δu| ≤ _NEWTON_TOL·(1 + |u|)
# and raises after _NEWTON_MAXITER iterations
_NEWTON_TOL = 1e-12
_NEWTON_MAXITER = 100
# entries of inverse_memo, least recently used first out: one per
# spacetime and node set (a channel-scan pass has four; at n = 4096 an
# entry holds 128 KiB, the key's node bytes and the three arrays u, √F/r
# and √F)
_MEMO_SIZE = 16


class Regime(Enum):
    """Boundary regime classified by the dimensionless product 2·m·l."""

    SUBCRITICAL = "subcritical"      # 2ml < 1: boundary condition required
    CRITICAL = "critical"            # 2ml = 1: limiting case
    SUPERCRITICAL = "supercritical"  # 2ml > 1: no boundary condition needed


def classify_regime(m: float, l: float) -> Regime:
    two_ml = 2.0 * m * l
    if two_ml < 1.0:
        return Regime.SUBCRITICAL
    if two_ml == 1.0:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


def metric_factor(r, M: float, l: float):
    """F(r) = 1 - 2M/r + r²/l² (vectorized in r)."""
    r = np.asarray(r, dtype=float)
    return 1.0 - 2.0 * M / r + r * r / (l * l)


def metric_factor_deriv(r, M: float, l: float):
    """F'(r) = 2M/r² + 2r/l² (vectorized in r)."""
    r = np.asarray(r, dtype=float)
    return 2.0 * M / (r * r) + 2.0 * r / (l * l)


def horizon_radius(M: float, l: float) -> float:
    """
    Unique positive root r_sads of F.

    Closed form via the real Cardano branch:

        r_sads = p₊ + p₋,   p± = ( M·l² ± √(M²l⁴ + l⁶/27) )^{1/3},

    with the real (sign-carrying) cube root: the p₋ radicand is negative.

    Parameters
    ----------
    M, l : float
        Mass and AdS radius, both > 0.

    Returns
    -------
    float
        Horizon radius.
    """
    if M <= 0 or l <= 0:
        raise ValueError("require M > 0 and l > 0")
    s = math.sqrt(M * M * l**4 + l**6 / 27.0)
    r = float(np.cbrt(M * l * l + s) + np.cbrt(M * l * l - s))
    # two Newton steps on F polish the root (the cube roots lose a couple of ulps)
    for _ in range(2):
        r -= float(metric_factor(r, M, l) / metric_factor_deriv(r, M, l))
    return r


@dataclass(frozen=True)
class Params:
    """
    Model parameters with derived geometric constants.

    Attributes
    ----------
    M, l : float
        Black-hole mass and AdS radius.
    m : float
        Field mass (enters only through the regime and the mass potential).
    r_sads : float
        Horizon radius.
    kappa : float
        Surface gravity F'(r_sads)/2.
    alpha1 : float
        Horizon log-exponent of the tortoise map, 1/(2·kappa).
    c_const : float
        Coefficient of the arctan term of the tortoise map.
    regime : Regime
        Boundary regime from 2·m·l.
    """

    M: float
    l: float
    m: float
    r_sads: float = field(init=False)
    kappa: float = field(init=False)
    alpha1: float = field(init=False)
    c_const: float = field(init=False)
    regime: Regime = field(init=False)

    def __post_init__(self):
        if self.M <= 0 or self.l <= 0:
            raise ValueError("require M > 0 and l > 0")
        if self.m < 0:
            raise ValueError("require m >= 0")
        rh = horizon_radius(self.M, self.l)
        kap = 0.5 * float(metric_factor_deriv(rh, self.M, self.l))
        q = 3.0 * rh * rh + self.l * self.l
        c = (
            self.l * self.l
            * (3.0 * rh * rh + 2.0 * self.l * self.l)
            / (q * math.sqrt(3.0 * rh * rh + 4.0 * self.l * self.l))
        )
        object.__setattr__(self, "r_sads", rh)
        object.__setattr__(self, "kappa", kap)
        object.__setattr__(self, "alpha1", 1.0 / (2.0 * kap))
        object.__setattr__(self, "c_const", c)
        object.__setattr__(self, "regime", classify_regime(self.m, self.l))

    @property
    def two_ml(self) -> float:
        return 2.0 * self.m * self.l


def make_params(M: float, l: float, m: float) -> Params:
    """Convenience constructor (mirrors the config entry point)."""
    return Params(M=M, l=l, m=m)


class CoordinateMap:
    """
    r ↔ r_* ↔ x maps for a fixed :class:`Params`.

    All evaluators accept scalars or arrays.  The inverse runs on the log
    gap u = ln(r - r_sads), so :meth:`delta_of_x` stays accurate wherever
    e^u is representable, long after :meth:`r_of_x` rounds to r_sads.
    u and the potentials √F/r and √F are solved once per (M, l) and node
    set, a 0-d x being a node set of one, and every evaluator reads them,
    read-only, from :func:`inverse_memo`.
    """

    def __init__(self, params: Params):
        self.params = params
        p = params
        self._sq4 = math.sqrt(3.0 * p.r_sads**2 + 4.0 * p.l**2)
        self._log_q = math.log(3.0 * p.r_sads**2 + p.l**2)  # ln P(r_sads)
        self._log_3rh = math.log(3.0 * p.r_sads)
        # intercept of the horizon asymptote x(u) ≈ α₁·u + x_h as u → -∞
        self._x_horizon = (
            -0.5 * p.alpha1 * self._log_q
            - p.c_const * math.atan(self._sq4 / (3.0 * p.r_sads))
        )
        self._x_unit = float(self._x_of_u(0.0))  # x at δ = 1

    # -- forward maps -----------------------------------------------------

    def _x_of_u(self, u):
        """x at u = ln δ (module notes), with
        ln(P/δ²) = ln(q·e^{-2u} + 3r_sads·e^{-u} + 1) and q = P(r_sads)."""
        p = self.params
        r = p.r_sads + np.exp(u)
        log_ratio = np.logaddexp(self._log_q - 2.0 * u, np.logaddexp(0.0, self._log_3rh - u))
        return -0.5 * p.alpha1 * log_ratio - p.c_const * np.arctan(self._sq4 / (2.0 * r + p.r_sads))

    def tortoise(self, r):
        """
        Closed-form tortoise coordinate r_*(r) = x(r) + C·π/2, r > r_sads.

        Raises
        ------
        ValueError
            If any r ≤ r_sads.
        """
        return self.x_of_r(r) + self.params.c_const * math.pi / 2.0

    def x_of_r(self, r):
        """Working coordinate x(r) = r_*(r) - C·π/2 ∈ (-∞, 0), r > r_sads."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= self.params.r_sads):
            raise ValueError("tortoise requires r > horizon radius")
        return self.x_of_delta(r - self.params.r_sads)

    def x_of_delta(self, delta):
        """x(r_sads + δ), accurate for δ far below the float spacing of r_sads."""
        return self._x_of_u(np.log(np.asarray(delta, dtype=float)))

    # -- inverse map ------------------------------------------------------

    def _log_gap(self, x):
        """
        u = ln δ(min(x, -1e-8)) at every x < 0, as a float array of the shape
        of x; the callers take -1e-8 < x < 0 from the boundary series.

        A bracketed Newton iteration solves x(u) = x, with slope dx/du = δ/F
        taken from the cancellation-free F/δ.  It starts from the horizon
        asymptote (at most 0) for x < x(u=0) and from ln(-l²/x) (at least 0)
        otherwise.  Where x(u) turns from convex to concave Newton can cycle,
        so a step longer than half the bracket is replaced by bisection.  Each
        element freezes once its step falls below the tolerance, so a batch
        gives the same bits as a node set of one.
        """
        p = self.params
        xs = np.asarray(x, dtype=float)
        if not ((xs < 0.0) & (xs > -np.inf)).all():
            raise ValueError("working coordinate must be finite and satisfy x < 0")
        xf = np.minimum(xs, _X_SERIES)
        u = np.where(
            xf < self._x_unit,
            np.minimum((xf - self._x_horizon) / p.alpha1, 0.0),
            np.maximum(np.log(-p.l**2 / xf), 0.0),
        )
        lo, hi, done = -np.inf, np.inf, np.False_
        for _ in range(_NEWTON_MAXITER):
            res = self._x_of_u(u) - xf
            # converged elements take a zero step and stay frozen
            step = ~done * res * self._F_over_delta(np.exp(u))
            done = abs(step) <= _NEWTON_TOL * (1.0 + abs(u))
            # u is now one end of the bracket and the step points inside it;
            # a step longer than half the bracket is replaced by bisection
            lo = np.where(res <= 0.0, u, lo)
            hi = np.where(res > 0.0, u, hi)
            newton = done | (abs(step) <= 0.5 * (hi - lo))
            u = np.where(newton, u - step, 0.5 * (lo + hi))
            if done.all():
                return u
        raise ArithmeticError(
            f"coordinate inverse did not converge in {_NEWTON_MAXITER} iterations"
        )

    def _inverse(self, x):
        """(u, √F/r, √F) at x, the read-only arrays of :func:`inverse_memo`:
        the one way in to the inverse for every evaluator along x."""
        xs = np.asarray(x, dtype=float)
        p = self.params
        return inverse_memo(float(p.M), float(p.l), xs.shape, xs.tobytes())

    def delta_of_x(self, x):
        """Horizon gap δ(x) = r(x) - r_sads, as e^u; it underflows to 0 only
        where e^u does (x below about -372/κ)."""
        p = self.params
        xs = np.asarray(x, dtype=float)
        u = self._inverse(xs)[0]
        return np.where(xs > _X_SERIES, -p.l**2 / xs + xs / 3.0 - p.r_sads, np.exp(u))[()]

    def r_of_x(self, x):
        """Inverse map r(x): the boundary series -l²/x + x/3 for
        -1e-8 < x < 0, r_sads + e^u otherwise."""
        p = self.params
        xs = np.asarray(x, dtype=float)
        u = self._inverse(xs)[0]
        return np.where(xs > _X_SERIES, -p.l**2 / xs + xs / 3.0, p.r_sads + np.exp(u))[()]

    # -- metric quantities along x ---------------------------------------

    def _F_over_delta(self, delta):
        """Cancellation-free F(r_sads + δ)/δ."""
        p = self.params
        return 2.0 * p.M / (p.r_sads * (p.r_sads + delta)) + (2.0 * p.r_sads + delta) / (p.l * p.l)

    def _sqrtF_of_u(self, u):
        """√F = e^{u/2}·√(F/δ): no underflow through δ itself."""
        return np.exp(0.5 * u) * np.sqrt(self._F_over_delta(np.exp(u)))

    def _potentials_of_x(self, x):
        """(√F/r, √F) at x, the channel potentials A and B together."""
        _, a, b = self._inverse(x)
        return a[()], b[()]

    def sqrtF_of_x(self, x):
        """√F(r(x)); boundary series −l/x − x/(6l) for -1e-8 < x < 0."""
        return self._inverse(x)[2][()]

    def angular_factor_of_x(self, x):
        """√F(r(x)) / r(x); boundary series 1/l + x²/(2l³) near x = 0."""
        return self._inverse(x)[1][()]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def inverse_memo(M: float, l: float, shape: tuple, nodes: bytes):
    """
    (u, √F/r, √F) of the spacetime (M, l) at the float nodes x with
    ``shape`` and raw bytes ``nodes``, as three read-only arrays, u = ln δ
    being the solve's log gap; -1e-8 < x < 0 takes the boundary series.

    A miss runs one inverse solve; a solve that raises leaves no entry.  The
    key has no field mass, which enters neither the geometry nor the
    potentials.  ``cache_info()`` counts the solves (misses) and the reuses
    (hits).
    """
    cm = CoordinateMap(Params(M=M, l=l, m=0.0))
    p = cm.params
    x = np.frombuffer(nodes).reshape(shape)
    u = cm._log_gap(x)
    series = x > _X_SERIES
    root = cm._sqrtF_of_u(u)
    a = np.where(series, 1.0 / p.l + x * x / (2.0 * p.l**3), root / (p.r_sads + np.exp(u)))
    b = np.where(series, -p.l / x - x / (6.0 * p.l), root)
    for values in (u, a, b):
        values.flags.writeable = False
    return u, a, b


def expansion_residuals(params: Params) -> dict:
    """
    Check the horizon expansion of the coordinate map (x → -∞): the
    least-squares slopes of ln √F(x) and ln(√F/r)(x) against x at 21 points
    of [-80/κ, -40/κ] must both reproduce the surface gravity κ, since √F
    and √F/r decay like e^{κx}.

    Returns a dict with keys ``horizon_slope_B`` and ``horizon_slope_A``.
    """
    cm = CoordinateMap(params)
    lo = -40.0 / params.kappa
    x_horizon = np.linspace(2 * lo, lo, 21)  # safely exponential region
    lnB = np.log(cm.sqrtF_of_x(x_horizon))
    lnA = np.log(cm.angular_factor_of_x(x_horizon))
    return {
        "horizon_slope_B": float(np.polyfit(x_horizon, lnB, 1)[0]),
        "horizon_slope_A": float(np.polyfit(x_horizon, lnA, 1)[0]),
    }
