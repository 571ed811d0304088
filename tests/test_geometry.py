"""
Geometry checks: horizon root, tortoise map, inverse map, expansions.

Oracles are independent of the closed forms under test:
  - horizon via scipy bisection on the metric factor,
  - tortoise via adaptive quadrature of 1/F (differences on finite
    intervals, absolute normalization via the improper integral to the
    conformal boundary),
  - a handful of 22-digit reference values frozen from a 50-digit
    computation (bisection + quadrature only).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import bisect

from adsdirac.geometry import (
    CoordinateMap,
    Params,
    Regime,
    expansion_residuals,
    horizon_radius,
    metric_factor,
    metric_factor_deriv,
)


# ---------------------------------------------------------------- oracles

def oracle_horizon(M, l):
    """Bisection root of F, no closed form involved."""
    f = lambda r: 1.0 - 2.0 * M / r + r * r / (l * l)
    return bisect(f, 1e-9, 10.0 * (M + l), xtol=1e-15)


def oracle_x(r, M, l):
    """x(r) = -∫_r^∞ ds/F(s) by adaptive quadrature.

    Split at a finite waypoint: the compact piece carries the near-horizon
    mass, the tail is a smooth ~l²/s² integrand that quad handles to near
    machine accuracy.
    """
    f = lambda s: 1.0 / (1.0 - 2.0 * M / s + s * s / (l * l))
    mid = r + 10.0 * (M + l)
    v1, e1 = quad(f, r, mid, limit=400, epsabs=1e-12, epsrel=1e-12)
    v2, e2 = quad(f, mid, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert e1 + e2 < 1e-9
    return -(v1 + v2)


def oracle_tortoise_diff(r1, r2, M, l):
    f = lambda s: 1.0 / (1.0 - 2.0 * M / s + s * s / (l * l))
    val, err = quad(f, r1, r2, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return val


# frozen from the 50-digit oracle run (mpmath bisection + quadrature)
FROZEN = {
    (1.0, 1.0): {
        "r_h": 1.0,
        "kappa": 2.0,
        "C": 0.4724555912615340340181,
        "x": {1.01: -1.665419624683386397827,
              2.0: -0.4898719454738372085294,
              5.0: -0.1981614811817827798408,
              20.0: -0.04996151077840756070085},
        "int_2_5": 0.2917104642920544286886,
    },
    (2.0, 1.5): {
        "r_h": 1.723728491681290292428,
        "kappa": 1.439221211844963309222,
        "C": 0.6387485590048365795521,
        "x": {2.0: -1.29466302773352154691,
              3.0: -0.7504664928511837297074,
              10.0: -0.2238288464273811095515},
    },
    (1.0, 4.0): {
        "r_h": 1.695415196279133085512,
        "kappa": 0.4538581853976407793581,
        "C": 3.097497438425984823114,
        "x": {2.0: -6.150573071104804062057,
              6.0: -2.415827193319101822262},
    },
}


# ---------------------------------------------------------------- horizon

class TestHorizon:

    @pytest.mark.parametrize("M,l", [(1, 1), (2, 1.5), (1, 4), (0.3, 0.7), (5, 2)])
    def test_matches_bisection(self, M, l):
        rh = horizon_radius(M, l)
        assert rh == pytest.approx(oracle_horizon(M, l), rel=1e-12)

    def test_reference_unit_case(self):
        # M = l = 1: F(1) = 1 - 2 + 1 = 0 exactly
        assert horizon_radius(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("M,l", [(1.0, 1.0), (2.0, 1.5), (1.0, 4.0)])
    def test_frozen_values(self, M, l):
        ref = FROZEN[(M, l)]
        assert horizon_radius(M, l) == pytest.approx(ref["r_h"], rel=1e-14)

    def test_root_property(self):
        for M, l in [(1, 1), (0.5, 3), (7, 0.9)]:
            rh = horizon_radius(M, l)
            assert abs(metric_factor(rh, M, l)) < 1e-13
            # simple root: derivative strictly positive
            assert metric_factor_deriv(rh, M, l) > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            horizon_radius(-1.0, 1.0)
        with pytest.raises(ValueError):
            horizon_radius(1.0, 0.0)


class TestParams:

    def test_derived_constants(self):
        p = Params(M=1, l=1, m=1)
        assert p.r_sads == pytest.approx(1.0, abs=1e-14)
        assert p.kappa == pytest.approx(2.0, rel=1e-14)
        assert p.alpha1 == pytest.approx(0.25, rel=1e-14)
        assert p.c_const == pytest.approx(5.0 / (4.0 * math.sqrt(7.0)), rel=1e-14)
        assert p.regime is Regime.SUPERCRITICAL

    def test_alpha1_is_inverse_double_kappa(self):
        # α₁ = 1/(2κ) against the tortoise map's closed form
        # r_sads·l²/(3r_sads² + l²), which equals it only at the root of F
        for M, l in [(1, 1), (2, 1.5), (1, 4), (0.25, 6)]:
            p = Params(M=M, l=l, m=0.5)
            closed = p.r_sads * l * l / (3.0 * p.r_sads**2 + l * l)
            assert p.alpha1 == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize(
        "m,l,regime",
        [(0.25, 1.0, Regime.SUBCRITICAL),
         (0.5, 1.0, Regime.CRITICAL),
         (1.0, 1.0, Regime.SUPERCRITICAL),
         (0.05, 4.0, Regime.SUBCRITICAL)],
    )
    def test_regime_classification(self, m, l, regime):
        assert Params(M=1, l=l, m=m).regime is regime

    def test_frozen_c_const(self):
        for (M, l), ref in FROZEN.items():
            p = Params(M=M, l=l, m=1.0)
            assert p.c_const == pytest.approx(ref["C"], rel=1e-14)
            assert p.kappa == pytest.approx(ref["kappa"], rel=1e-13)


# ---------------------------------------------------------------- tortoise

class TestTortoise:

    @pytest.mark.parametrize("M,l", [(1.0, 1.0), (2.0, 1.5), (1.0, 4.0)])
    def test_absolute_against_quadrature(self, M, l):
        """Closed form with the boundary normalization vs ∫_r^∞ ds/F."""
        cm = CoordinateMap(Params(M=M, l=l, m=1))
        for r, ref in FROZEN[(M, l)]["x"].items():
            assert cm.x_of_r(r) == pytest.approx(ref, abs=1e-8)
            assert cm.x_of_r(r) == pytest.approx(oracle_x(r, M, l), abs=1e-8)

    def test_differences_against_quadrature(self):
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        d = cm.tortoise(5.0) - cm.tortoise(2.0)
        assert d == pytest.approx(FROZEN[(1.0, 1.0)]["int_2_5"], abs=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            r1, r2 = np.sort(1.0 + rng.uniform(0.05, 40.0, size=2))
            assert cm.tortoise(r2) - cm.tortoise(r1) == pytest.approx(
                oracle_tortoise_diff(r1, r2, 1, 1), abs=1e-8
            )

    def test_monotone_increasing(self):
        cm = CoordinateMap(Params(M=2, l=1.5, m=1))
        r = np.geomspace(cm.params.r_sads * (1 + 1e-10), 1e6, 400)
        x = cm.x_of_r(r)
        assert np.all(np.diff(x) > 0)
        assert np.all(x < 0)

    def test_rejects_interior(self):
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        with pytest.raises(ValueError):
            cm.tortoise(0.5)
        with pytest.raises(ValueError):
            cm.tortoise(np.array([2.0, 1.0]))


class TestInverseMap:

    def test_round_trip_x_r_x(self):
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        xs = -np.geomspace(1e-7, 35.0, 120)
        for x in xs:
            d = cm.delta_of_x(x)
            assert cm.x_of_delta(d) == pytest.approx(x, rel=1e-10, abs=1e-14)

    def test_round_trip_r_x_r(self):
        cm = CoordinateMap(Params(M=2, l=1.5, m=1))
        rh = cm.params.r_sads
        for r in np.geomspace(rh * (1 + 1e-6), 1e5, 60):
            x = cm.x_of_r(r)
            assert cm.r_of_x(x) == pytest.approx(r, rel=1e-10)

    def test_deep_horizon_gap(self):
        """δ(x) follows e^{2κx} far below the float spacing of r_sads."""
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        d1, d2 = cm.delta_of_x(-30.0), cm.delta_of_x(-31.0)
        assert math.log(d1 / d2) == pytest.approx(2.0 * cm.params.kappa, rel=1e-9)
        assert d1 < 1e-50  # genuinely sub-ulp territory relative to r_sads = 1

    def test_no_clamp_below_double_range(self):
        """√F keeps its e^{κx} decay after δ ~ e^{2κx} underflows the
        double range (x < -185 for M = l = 1)."""
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        ratio = cm.sqrtF_of_x(-200.0) / cm.sqrtF_of_x(-201.0)
        assert ratio == pytest.approx(math.exp(cm.params.kappa), rel=1e-9)
        assert cm.delta_of_x(-400.0) == 0.0  # e^u underflows, no floor

    def test_series_branch_continuity(self):
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        # straddle the series crossover at x = -1e-8
        left = cm.r_of_x(-1.0000001e-8)
        right = cm.r_of_x(-0.9999999e-8)
        assert left == pytest.approx(right, rel=1e-6)
        bl = cm.sqrtF_of_x(-1.0000001e-8)
        br = cm.sqrtF_of_x(-0.9999999e-8)
        assert bl == pytest.approx(br, rel=1e-6)

    def test_domain_errors(self):
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        for bad in (0.0, 0.3, np.array([-1.0, 0.0])):
            with pytest.raises(ValueError):
                cm.r_of_x(bad)
        with pytest.raises(ValueError):
            cm.sqrtF_of_x(1.0)

    def test_vectorized_matches_scalar(self):
        cm = CoordinateMap(Params(M=1, l=4, m=0.1))
        xs = np.array([-20.0, -3.0, -0.2, -1e-9])
        rv = cm.r_of_x(xs)
        for i, x in enumerate(xs):
            assert rv[i] == cm.r_of_x(float(x))


@settings(max_examples=60, deadline=None)
@given(
    M=st.floats(0.1, 10.0),
    l=st.floats(0.1, 10.0),
    s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_inverse_properties(M, l, s):
    """Round trip, strict monotonicity and batch/scalar bit equality of the
    inverse on x ∈ [-100/κ, -1e-7] (log-spaced through the samples s)."""
    cm = CoordinateMap(Params(M=M, l=l, m=1.0))
    lo, hi = math.log(1e-7), math.log(100.0 / cm.params.kappa)
    xs = np.sort(-np.exp(lo + (hi - lo) * np.asarray(s)))
    deltas = cm.delta_of_x(xs)
    back = cm.x_of_delta(deltas)
    assert np.all(np.abs(back - xs) <= 1e-10 * (np.abs(xs) + 1e-4))
    # strictly increasing wherever the x differ by more than rounding
    separated = np.diff(xs) > 1e-9 * np.abs(xs[1:])
    assert np.all(np.diff(deltas) >= 0)
    assert np.all(np.diff(deltas)[separated] > 0)
    for x, d in zip(xs, deltas):
        assert cm.delta_of_x(float(x)) == d


# ---------------------------------------------------------------- potentials

class TestMetricAlongX:

    def test_frozen_potential_samples(self):
        """√F/r and √F at pinned x against the 50-digit oracle."""
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        assert cm.angular_factor_of_x(-1e-4) == pytest.approx(
            1.000000004999000020823, rel=1e-12)
        assert cm.sqrtF_of_x(-1e-4) == pytest.approx(
            10000.00001666166668609, rel=1e-10)
        assert cm.angular_factor_of_x(-0.5) == pytest.approx(
            0.9973680201866714087585, rel=1e-12)
        assert cm.sqrtF_of_x(-0.5) == pytest.approx(
            1.95523344582044309739, rel=1e-12)

    def test_one_solve_gives_both_potentials_bit_for_bit(self):
        """The one-inverse pair (A, B), called one x at a time, equals
        the batched public evaluators bit for bit, through the boundary
        series band and across its crossover."""
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        xs = np.concatenate([
            -np.geomspace(1e-12, 60.0, 400),
            [-1.0000001e-8, -1e-8, -0.9999999e-8, -5e-9],
        ])
        a_vec, b_vec = cm.angular_factor_of_x(xs), cm.sqrtF_of_x(xs)
        for x, a, b in zip(xs, a_vec, b_vec):
            pa, pb = cm._potentials_of_x(float(x))
            assert pa == a and pb == b
            assert pa == cm.angular_factor_of_x(float(x))
            assert pb == cm.sqrtF_of_x(float(x))

    def test_cancellation_free_F(self):
        cm = CoordinateMap(Params(M=1, l=1, m=1))
        # tiny gaps: no sign flips, exact exponential ratios
        deltas = np.geomspace(1e-60, 1e-10, 11)
        F = cm.F_of_delta(deltas)
        assert np.all(F > 0)
        # leading order F ≈ F'(r_h)·δ = 2κδ
        assert F[0] / deltas[0] == pytest.approx(2 * cm.params.kappa, rel=1e-9)


class TestExpansions:

    def test_horizon_slope_is_kappa(self):
        """ln √F vs x on [-40, -20] (unit case) fits κ to 1%."""
        res = expansion_residuals(Params(M=1, l=1, m=1))
        assert res["horizon_slope_B"] == pytest.approx(2.0, rel=0.01)
        assert res["horizon_slope_A"] == pytest.approx(2.0, rel=0.01)

    def test_horizon_slope_other_params(self):
        p = Params(M=2, l=1.5, m=1)
        res = expansion_residuals(p)
        assert res["horizon_slope_B"] == pytest.approx(p.kappa, rel=0.01)
        assert res["horizon_slope_A"] == pytest.approx(p.kappa, rel=0.01)

    def test_boundary_orders(self):
        """Observed decay of series residuals: r and √F beyond linear,
        angular factor beyond quadratic."""
        res = expansion_residuals(Params(M=1, l=1, m=1))
        assert min(res["boundary_orders"]["r_residual"]["observed"]) > 1.5
        assert min(res["boundary_orders"]["sqrtF_residual"]["observed"]) > 1.5
        assert min(res["boundary_orders"]["ang_residual"]["observed"]) > 2.5

    def test_boundary_residual_magnitudes(self):
        # frozen order-of-magnitude table (unit case, x = -1e-2)
        res = expansion_residuals(Params(M=1, l=1, m=1))
        row = next(r for r in res["boundary"] if r["x"] == -1e-2)
        assert 1e-5 < abs(row["r_residual"]) < 1e-4
        assert 1e-5 < abs(row["sqrtF_residual"]) < 1e-4
        assert 1e-7 < abs(row["ang_residual"]) < 1e-5
