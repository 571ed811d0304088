"""The ten acceptance criteria, one test each, at their stated tolerances.

Every test emits a single pass/fail line (replayed in the terminal summary
by conftest).  Configurations are pinned; the heavy fixtures are module
scoped so one evolution serves every criterion that reads it.  Expect the
full file to take several minutes — it is the slow, decisive end of the
suite, meant to be run with ``pytest tests/test_acceptance.py -v``.
"""

import numpy as np
import pytest

from adsdirac.algebra import (
    Channel,
    GAMMA,
    GAMMA5,
    GAMMA_ALT,
    transform_residual,
)
from adsdirac.channel import assemble_hamiltonian, free_operator
from adsdirac.dynamics import EvolutionConfig, evolve, free_propagate
from adsdirac.geometry import CoordinateMap, make_params, metric_factor
from adsdirac.grids import BoundaryGraded, gaussian_packet, make_grid
from adsdirac.scattering import (
    adjointness_residual,
    velocity_report,
    wave_operator_backward,
    wave_operator_forward,
)
from adsdirac.spectral import (
    boundary_exponent_fit,
    mourre_check,
    mourre_refinement_study,
    no_eigenvalue_test,
)
from conftest import record_acceptance

CHANNEL = Channel(0.5, 0.5)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def verdict(num: int, title: str, ok: bool, detail: str) -> bool:
    tag = "pass" if ok else "FAIL"
    record_acceptance(f"criterion {num:2d} [{tag}] {title}: {detail}")
    return ok


# ----------------------------------------------------------- shared runs


@pytest.fixture(scope="module")
def reference_velocity():
    """One interacting evolution to t = 20 feeding criteria 5 and 7."""
    params = make_params(1.0, 1.0, 1.0)
    grid = make_grid(-26.0, 4096)
    op = assemble_hamiltonian(CHANNEL, params, grid)
    phi = gaussian_packet(grid, -2.5, 0.25, components=(1.0, 0.0, 0.0, 1.0))
    return velocity_report(
        phi, (4.0, 8.0, 12.0, 16.0, 20.0), op, delta=0.2, eps=0.2, cone_delta=0.25
    )


class TestAcceptance:

    def test_criterion_01_geometry(self):
        params = make_params(1.0, 1.0, 1.0)
        cm = CoordinateMap(params)
        root = abs(metric_factor(params.r_sads, 1.0, 1.0))
        horizon_ok = abs(params.r_sads - 1.0) <= 1e-12 and root <= 1e-12

        from scipy.integrate import quad

        probes = params.r_sads + np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
        gap = 0.0
        for r1, r2 in zip(probes[:-1], probes[1:]):
            val, _ = quad(
                lambda r: 1.0 / metric_factor(r, 1.0, 1.0),
                r1, r2, epsabs=1e-13, epsrel=1e-13, limit=200,
            )
            gap = max(gap, abs(val - (cm.tortoise(r2) - cm.tortoise(r1))))

        r = params.r_sads + np.geomspace(1e-12, 10.0, 25)
        trip_r = float(np.max(np.abs(cm.r_of_x(cm.x_of_r(r)) - r) / r))
        # the 1e-4 scale floor folds an absolute tolerance 1e-14 into the
        # relative bound
        x = -np.geomspace(1e-7, 30.0, 25)
        trip_x = float(
            np.max(np.abs(cm.x_of_delta(cm.delta_of_x(x)) - x) / (np.abs(x) + 1e-4))
        )
        trip = max(trip_r, trip_x)

        ok = verdict(
            1, "geometry exactness",
            horizon_ok and gap <= 1e-8 and trip <= 1e-10,
            f"r_h - 1 = {params.r_sads - 1.0:.1e}, quadrature gap = {gap:.1e} "
            f"(1e-8), round trip = {trip:.1e} (1e-10)",
        )
        assert ok

    def test_criterion_02_algebra(self):
        exact = True
        for rep in (GAMMA, GAMMA_ALT):
            for mu in range(4):
                for nu in range(4):
                    acomm = rep[mu] @ rep[nu] + rep[nu] @ rep[mu]
                    exact &= bool(
                        np.array_equal(acomm, 2.0 * ETA[mu, nu] * np.eye(4))
                    )
        for mu in range(4):
            exact &= bool(np.array_equal(GAMMA5 @ GAMMA[mu], -GAMMA[mu] @ GAMMA5))
        rng = np.random.default_rng(11)
        residual = max(
            transform_residual(*(2.0 * rng.normal(size=3))) for _ in range(25)
        )
        ok = verdict(
            2, "algebra exactness",
            exact and residual <= 1e-13,
            f"anticommutation tables entrywise exact = {exact}, "
            f"representation-transform residual = {residual:.1e} (1e-13)",
        )
        assert ok

    @pytest.mark.parametrize("mass,regime", [(0.25, "bag"), (1.0, "natural")])
    def test_criterion_03_unitarity(self, mass, regime):
        params = make_params(1.0, 1.0, mass)
        grid = make_grid(-32.0, 2048)
        op = assemble_hamiltonian(CHANNEL, params, grid)
        psi = gaussian_packet(grid, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        traj = evolve(
            op, psi, EvolutionConfig(dt=0.5 * grid.min_spacing, t_final=10.0)
        )
        ok = verdict(
            3, f"unitarity ({regime} rows, 2ml = {params.two_ml:g})",
            traj.norm_drift <= 1e-8,
            f"norm drift = {traj.norm_drift:.1e} over T = 10 at N = 2048 (1e-8)",
        )
        assert ok

    def test_criterion_04_free_oracle(self):
        errors = []
        for n in (512, 1024, 2048):
            grid = make_grid(-8.0, n)
            phi = gaussian_packet(grid, -3.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
            cfg = EvolutionConfig(dt=0.5 * grid.min_spacing, t_final=5.0)
            num = evolve(free_operator(grid), phi, cfg).final
            errors.append(grid.norm(num.values - free_propagate(phi, 5.0).values))
        orders = [float(np.log2(errors[k] / errors[k + 1])) for k in range(2)]
        ok = verdict(
            4, "free-propagator oracle",
            errors[-1] <= 1e-3 and min(orders) >= 1.8,
            f"closed-form error = {errors[-1]:.2e} at N = 2048 (1e-3), "
            f"orders = {orders[0]:.2f}, {orders[1]:.2f} (>= 1.8)",
        )
        assert ok

    def test_criterion_05_velocity_estimates(self, reference_velocity):
        rep = reference_velocity
        mn = float(rep.minimal_values[-1])
        mx = float(abs(rep.maximal_values[-1]))
        cone = float(rep.cone_fractions[-1])
        ok = verdict(
            5, "minimal/maximal velocity",
            mn <= 1e-2 and mx <= 1e-2 and cone >= 0.98,
            f"sub-unit trace = {mn:.2e}, super-unit trace = {mx:.2e} "
            f"(both 1e-2 by t = 20), sandwich fraction = {cone:.4f} "
            "(>= 0.98 at δ = 0.25)",
        )
        assert ok

    @pytest.mark.parametrize("mass,regime", [(1.0, "natural"), (0.45, "bag")])
    def test_criterion_06_completeness(self, mass, regime):
        params = make_params(1.0, 1.0, mass)
        grid = make_grid(-32.0, 8192)
        op = assemble_hamiltonian(CHANNEL, params, grid)
        schedule = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0)

        phi = gaussian_packet(grid, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        fwd = wave_operator_forward(phi, op, schedule)
        psi = gaussian_packet(grid, -2.5, 0.4, components=(1.0, 0.0, 0.0, 1.0))
        bwd = wave_operator_backward(psi, op, schedule)

        tail_ok = bool(
            np.all(np.diff(fwd.increments[-3:]) < 0)
            and np.all(np.diff(bwd.increments[-3:]) < 0)
        )
        finals_ok = fwd.increments[-1] <= 1e-2 and bwd.increments[-1] <= 1e-2
        pairing = adjointness_residual(fwd, bwd, phi, psi)

        f_grid = make_grid(-16.0, 320)
        f_phi = gaussian_packet(f_grid, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        triv = wave_operator_forward(
            f_phi, free_operator(f_grid), (1.0, 2.0, 3.0), free_factor="discrete"
        )
        trivial = float(np.max(triv.increments))

        ok = verdict(
            6, f"asymptotic completeness ({regime}, 2ml = {params.two_ml:g})",
            tail_ok and finals_ok and pairing <= 1e-2 and trivial <= 1e-10,
            f"final increments fwd/bwd = {fwd.increments[-1]:.2e}/"
            f"{bwd.increments[-1]:.2e} (1e-2, tails monotone = {tail_ok}), "
            f"adjoint = {pairing:.1e} (1e-2), trivial oracle = {trivial:.1e} (1e-10)",
        )
        assert ok

    def test_criterion_07_asymptotic_velocity(self, reference_velocity):
        grid = make_grid(-26.0, 4096)
        phi = gaussian_packet(grid, -2.5, 0.25, components=(1.0, 0.0, 0.0, 1.0))
        free = velocity_report(phi, (4.0, 8.0, 12.0, 16.0, 20.0), op=None)
        v_int = reference_velocity.v_extrapolated
        v_free = free.v_extrapolated
        ok = verdict(
            7, "asymptotic velocity = identity",
            abs(v_int - 1.0) <= 0.05 and abs(v_free - 1.0) <= 0.05,
            f"extrapolated <A/t>: interacting = {v_int:.4f}, free = {v_free:.4f} "
            "(both within 0.05 of 1)",
        )
        assert ok

    def test_criterion_08_no_eigenvalues(self):
        params = make_params(1.0, 1.0, 1.0)
        worst_diff, worst_cond, all_ok = 0.0, 0.0, True
        for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
            rep = no_eigenvalue_test(lam, CHANNEL, params=params, depth=20.0)
            worst_diff = max(worst_diff, rep.depth_difference)
            worst_cond = max(worst_cond, rep.condition)
            all_ok &= rep.invertible_limit
        ok = verdict(
            8, "absence of eigenvalues",
            all_ok,
            f"λ ∈ {{-2..2}}: max fundamental-matrix difference = {worst_diff:.1e} "
            f"(1e-8), max condition = {worst_cond:.3g} (1e3)",
        )
        assert ok

    def test_criterion_09_mourre(self):
        params = make_params(1.0, 1.0, 1.0)
        coarse = assemble_hamiltonian(CHANNEL, params, make_grid(-32.0, 640))
        fine = assemble_hamiltonian(CHANNEL, params, make_grid(-32.0, 1280))
        study = mourre_refinement_study(coarse, fine, (0.5, 1.5))
        free = mourre_check(free_operator(make_grid(-16.0, 320)), (0.5, 1.5))
        free_gap = abs(free.min_quotient - 1.0)
        ok = verdict(
            9, "commutator positivity",
            study["coarse"].passed
            and study["verdict"] == "pass"
            and free_gap <= 1e-9,
            f"min quotient = {study['coarse'].min_quotient:.4f} on [0.5, 1.5] "
            f"at ε = 0.5, refinement drift = {study['quotient_drift']:.1e} "
            f"(0.05), free-case |quotient - 1| = {free_gap:.1e}",
        )
        assert ok

    def test_criterion_10_domain_exponents(self):
        grid = make_grid(-24.0, policy=BoundaryGraded(1e-3, 1.1, 0.05))
        slopes = {}
        for mass in (1.0, 0.25):
            params = make_params(1.0, 1.0, mass)
            op = assemble_hamiltonian(CHANNEL, params, grid)
            rep = boundary_exponent_fit(op)
            slopes[params.two_ml] = (rep.slope, rep.fitted)
        s2, ok2 = slopes[2.0]
        s05, ok05 = slopes[0.5]
        ok = verdict(
            10, "domain boundary exponents",
            ok2 and ok05 and s2 >= 0.45 and abs(s05 + 0.25) <= 0.05,
            f"2ml = 2: slope = {s2:.4f} (>= 0.45); "
            f"2ml = 0.5: slope = {s05:.4f} (-0.25 ± 0.05)",
        )
        assert ok
