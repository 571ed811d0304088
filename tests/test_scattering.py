"""Wave-operator and velocity-diagnostic tests.

Module-scale configurations keep runtimes in seconds; the acceptance suite
re-runs the heavyweight configurations at tighter tolerances.
"""
import numpy as np
import pytest

from adsdirac.algebra import VELOCITY, Channel
from adsdirac.channel import ConfigurationError, assemble_hamiltonian, free_operator
import adsdirac.channel as channel
from adsdirac.dynamics import (
    Direction,
    EvolutionConfig,
    chebyshev_propagate,
    evolve,
    free_propagate,
)
from adsdirac.geometry import make_params
from adsdirac.grids import SpinorField, gaussian_packet, make_grid
from adsdirac.scattering import (
    adjointness_residual,
    quintic_step,
    velocity_report,
    wave_operator_backward,
    wave_operator_forward,
)

CHANNEL = Channel(0.5, 0.5)


def _grid(x_min=-24.0, n=2048):
    return make_grid(x_min, n)


class TestTrivialOracle:
    """Zero potentials: Ω's composition collapses to the identity."""

    def setup_method(self):
        self.grid = _grid(-16.0, 1024)
        self.op = free_operator(self.grid)
        self.phi = gaussian_packet(self.grid, center=-8.0, width=0.5, components=(0, 1, 0, 0))

    def test_forward_identity_discrete_factor(self):
        rep = wave_operator_forward(self.phi, self.op, (1.0, 2.0, 4.0), free_factor="discrete")
        assert np.all(rep.increments <= 1e-9)
        assert rep.converged
        assert self.grid.norm(rep.limit.values - self.phi.values) <= 1e-9

    def test_hybrid_identity_within_discretization(self):
        # exact free factor against the discrete flow: limited by O(h²t)
        rep = wave_operator_forward(self.phi, self.op, (1.0, 2.0, 4.0))
        assert self.grid.norm(rep.limit.values - self.phi.values) <= 5e-3
        assert np.all(rep.increments <= 5e-3)

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            wave_operator_forward(self.phi, self.op, (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            wave_operator_forward(self.phi, self.op, (2.0, 1.0, 4.0))

    def test_unknown_free_factor_rejected(self):
        # a misspelt factor must not fall through to the discrete flow,
        # whose self-comparison is the trivially exact oracle
        with pytest.raises(ConfigurationError, match="free_factor"):
            wave_operator_forward(self.phi, self.op, (1.0, 2.0, 4.0), free_factor="exakt")


def test_one_estimate_per_schedule_time():
    # 1 and 1.001 land on the same Cayley step; each schedule time still
    # gets its own estimate, so the two coincide and their increment is 0
    grid = make_grid(-16.0, 256)
    op = assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, 1.0), grid)
    phi = gaussian_packet(grid, center=-4.0, width=0.5, components=(1, 0, 0, 1))
    rep = wave_operator_forward(phi, op, (1.0, 1.001, 2.0))
    assert rep.times.size == 3 and rep.increments.size == 2
    assert rep.times[0] == rep.times[1] and rep.increments[0] == 0.0
    assert rep.increments[1] > 0.0


class TestWaveOperators:
    SCHEDULE = (1.0, 2.0, 4.0, 8.0, 16.0)

    def setup_method(self):
        self.grid = _grid()
        self.phi = gaussian_packet(self.grid, center=-4.0, width=0.5, components=(1, 0, 0, 1))
        self.psi = gaussian_packet(self.grid, center=-2.5, width=0.4, components=(1, 0, 0, 1))

    def _op(self, m):
        return assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, m), self.grid)

    def test_forward_converges_strong_mass(self):
        rep = wave_operator_forward(self.phi, self._op(1.0), self.SCHEDULE)
        assert rep.converged
        tail = rep.increments[-3:]
        assert np.all(np.diff(tail) < 0)
        assert rep.increments[-1] <= 1e-2 * self.phi.norm()
        # isometry of the limit within 10x the final increment
        assert abs(rep.limit_norm - self.phi.norm()) <= 10 * rep.increments[-1]

    def test_backward_converges_strong_mass(self):
        rep = wave_operator_backward(self.psi, self._op(1.0), self.SCHEDULE)
        assert rep.converged
        assert abs(rep.limit_norm - self.psi.norm()) <= 10 * max(rep.increments[-1], 1e-9)

    def test_adjoint_pairing(self):
        op = self._op(1.0)
        fwd = wave_operator_forward(self.phi, op, self.SCHEDULE)
        bwd = wave_operator_backward(self.psi, op, self.SCHEDULE)
        res = adjointness_residual(fwd, bwd, self.phi, self.psi)
        assert res <= 1e-2 * self.phi.norm() * self.psi.norm()
        # the pairing itself must be a genuine overlap, not a trivial zero
        assert abs(fwd.limit.inner(self.psi)) > 0.1

    def test_mismatched_backward_operator_fails_the_pairing(self):
        """Criterion 6's pairing on the scatter grid can fail: Ω on the
        m = 1 operator against W on an m = 0.45 operator exceeds the 1e-2
        bound that the matched W meets."""
        grid = make_grid(-32.0, 2048)
        schedule = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0)
        phi = gaussian_packet(grid, -4.0, 0.5, components=(1, 0, 0, 1))
        psi = gaussian_packet(grid, -2.5, 0.4, components=(1, 0, 0, 1))

        def backward(m):
            op = assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, m), grid)
            return wave_operator_backward(psi, op, schedule)

        fwd = wave_operator_forward(
            phi, assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, 1.0), grid), schedule
        )
        assert adjointness_residual(fwd, backward(1.0), phi, psi) <= 1e-2
        assert adjointness_residual(fwd, backward(0.45), phi, psi) > 1e-2

    def test_backward_builds_s_once_and_chains_its_limit(self, monkeypatch):
        """W builds the sector blocks of S once for all its runs, and its
        last increment run goes on to the limit: the state a separate run of
        length t_K gives, up to the expansion's truncation level."""
        builds = []
        build = channel._split_sectors

        def counted(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(channel, "_split_sectors", counted)
        op = self._op(1.0)
        rep = wave_operator_backward(self.psi, op, self.SCHEDULE)
        assert len(builds) == 1
        zeta = free_propagate(self.psi, self.SCHEDULE[-1], Direction.FORWARD)
        direct = chebyshev_propagate(op, zeta, self.SCHEDULE[-1:], Direction.BACKWARD)
        assert self.grid.norm(rep.limit.values - direct.fields[0].values) <= 1e-12
        assert len(builds) == 1

    def test_intertwining(self):
        # e^{−iτH_c} Ωφ = Ω e^{−iτH} φ up to twice the increment budget
        op = self._op(1.0)
        tau = 1.0
        fwd = wave_operator_forward(self.phi, op, self.SCHEDULE)
        lhs = free_propagate(fwd.limit, tau, Direction.FORWARD)
        cfg = EvolutionConfig(dt=self.grid.min_spacing / 2, t_final=tau)
        phi_tau = evolve(op, self.phi, cfg).final
        fwd_tau = wave_operator_forward(phi_tau, op, self.SCHEDULE)
        defect = self.grid.norm(lhs.values - fwd_tau.limit.values)
        assert defect <= 2.0 * (fwd.increments[-1] + fwd_tau.increments[-1])

    def test_forward_weak_mass_monotone_tail(self):
        # 2ml = 0.9: the wall reflection leaves an O(h^{2ml}) high-wavenumber
        # residue, so the desk grid only reaches ~2e-2; the tail must still
        # be monotone.  The acceptance configuration passes 1e-2 at finer h.
        rep = wave_operator_forward(self.phi, self._op(0.45), self.SCHEDULE)
        tail = rep.increments[-3:]
        assert np.all(np.diff(tail) < 0)
        assert rep.increments[-1] <= 3e-2 * self.phi.norm()


class TestCutoffs:
    def test_quintic_step_endpoints(self):
        assert quintic_step(0.0) == 0.0
        assert quintic_step(1.0) == 1.0
        assert quintic_step(-3.0) == 0.0
        assert quintic_step(7.0) == 1.0
        assert quintic_step(0.5) == pytest.approx(0.5)

    def test_quintic_step_is_c2(self):
        # first and second derivatives vanish at both ends
        for t0 in (0.0, 1.0):
            h = 1e-4
            d1 = (quintic_step(t0 + h) - quintic_step(t0 - h)) / (2 * h)
            d2 = (quintic_step(t0 + h) - 2 * quintic_step(t0) + quintic_step(t0 - h)) / h**2
            assert abs(d1) < 1e-3
            assert abs(d2) < 1e-2

    @staticmethod
    def _traces_at(velocity):
        """(velocity, minimal trace, maximal trace) at t = 1, δ = ε = 0.2,
        for a state whose whole mass sits at one node: a left-mover at
        1 − v for v ≥ 1, else a right-mover at v − 1 that has reflected off
        the wall by t = 1.  Either way Γ¹x/t at t = 1 is v to within the
        grid spacing, and the free flow moves the node onto a node."""
        grid = make_grid(-4.0, 400)
        k = int(np.argmin(np.abs(grid.nodes + abs(velocity - 1.0))))
        values = np.zeros((4, grid.n), dtype=complex)
        values[1 if velocity >= 1.0 else 0, k] = 1.0
        rep = velocity_report(SpinorField(grid, values), (0.5, 1.0))
        return rep.v_values[-1], rep.minimal_values[-1], rep.maximal_values[-1]

    def test_minimal_cutoff_support(self):
        # ≡ 1 up to 1 − 2δ = 0.6, ≡ 0 from 1 − δ = 0.8 on
        for target, expected in ((0.1, 1.0), (0.59, 1.0), (0.81, 0.0)):
            v, minimal, _ = self._traces_at(target)
            assert abs(v - target) <= 0.01 and (v < 0.6 or v > 0.8)
            assert minimal == pytest.approx(expected, abs=1e-12)
        _, minimal, _ = self._traces_at(0.7)
        assert 0.1 < minimal < 0.9

    def test_maximal_cutoff_support(self):
        # ≡ 0 up to 1 + ε = 1.2, ≡ 1 from 1 + 2ε = 1.4 on
        for target, expected in ((1.19, 0.0), (1.41, 1.0), (3.0, 1.0)):
            v, _, maximal = self._traces_at(target)
            assert abs(v - target) <= 0.01 and (v < 1.2 or v > 1.4)
            assert maximal == pytest.approx(expected, abs=1e-12)
        _, _, maximal = self._traces_at(1.3)
        assert 0.1 < maximal < 0.9

    def test_cutoff_validation(self):
        grid = make_grid(-16.0, 256)
        phi = gaussian_packet(grid, center=-8.0, width=0.5)
        for delta in (0.6, 0.5, 0.0):
            with pytest.raises(ConfigurationError, match="delta"):
                velocity_report(phi, (1.0, 2.0), delta=delta)
        for eps in (-0.1, 0.0):
            with pytest.raises(ConfigurationError, match="eps"):
                velocity_report(phi, (1.0, 2.0), eps=eps)


class TestFreeVelocity:
    """Closed-form transport: every diagnostic has an exact answer."""

    def setup_method(self):
        self.grid = make_grid(-60.0, 3072)
        # pure second-component bump: left-mover at speed exactly 1
        self.bump = gaussian_packet(self.grid, center=-2.5, width=0.25, components=(0, 1, 0, 0))

    def test_mean_velocity_exact_profile(self):
        # ⟨𝒜/t⟩ = 1 + 2.5/t for a left-mover released at −2.5
        rep = velocity_report(self.bump, (10.0, 20.0, 40.0))
        expected = 1.0 + 2.5 / np.array([10.0, 20.0, 40.0])
        assert rep.v_values == pytest.approx(expected, abs=1e-6)

    def test_richardson_limit_is_exact(self):
        # v(t) = 1 + c/t makes the two-point extrapolation exact
        rep = velocity_report(self.bump, (20.0, 40.0))
        assert rep.v_extrapolated == pytest.approx(1.0, abs=1e-6)

    def test_mean_velocity_tolerances(self):
        wide = make_grid(-90.0, 4096)
        bump = gaussian_packet(wide, center=-2.5, width=0.25, components=(0, 1, 0, 0))
        rep = velocity_report(bump, (10.0, 20.0, 40.0, 80.0))
        v = dict(zip(rep.times, rep.v_values))
        assert abs(v[20.0] - 1.0) <= 0.15
        assert abs(v[80.0] - 1.0) <= 0.05

    def test_constant_cutoff_trace_is_one(self):
        rep = velocity_report(self.bump, (5.0, 15.0))
        assert rep.unit_values == pytest.approx(np.ones(2), abs=1e-5)

    def test_maximal_trace_dies_after_entry(self):
        # support enters (1+ε, ∞) only while t < |x₀|/ε; afterwards exactly 0
        rep = velocity_report(self.bump, (5.0, 30.0), eps=0.2)
        assert rep.maximal_values[0] > 0.9  # −x/t = 1.5 at t=5: deep inside the cutoff
        assert rep.maximal_values[1] <= 1e-12

    def test_minimal_trace_dies_after_reflection(self):
        # right-mover content reflects, then drains out of (−∞, 1−δ)
        mix = gaussian_packet(self.grid, center=-2.5, width=0.25, components=(1, 0, 0, 1))
        rep = velocity_report(mix, (1.0, 30.0), delta=0.2)
        assert rep.minimal_values[0] > 0.4  # un-reflected content still at small x/t
        assert rep.minimal_values[1] <= 1e-10

    def test_cone_fraction_reaches_one(self):
        rep = velocity_report(self.bump, (5.0, 30.0), cone_delta=0.25)
        assert rep.cone_fractions[-1] == pytest.approx(1.0, abs=1e-10)

    def test_one_pass_sums_match_the_component_loop(self):
        # reference: each trace summed component by component, with the
        # cutoff written through its support edges
        phi = gaussian_packet(self.grid, center=-2.5, width=0.25, components=(1, 0.5j, 0.3, 1))
        times = (1.0, 5.0, 30.0)
        delta, eps, cone_delta = 0.2, 0.15, 0.25
        rep = velocity_report(phi, times, delta=delta, eps=eps, cone_delta=cone_delta)
        signs = np.diag(VELOCITY)
        for k, t in enumerate(times):
            field = free_propagate(SpinorField(self.grid, phi.values / phi.norm()), t)
            sums = np.zeros(5)
            for c in range(4):
                dens = self.grid.weights * np.abs(field.values[c]) ** 2
                arg = signs[c] * self.grid.nodes / t
                lo, hi = 1.0 - 2.0 * delta, 1.0 - delta
                sums[0] += np.sum(dens * (1.0 - quintic_step((arg - lo) / (hi - lo))))
                lo, hi = 1.0 + eps, 1.0 + 2.0 * eps
                sums[1] += np.sum(dens * quintic_step((arg - lo) / (hi - lo)))
                sums[2] += np.sum(dens)
                sums[3] += np.sum(dens[(arg >= 1.0 - cone_delta) & (arg <= 1.0 + cone_delta)])
                sums[4] += np.sum(dens * arg)
            sums[3:] /= sums[2]
            got = [rep.minimal_values[k], rep.maximal_values[k], rep.unit_values[k],
                   rep.cone_fractions[k], rep.v_values[k]]
            assert got == pytest.approx(sums, rel=1e-13, abs=1e-20)
        assert 0.0 < rep.minimal_values[0] < 1.0 and 0.0 < rep.maximal_values[0] < 1.0

    def test_velocity_report_consistency(self):
        rep = velocity_report(self.bump, (10.0, 20.0, 40.0))
        assert rep.unit_values == pytest.approx(np.ones(3), abs=1e-5)
        assert rep.v_extrapolated == pytest.approx(1.0, abs=1e-5)
        assert rep.maximal_values[-1] <= 1e-12
        assert rep.cone_fractions[-1] == pytest.approx(1.0, abs=1e-6)


class TestInteractingVelocity:
    def test_traces_decay_and_cone_fills(self):
        grid = make_grid(-26.0, 2048)
        phi = gaussian_packet(grid, center=-2.5, width=0.25, components=(1, 0, 0, 1))
        op = assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, 1.0), grid)
        rep = velocity_report(phi, (5.0, 10.0, 20.0), op)
        assert rep.minimal_values[-1] <= 1e-2
        assert rep.maximal_values[-1] <= 1e-2
        assert rep.cone_fractions[-1] >= 0.98
        # unitary flow: the J ≡ 1 trace is the norm, identically one
        assert rep.unit_values == pytest.approx(np.ones(3), abs=1e-9)
        assert abs(rep.v_extrapolated - 1.0) <= 0.05

    @pytest.mark.parametrize(
        "x_min, n, low, high", [(-16.0, 512, 0.5, 0.6), (-32.0, 2048, 0.0, 1e-150)]
    )
    def test_wall_mass_reads_a_short_domain(self, x_min, n, low, high):
        """The desk velocity packet traced to t = 20: on x_min = −16 half
        its mass reaches the artificial wall and reflects, with the norm
        intact; on the desk grid, x_min = −32, none does."""
        grid = make_grid(x_min, n)
        phi = gaussian_packet(grid, center=-2.5, width=0.25, components=(1, 0, 0, 1))
        op = assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, 1.0), grid)
        rep = velocity_report(phi, (4.0, 8.0, 12.0, 16.0, 20.0), op)
        assert rep.unit_values == pytest.approx(np.ones(5), abs=1e-9)
        assert low <= rep.wall_mass <= high

    def test_times_validation(self):
        grid = make_grid(-16.0, 256)
        phi = gaussian_packet(grid, center=-8.0, width=0.5)
        with pytest.raises(ConfigurationError):
            velocity_report(phi, (2.0, 1.0))
        with pytest.raises(ConfigurationError):
            velocity_report(phi, (-1.0, 2.0))
