"""Wave-operator and velocity-diagnostic tests.

Module-scale configurations keep runtimes in seconds; the acceptance suite
re-runs the heavyweight configurations at tighter tolerances.
"""
import numpy as np
import pytest

from adsdirac.algebra import Channel
from adsdirac.channel import (
    ConfigurationError,
    assemble_hamiltonian,
    potentials_zero,
)
from adsdirac.dynamics import Direction, EvolutionConfig, evolve, free_propagate
from adsdirac.geometry import make_params
from adsdirac.grids import gaussian_packet, make_grid
from adsdirac.scattering import (
    adjointness_residual,
    cone_mass_fraction,
    maximal_velocity_cutoff,
    minimal_velocity_cutoff,
    quintic_step,
    velocity_report,
    wave_operator_backward,
    wave_operator_forward,
)

CHANNEL = Channel(0.5, 0.5)


def _grid(x_min=-24.0, n=2048):
    return make_grid(x_min, n)


class TestTrivialOracle:
    """Zero potentials: both compositions collapse to the identity."""

    def setup_method(self):
        self.grid = _grid(-16.0, 1024)
        self.op = assemble_hamiltonian(CHANNEL, None, self.grid, pair=potentials_zero())
        self.phi = gaussian_packet(self.grid, center=-8.0, width=0.5, components=(0, 1, 0, 0))

    def test_forward_identity_discrete_factor(self):
        rep = wave_operator_forward(self.phi, self.op, (1.0, 2.0, 4.0), free_factor="discrete")
        assert np.all(rep.increments <= 1e-9)
        assert rep.converged
        assert self.grid.norm(rep.limit.values - self.phi.values) <= 1e-9

    def test_backward_identity_discrete_factor(self):
        rep = wave_operator_backward(self.phi, self.op, (1.0, 2.0, 4.0), free_factor="discrete")
        assert np.all(rep.increments <= 1e-9)
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
        assert rep.final_increment <= 1e-2 * rep.input_norm
        # isometry of the limit within 10x the final increment
        assert abs(rep.limit_norm - rep.input_norm) <= 10 * rep.final_increment

    def test_backward_converges_strong_mass(self):
        rep = wave_operator_backward(self.psi, self._op(1.0), self.SCHEDULE)
        assert rep.converged
        assert abs(rep.limit_norm - rep.input_norm) <= 10 * max(rep.final_increment, 1e-9)

    def test_adjoint_pairing(self):
        op = self._op(1.0)
        fwd = wave_operator_forward(self.phi, op, self.SCHEDULE)
        bwd = wave_operator_backward(self.psi, op, self.SCHEDULE)
        res = adjointness_residual(fwd, bwd, self.phi, self.psi)
        assert res <= 1e-2 * fwd.input_norm * bwd.input_norm
        # the pairing itself must be a genuine overlap, not a trivial zero
        assert abs(fwd.limit.inner(self.psi)) > 0.1

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
        assert defect <= 2.0 * (fwd.final_increment + fwd_tau.final_increment)

    def test_forward_weak_mass_monotone_tail(self):
        # 2ml = 0.9: the wall reflection leaves an O(h^{2ml}) high-wavenumber
        # residue, so the desk grid only reaches ~2e-2; the tail must still
        # be monotone.  The acceptance configuration passes 1e-2 at finer h.
        rep = wave_operator_forward(self.phi, self._op(0.45), self.SCHEDULE)
        tail = rep.increments[-3:]
        assert np.all(np.diff(tail) < 0)
        assert rep.final_increment <= 3e-2 * rep.input_norm


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

    def test_minimal_cutoff_support(self):
        j = minimal_velocity_cutoff(0.2)
        assert j.fn(0.0) == 1.0
        assert j.fn(0.59) == 1.0
        assert j.fn(0.81) == 0.0
        assert j.support_hi == pytest.approx(0.8)

    def test_maximal_cutoff_support(self):
        j = maximal_velocity_cutoff(0.2)
        assert j.fn(1.19) == 0.0
        assert j.fn(1.41) == 1.0
        assert j.support_lo == pytest.approx(1.2)

    def test_cutoff_validation(self):
        with pytest.raises(ConfigurationError):
            minimal_velocity_cutoff(0.6)
        with pytest.raises(ConfigurationError):
            maximal_velocity_cutoff(-0.1)


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
        assert cone_mass_fraction(free_propagate(self.bump, 30.0, Direction.FORWARD), 30.0) == pytest.approx(1.0, abs=1e-10)

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

    def test_times_validation(self):
        grid = make_grid(-16.0, 256)
        phi = gaussian_packet(grid, center=-8.0, width=0.5)
        with pytest.raises(ConfigurationError):
            velocity_report(phi, (2.0, 1.0))
        with pytest.raises(ConfigurationError):
            velocity_report(phi, (-1.0, 2.0))
