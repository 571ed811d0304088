"""Unitary evolution against the closed-form comparison flow, plus
propagation-speed and wall-coupling behavior."""
import contextlib
import dataclasses
import os
import sys
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import dense_blocks, dense_scaled, paired, scaled, sqrt_weights
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import expm_multiply, splu, spsolve
from scipy.special import jv

import adsdirac.channel as channel
import adsdirac.dynamics as dynamics
from adsdirac.algebra import Channel
from adsdirac.channel import (
    ConfigurationError,
    assemble_hamiltonian,
    free_operator,
    to_sectors,
)
from adsdirac.dynamics import (
    CayleyStepper,
    Direction,
    EvolutionConfig,
    NumericError,
    chebyshev_propagate,
    evolve,
    free_propagate,
)
from adsdirac.geometry import make_params
from adsdirac.grids import SpinorField, gaussian_packet, make_grid
from adsdirac.spectral import eigendecompose, level_count

P_MIT = make_params(1.0, 1.0, 0.25)
P_NAT = make_params(1.0, 1.0, 1.0)


def bump(y, center, width):
    return np.exp(-((y - center) ** 2) / (2.0 * width**2))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EvolutionConfig(dt=-0.1, t_final=1.0)
        with pytest.raises(ConfigurationError):
            EvolutionConfig(dt=0.1, t_final=0.0)

    def test_step_size_guard(self):
        g = make_grid(-10.0, 64)  # spacing 0.15625
        with pytest.raises(ConfigurationError):
            CayleyStepper(free_operator(g), dt=0.1)


class TestUnitarity:
    @pytest.mark.parametrize("params,ch", [(P_MIT, Channel(0.5, 0.5)), (P_NAT, Channel(1.5, -0.5))])
    def test_norm_preserved_T10(self, params, ch):
        g = make_grid(-10.0, 512)
        op = assemble_hamiltonian(ch, params, g)
        psi0 = gaussian_packet(g, -5.0, 0.6, components=(1.0, -0.5j, 0.25, 0.8))
        cfg = EvolutionConfig(dt=g.min_spacing / 2, t_final=10.0)
        traj = evolve(op, psi0, cfg)
        assert traj.norm_drift <= 1e-10

    @pytest.mark.parametrize("params", [P_MIT, P_NAT], ids=["mirror", "natural"])
    def test_drift_does_not_build_up(self, params):
        """2048 steps to t = 40 in each direction: the LU factor's rounding
        error repeats on every step, and unless the update cancels it the
        drift grows linearly to ~1e-13 (5e-14 with the two-matrix form)."""
        g = make_grid(-10.0, 256)
        op = assemble_hamiltonian(Channel(0.5, 0.5), params, g)
        psi0 = gaussian_packet(g, -5.0, 0.6, components=(1.0, -0.5j, 0.25, 0.8))
        cfg = EvolutionConfig(dt=g.min_spacing / 2, t_final=40.0)
        for direction in Direction:
            assert evolve(op, psi0, cfg, direction).norm_drift <= 1e-14

    def test_zero_field_stays_zero(self):
        g = make_grid(-10.0, 64)
        op = free_operator(g)
        psi0 = SpinorField(g, np.zeros((4, g.n), dtype=complex))
        traj = evolve(op, psi0, EvolutionConfig(dt=0.05, t_final=1.0))
        assert traj.final.norm() == 0.0

    def test_backward_inverts_forward(self):
        g = make_grid(-10.0, 256)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        psi0 = gaussian_packet(g, -5.0, 0.5)
        cfg = EvolutionConfig(dt=g.min_spacing / 2, t_final=2.0)
        there = evolve(op, psi0, cfg)
        back = evolve(op, there.final, cfg, Direction.BACKWARD)
        assert g.norm(back.final.values - psi0.values) <= 1e-9

    def test_grid_mismatch_rejected(self):
        op = free_operator(make_grid(-10.0, 64))
        psi0 = gaussian_packet(make_grid(-10.0, 128), -5.0, 0.5)
        with pytest.raises(ConfigurationError):
            evolve(op, psi0, EvolutionConfig(dt=0.01, t_final=1.0))

    def test_snapshot_layout(self):
        g = make_grid(-10.0, 64)
        op = free_operator(g)
        psi0 = gaussian_packet(g, -5.0, 0.5)
        wanted = (0.2, 0.4, 0.6, 0.8, 1.0)
        traj = evolve(op, psi0, EvolutionConfig(dt=0.05, t_final=1.0, snapshot_times=wanted))
        assert traj.times == pytest.approx([0.0, *wanted])
        assert len(traj.fields) == len(traj.times) == 6
        # unset: the initial and the final state only
        final = evolve(op, psi0, EvolutionConfig(dt=0.05, t_final=1.0))
        assert final.times == pytest.approx([0.0, 1.0])
        assert np.array_equal(final.final.values, traj.final.values)

    def test_one_snapshot_per_requested_time(self):
        # 1 and 1.001 land on the same step: both get a snapshot, and the
        # final state closes the list only when no requested time is t_final
        g = make_grid(-10.0, 64)
        op = free_operator(g)
        psi0 = gaussian_packet(g, -5.0, 0.5)
        wanted = (1.0, 1.001, 2.0)
        traj = evolve(op, psi0, EvolutionConfig(dt=0.05, t_final=2.0, snapshot_times=wanted))
        assert traj.times == pytest.approx([0.0, 1.0, 1.0, 2.0])
        assert np.array_equal(traj.fields[1].values, traj.fields[2].values)
        longer = evolve(op, psi0, EvolutionConfig(dt=0.05, t_final=3.0, snapshot_times=wanted))
        assert longer.times == pytest.approx([0.0, 1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(longer.fields[3].values, traj.final.values)
        with pytest.raises(ConfigurationError):
            evolve(op, psi0, EvolutionConfig(dt=0.05, t_final=1.0, snapshot_times=wanted))


def _plus_matrix(s, dt, sgn=1.0):
    """M₊ = 𝟙 + i·sgn·dt/2·S, built here independently of the stepper."""
    eye = sp.identity(s.shape[0], dtype=complex, format="csc")
    return (eye + 0.5j * sgn * dt * s).tocsc()


class TestCayleyStep:
    @pytest.mark.parametrize("params", [P_MIT, P_NAT], ids=["mirror", "natural"])
    @pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.BACKWARD])
    def test_matches_two_matrix_cayley_form(self, params, direction):
        """20 steps of evolve against spsolve of (𝟙 + A)y' = (𝟙 − A)y with
        A = i·dt/2·S on y = √W·ψ, so the reference holds on any grid."""
        g = make_grid(-10.0, 256)
        op = assemble_hamiltonian(Channel(0.5, 0.5), params, g)
        psi0 = gaussian_packet(g, -5.0, 0.5, components=(1.0, -0.5j, 0.25, 0.8))
        dt = g.min_spacing / 2
        traj = evolve(op, psi0, EvolutionConfig(dt=dt, t_final=20 * dt), direction)
        assert traj.steps == 20
        sgn = 1.0 if direction == Direction.FORWARD else -1.0
        plus = _plus_matrix(scaled(op), traj.dt_effective, sgn)
        minus = _plus_matrix(scaled(op), traj.dt_effective, -sgn)
        root = sqrt_weights(g)
        y = root * psi0.values.flatten(order="F")
        for _ in range(20):
            y = spsolve(plus, minus @ y)
        got = root * traj.final.values.flatten(order="F")
        assert np.linalg.norm(got - y) <= 1e-12 * np.linalg.norm(y)

    def test_non_hermitian_generator_fails_the_drift_bound(self):
        """Negative control for unitarity (criterion 3, drift ≤ 1e-8): the
        same flow built on H + iεI, ε = 1e-3, grows the norm like e^{εt},
        so the drift check is not true by algebra."""
        g = make_grid(-32.0, 512)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        psi0 = gaussian_packet(g, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        cfg = EvolutionConfig(dt=0.5 * g.min_spacing, t_final=10.0)
        assert evolve(op, psi0, cfg).norm_drift <= 1e-8
        eye = sp.identity(op.matrix.shape[0], dtype=complex, format="csc")
        lossy = dataclasses.replace(op, matrix=(op.matrix + 1e-3j * eye).tocsc())
        drift = evolve(lossy, psi0, cfg).norm_drift
        assert drift > 1e-8
        assert drift == pytest.approx(np.expm1(1e-3 * 10.0), rel=1e-3)

    def test_perturbed_factor_is_refined_or_rejected(self):
        """Negative control for the per-step residual check: the factor of
        a perturbed M₊ on the block the state occupies needs the refinement
        round, and a large perturbation is rejected with its residual.  A
        perturbed factor of the empty block is never used."""
        g = make_grid(-10.0, 128)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        dt = g.min_spacing / 2
        packet = gaussian_packet(g, -5.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        v = to_sectors(packet)
        empty, occupied = op.sectors()
        assert not v[empty.rows].any() and v[occupied.rows].any()
        exact = CayleyStepper(op, dt).step(v)
        plus = _plus_matrix(occupied.matrix, dt)
        noise = sp.diags(np.random.default_rng(1).standard_normal(plus.shape[0]))

        unused = CayleyStepper(op, dt)
        unused._lu[0] = splu((plus + 1e-2 * noise).tocsc())
        assert np.array_equal(unused.step(v), exact)
        assert unused.refinements == 0

        small = CayleyStepper(op, dt)
        small._lu[1] = splu((plus + 1e-9 * noise).tocsc())
        out = small.step(v)
        assert small.refinements == 1
        assert 0.0 < small.max_residual <= dynamics.SOLVER_TOL
        assert np.linalg.norm(out - exact) <= 1e-12 * np.linalg.norm(v)

        large = CayleyStepper(op, dt)
        large._lu[1] = splu((plus + 1e-2 * noise).tocsc())
        with pytest.raises(NumericError) as err:
            large.step(v)
        diag = err.value.diagnostics
        assert diag["residual"] > dynamics.SOLVER_TOL * diag["rhs_norm"]
        assert diag["dt"] == dt

    def test_trajectory_records_solver_residuals(self, monkeypatch):
        g = make_grid(-10.0, 128)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        psi0 = gaussian_packet(g, -5.0, 0.5)
        cfg = EvolutionConfig(dt=g.min_spacing / 2, t_final=1.0)
        clean = evolve(op, psi0, cfg)
        assert clean.refinements == 0
        assert 0.0 < clean.max_residual <= dynamics.SOLVER_TOL
        # every factor perturbed: every step refines, and the count says so
        exact_splu = dynamics.splu

        def perturbed_splu(a):
            return exact_splu((a + 1e-9 * sp.identity(a.shape[0], format="csc")).tocsc())

        monkeypatch.setattr(dynamics, "splu", perturbed_splu)
        refined = evolve(op, psi0, cfg)
        assert refined.refinements == refined.steps
        assert 0.0 < refined.max_residual <= dynamics.SOLVER_TOL
        assert g.norm(refined.final.values - clean.final.values) <= 1e-12


class TestChebyshev:
    @pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.BACKWARD])
    def test_agrees_with_expm_multiply(self, direction):
        """e^{∓itH}ψ = W^{−1/2}e^{∓itS}W^{1/2}ψ against scipy's
        truncated-Taylor action of the exponential (Al-Mohy & Higham) on an
        interacting bag-regime operator."""
        g = make_grid(-12.0, 96)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        psi0 = gaussian_packet(g, -5.0, 0.6, components=(1.0, -0.5j, 0.25, 0.8))
        times = (0.5, 1.5, 4.0)
        run = chebyshev_propagate(op, psi0, times, direction)
        sgn = -1j if direction == Direction.FORWARD else 1j
        root = sqrt_weights(g)
        for t, field in zip(times, run.fields):
            ref = expm_multiply(sgn * t * scaled(op), root * psi0.values.flatten(order="F")) / root
            diff = field.values - ref.reshape((4, g.n), order="F")
            assert g.norm(diff) <= 1e-10 * psi0.norm()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(16, 96),
        mass=st.sampled_from([0.25, 0.45, 1.0]),
        t=st.floats(0.01, 6.0),
        seed=st.integers(0, 2**16),
    )
    def test_unitary_and_invertible(self, n, mass, t, seed):
        g = make_grid(-8.0, n)
        op = assemble_hamiltonian(Channel(0.5, 0.5), make_params(1.0, 1.0, mass), g)
        rng = np.random.default_rng(seed)
        psi0 = SpinorField(g, rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n)))
        there = chebyshev_propagate(op, psi0, (t,))
        back = chebyshev_propagate(op, there.fields[0], (t,), Direction.BACKWARD)
        assert there.norm_drift <= 1e-12 and back.norm_drift <= 1e-12
        assert g.norm(back.fields[0].values - psi0.values) <= 1e-12 * psi0.norm()

    def test_stops_at_the_first_small_bessel_order(self):
        """The default (1, 0, 0, 0) packet occupies both sectors, and both
        blocks share R, so the run takes K − 1 products with each."""
        g = make_grid(-8.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        run = chebyshev_propagate(op, gaussian_packet(g, -4.0, 0.5), (2.0,))
        z = 2.0 * run.bound
        k = np.arange(int(z) + 200)
        first = k[(k > z) & (np.abs(jv(k, z)) < 1e-17)][0]
        # terms T_0 … T_{K−1}: one matvec for each past T_0, in each block
        assert run.matvecs == 2 * (first - 1)
        plus, minus = dense_blocks(op)
        rows = [np.max(np.abs(b).sum(axis=1)) for b in (plus, minus)]
        assert rows[0] == pytest.approx(rows[1], rel=1e-15)
        assert run.bound == pytest.approx(max(rows), rel=1e-15)

    @pytest.mark.parametrize("z", [0.0, 0.3, 160.0, 3840.0, 7876.0, 15384.0])
    def test_bessel_orders_are_evaluated_once(self, monkeypatch, z):
        """The series holds J_k(z) for k < K bit for bit, and no order is
        evaluated twice or beyond z + 12·z^{1/3} + 32: K − z is 62, 174,
        220 and 273 at the four large z."""
        k = np.arange(int(z) + 400)
        full = jv(k, z)
        first = k[(k > z) & (np.abs(full) < 1e-17)][0]
        evaluated = []
        monkeypatch.setattr(
            dynamics, "jv", lambda orders, x: evaluated.extend(orders) or jv(orders, x)
        )
        j = dynamics._bessel_terms(z)
        assert np.array_equal(j, full[:first])
        assert evaluated == list(range(len(evaluated)))
        assert first <= len(evaluated) <= int(z) + int(12.0 * np.cbrt(z)) + 33

    def test_expands_the_operator_as_assembled(self):
        """Negative control for an expansion on the Hermitian part: with a
        real 1e-2 entry from component 0 of node 28 to component 2 of node
        29, and its γ³γ⁵ partner, S is not Hermitian, and over t = 1.5 the
        run must follow e^{−itS}, not e^{−itS̄} with S̄ = (S + S†)/2, which
        lies 2.9e-4 away.  The packet's norm moves by 2e-11 only, so the
        drift guard lets the run through (the same entry from component 0
        to component 0 moves it by 1.4e-7).  The spectral solvers, which
        need S Hermitian, refuse the operator."""
        g = make_grid(-8.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        broken = paired(op, 4 * 28, 4 * 29 + 2, 1e-2)
        assert broken.hermiticity_defect() == 1e-2
        psi0 = gaussian_packet(g, -4.0, 0.5)
        run = chebyshev_propagate(broken, psi0, (1.5,))
        s, root = dense_scaled(broken)
        y = root * psi0.values.flatten(order="F")
        got = root * run.fields[0].values.flatten(order="F")
        exact = sla.expm(-1.5j * s) @ y
        averaged = sla.expm(-1.5j * (s + s.conj().T) / 2.0) @ y
        assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(y)
        assert np.linalg.norm(got - averaged) >= 1e-4 * np.linalg.norm(y)
        with pytest.raises(ConfigurationError, match="need a Hermitian S"):
            level_count(broken, (0.0,))
        with pytest.raises(ConfigurationError, match="need a Hermitian S"):
            eigendecompose(broken, (0.5, 1.5))

    def test_snapshots_chain(self):
        g = make_grid(-8.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        psi0 = gaussian_packet(g, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        chained = chebyshev_propagate(op, psi0, (0.0, 0.7, 0.7, 2.0))
        assert np.array_equal(chained.fields[0].values, psi0.values)
        assert np.array_equal(chained.fields[1].values, chained.fields[2].values)
        direct = chebyshev_propagate(op, psi0, (2.0,))
        assert g.norm(chained.fields[-1].values - direct.fields[0].values) <= 1e-12
        for bad in ((), (-1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ConfigurationError):
                chebyshev_propagate(op, psi0, bad)

    def test_bound_below_gershgorin_raises(self, monkeypatch):
        """Negative control for the drift guard: the free operator's
        spectral radius is its Gershgorin bound 1/h, so with R 1 % below it
        the truncated series grows like T_K(1.01) on the top levels, and the
        run raises instead of returning a state.  R is computed once per
        operator, so the low bound goes into a fresh one."""
        g = make_grid(-8.0, 256)
        rng = np.random.default_rng(3)
        psi0 = SpinorField(g, rng.normal(size=(4, g.n)) + 0j)
        assert chebyshev_propagate(free_operator(g), psi0, (10.0,)).norm_drift <= 1e-12
        exact = channel._gershgorin_bound
        monkeypatch.setattr(channel, "_gershgorin_bound", lambda s: 0.99 * exact(s))
        op = free_operator(g)
        assert max(b.bound for b in op.sectors()) == pytest.approx(0.99 / g.min_spacing)
        with pytest.raises(NumericError, match="unitarity") as err:
            chebyshev_propagate(op, psi0, (10.0,))
        assert not err.value.diagnostics["norm_drift"] <= dynamics.DRIFT_LIMIT
        assert err.value.diagnostics["hermiticity_defect"] == 0.0

    def test_drift_names_the_hermiticity_defect(self):
        """Negative control for the other cause of drift: a real 1e-2 entry
        from component 0 of node 28 to component 0 of node 29, with its
        γ³γ⁵ partner (in G, one entry per block), leaves R a true bound, but
        e^{−itS} itself moves the packet's norm by 1.4e-7 over t = 1.5.  The
        run raises, and its diagnostics carry the defect beside R."""
        g = make_grid(-8.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        broken = paired(op, 4 * 28, 4 * 29, 1e-2)
        half = 2 * g.n
        for block in (slice(0, half), slice(half, None)):
            assert (broken.matrix - op.matrix)[block, block].nnz == 1
        psi0 = gaussian_packet(g, -4.0, 0.5)
        with pytest.raises(NumericError, match="not Hermitian") as err:
            chebyshev_propagate(broken, psi0, (1.5,))
        diagnostics = err.value.diagnostics
        assert diagnostics["hermiticity_defect"] == 1e-2
        assert diagnostics["bound"] == max(b.bound for b in broken.sectors())
        assert diagnostics["norm_drift"] == pytest.approx(1.4e-7, rel=0.1)


class TestSectors:
    """Both propagators work in sector coordinates, block by block.  Dense
    references of the whole state catch a split that dropped an entry,
    a block read other than as assembled, or a skipped sector the state
    occupies."""

    G = make_grid(-8.0, 64)
    TIMES = (0.5, 1.5, 3.0)

    def operator(self, broken):
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, self.G)
        # a real 1e-4 entry from component 0 to component 0 of the next
        # node, with its γ³γ⁵ partner, under the packet's centre: S is not
        # Hermitian, e^{−itS} lies 8.6e-6 or more from e^{−itS̄} with
        # S̄ = (S + S†)/2, and the state's norm stays within 1e-10
        j = 32
        return paired(op, 4 * j, 4 * j + 4, 1e-4) if broken else op

    @pytest.mark.parametrize("broken", [False, True], ids=["split", "paired"])
    @pytest.mark.parametrize(
        "components", [(1.0, 0.0, 0.0, 1.0), (1.0, -0.5j, 0.25, 0.8)],
        ids=["one-sector", "two-sector"],
    )
    def test_propagators_match_dense_references(self, broken, components):
        op = self.operator(broken)
        assert len(op.sectors()) == 2
        psi0 = gaussian_packet(self.G, -4.0, 0.5, components=components)
        root = sqrt_weights(self.G)
        flat = root * psi0.values.flatten(order="F")  # y = √W·ψ, on which S acts

        cfg = EvolutionConfig(dt=self.G.min_spacing / 2, t_final=3.0, snapshot_times=self.TIMES)
        traj = evolve(op, psi0, cfg)
        s = dense_scaled(op)[0]
        a = 0.5j * traj.dt_effective * s
        eye = np.eye(a.shape[0])
        factor = sla.lu_factor(eye + a)
        y, done = flat, 0
        for t, field in zip(traj.times[1:], traj.fields[1:]):
            for _ in range(int(round(t / traj.dt_effective)) - done):
                y = sla.lu_solve(factor, (eye - a) @ y)
            done = int(round(t / traj.dt_effective))
            got = root * field.values.flatten(order="F")
            assert np.linalg.norm(got - y) <= 1e-12 * np.linalg.norm(y)

        run = chebyshev_propagate(op, psi0, self.TIMES)
        for t, field in zip(self.TIMES, run.fields):
            ref = sla.expm(-1j * t * s) @ flat
            got = root * field.values.flatten(order="F")
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_one_sector_packet_keeps_its_symmetry_bit_for_bit(self):
        """A (1, 0, 0, 1) packet lies in the γ³γ⁵ = −1 sector: ψ₁ = ψ₄ and
        ψ₂ = −ψ₃ at every snapshot of both propagators, to the last bit."""
        op = self.operator(False)
        psi0 = gaussian_packet(self.G, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        cfg = EvolutionConfig(dt=self.G.min_spacing / 2, t_final=3.0, snapshot_times=self.TIMES)
        fields = evolve(op, psi0, cfg).fields[1:] + chebyshev_propagate(op, psi0, self.TIMES).fields
        for field in fields:
            v = field.values
            assert np.array_equal(v[0], v[3]) and np.array_equal(v[1], -v[2])
            assert np.any(v[1])  # the angular coupling has filled ψ₂ and ψ₃


class TestFreeOracle:
    def test_sampling_left_of_the_grid_raises(self):
        # a right-mover 1 from the artificial wall, run forward for t = 2,
        # would read its data from x − 2 < x_min: mass made up from the end
        # node (norm 1.025 with the old clamp) instead of an error
        g = make_grid(-16.0, 320)
        psi = gaussian_packet(g, -15.0, 0.5, components=(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(NumericError, match="x_min") as err:
            free_propagate(psi, 2.0, Direction.FORWARD)
        assert err.value.diagnostics["mass_outside"] > 1e-12
        # away from the wall the same flow stays silent and unitary
        inside = gaussian_packet(g, -8.0, 0.5, components=(1.0, 0.0, 0.0, 0.0))
        assert free_propagate(inside, 2.0, Direction.FORWARD).norm() == pytest.approx(1.0)

    def test_worked_reflection_example(self):
        # (0, g, 0, 0) with g on (−3, −2), backward flow for t = 4:
        # everything lands in component 4 as g(−x−4), supported in (−2, −1).
        g = make_grid(-10.0, 2000)
        vals = np.zeros((4, g.n), dtype=complex)
        vals[1] = bump(g.nodes, -2.5, 0.08)
        psi = SpinorField(g, vals)
        out = free_propagate(psi, 4.0, Direction.BACKWARD)
        expected = bump(-g.nodes - 4.0, -2.5, 0.08)
        assert g.norm(np.vstack([out.values[:3], out.values[3] - expected])) <= 1e-10
        inside = (g.nodes >= -2.0) & (g.nodes <= -1.0)
        mass_in = g.norm(np.where(inside, out.values, 0.0)) ** 2
        assert mass_in == pytest.approx(out.norm() ** 2, rel=1e-6)

    def test_group_property(self):
        g = make_grid(-10.0, 2000)
        psi = gaussian_packet(g, -4.0, 0.4, components=(1.0, 0.5, -0.25j, 0.3))
        two_hops = free_propagate(
            free_propagate(psi, 1.7, Direction.FORWARD), 2.3, Direction.FORWARD
        )
        one_hop = free_propagate(psi, 4.0, Direction.FORWARD)
        assert g.norm(two_hops.values - one_hop.values) <= 1e-8

    def test_norm_preserved(self):
        g = make_grid(-10.0, 2000)
        psi = gaussian_packet(g, -4.0, 0.4, components=(1.0, 0.0, 0.5, 0.0))
        out = free_propagate(psi, 3.2, Direction.FORWARD)
        assert out.norm() == pytest.approx(1.0, abs=1e-6)

    def test_pair_masses_conserved(self):
        # the masses of the reflection-coupled pairs (1, 3) and (2, 4)
        g = make_grid(-10.0, 2000)
        psi = gaussian_packet(g, -4.0, 0.4, components=(1.0, 0.5j, -0.2, 0.1))
        out = free_propagate(psi, 2.6, Direction.FORWARD)
        for pair in ([0, 2], [1, 3]):
            before, after = (
                np.sum(g.weights * np.abs(f.values[pair]) ** 2) for f in (psi, out)
            )
            assert after == pytest.approx(before, abs=1e-8)

    def test_evolve_matches_oracle_second_order(self):
        errs = []
        for n in (512, 1024, 2048):
            g = make_grid(-8.0, n)
            op = free_operator(g)
            psi0 = gaussian_packet(g, -3.0, 0.5)
            traj = evolve(op, psi0, EvolutionConfig(dt=4.0 / n, t_final=5.0))
            exact = free_propagate(psi0, 5.0, Direction.FORWARD)
            errs.append(g.norm(traj.final.values - exact.values))
        orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
        assert errs[-1] <= 1e-3
        assert np.all(orders >= 1.8)

    def test_backward_evolve_matches_oracle(self):
        g = make_grid(-8.0, 1024)
        op = free_operator(g)
        psi0 = gaussian_packet(g, -3.0, 0.5, components=(0.0, 1.0, 0.0, 0.0))
        traj = evolve(op, psi0, EvolutionConfig(dt=4.0 / 1024, t_final=3.0), Direction.BACKWARD)
        exact = free_propagate(psi0, 3.0, Direction.BACKWARD)
        assert g.norm(traj.final.values - exact.values) <= 2e-3


def cubic_spline_free_flow(psi: SpinorField, t: float) -> np.ndarray:
    """The forward closed form of ``free_propagate``, written out again and
    sampled through ``scipy.interpolate.CubicSpline``: the reference the
    package's own not-a-knot spline is held to."""
    x = psi.grid.nodes
    splines = [CubicSpline(x, v) for v in psi.values]
    out = np.empty_like(psi.values)
    # (sample points, reflected partner, sign) of ψ₁ … ψ₄ for τ = −t
    for c, (args, partner, sign) in enumerate(
        [(x - t, 2, -1.0), (x + t, 3, 1.0), (x + t, 0, -1.0), (x - t, 1, 1.0)]
    ):
        direct = args < 0.0
        out[c, direct] = splines[c](np.clip(args[direct], x[0], x[-1]))
        out[c, ~direct] = sign * splines[partner](np.clip(-args[~direct], x[0], x[-1]))
    return out


class TestNotAKnotSpline:
    """``dynamics._not_a_knot`` against scipy's CubicSpline, whose default
    boundary condition it reproduces."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(16, 300),
        graded=st.booleans(),
        ratio=st.floats(1e-4, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_cubic_spline(self, n, graded, ratio, seed):
        rng = np.random.default_rng(seed)
        # geometrically graded nodes (spacings from ratio·h to h) or uniform
        x = -np.geomspace(10.0, 10.0 * ratio, n) if graded else np.linspace(-10.0, 0.0, n)
        y = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        coef = dynamics._not_a_knot(x, y)
        points = np.concatenate(
            (x, 0.5 * (x[1:] + x[:-1]), rng.uniform(x[0], x[-1], 64))
        )
        for c in range(4):
            got = dynamics._spline_at(x, coef[..., c], points)
            ref = CubicSpline(x, y[:, c])(points)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(got[: n - 1], y[:-1, c])

    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_free_oracle_is_the_cubic_spline_flow_bit_for_bit(self, n):
        # criterion 4's grids and time, with every component filled
        g = make_grid(-8.0, n)
        psi = gaussian_packet(g, -3.0, 0.5, components=(1.0, 0.5j, -0.25, 1.0))
        out = free_propagate(psi, 5.0, Direction.FORWARD).values
        assert np.array_equal(out, cubic_spline_free_flow(psi, 5.0))


class TestPropagationSpeed:
    def test_light_cone_containment(self):
        # support [a, b] = [−6.5, −5.5]; after t the mass outside the
        # fattened cone [a − 1.1t, b + 1.1t] stays ≤ 1e−6 of the total.
        g = make_grid(-16.0, 1024)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        psi0 = gaussian_packet(g, -6.0, 0.12, components=(1.0, 0.0, -1.0, 0.5))
        # truncate the tails so the support claim is honest
        vals = psi0.values.copy()
        vals[:, (g.nodes < -6.5) | (g.nodes > -5.5)] = 0.0
        psi0 = SpinorField(g, vals)
        t = 3.0
        traj = evolve(op, psi0, EvolutionConfig(dt=g.min_spacing / 2, t_final=t))
        lo, hi = -6.5 - 1.1 * t, min(0.0, -5.5 + 1.1 * t)
        cone = (g.nodes >= lo) & (g.nodes <= hi)
        inside = g.norm(np.where(cone, traj.final.values, 0.0)) ** 2
        total = traj.final.norm() ** 2
        assert (total - inside) / total <= 1e-6


class TestBoundaryTrace:
    def test_free_solution_wall_coupling(self):
        # right-moving bump arrives at the wall at t = 2.5: the wall values,
        # extrapolated linearly from the last two nodes, obey
        # φ₁(0) = −φ₃(0) mid-reflection.
        g = make_grid(-10.0, 4000)
        vals = np.zeros((4, g.n), dtype=complex)
        vals[0] = bump(g.nodes, -2.5, 0.2)
        out = free_propagate(SpinorField(g, vals), 2.5, Direction.FORWARD).values
        x = g.nodes
        at_wall = out[:, -1] - (out[:, -1] - out[:, -2]) / (x[-1] - x[-2]) * x[-1]
        assert abs(at_wall[0] + at_wall[2]) <= 1e-4
        assert abs(at_wall[0]) > 0.5  # the bump really is at the wall


#: where ``dynamics._flush_to_zero`` knows the floating-point environment
ON_X86_64_LINUX = sys.platform == "linux" and os.uname().machine == "x86_64"
TINY = np.finfo(float).tiny


def fenv_words():
    """The floating-point environment as libm's fegetenv reads it: glibc's
    x86-64 fenv_t, MXCSR its last 32-bit word."""
    get, _ = dynamics._fenv_calls()
    env = dynamics._FenvT()
    assert get(env) == 0
    return list(env)


def fenv_controls():
    """The control part of the environment: the x87 control word and MXCSR
    without its sticky status flags (bits 0–5), which any inexact product
    between two reads may set."""
    words = fenv_words()
    return words[0] & 0xFFFF, words[7] & ~0x3F


def subnormals(values):
    """The count of real and imaginary parts in the subnormal range."""
    parts = np.ascontiguousarray(values).view(float)
    return int(np.count_nonzero((parts != 0.0) & (np.abs(parts) < TINY)))


def underflowing_product():
    """1e−300·1e−10: the subnormal 1e−310 in IEEE mode, 0 with FTZ."""
    return float((np.array([1e-300]) * 1e-10)[0])


@pytest.mark.skipif(not ON_X86_64_LINUX, reason="the fenv_t layout is glibc's x86-64 one")
class TestFlushToZero:
    def test_sets_the_bits_and_gives_back_the_environment(self):
        before = fenv_words()
        with dynamics._flush_to_zero():
            inside = fenv_words()
            flushed = underflowing_product()
        assert fenv_words() == before
        assert inside[7] & 0x8040 == 0x8040
        assert flushed == 0.0
        assert 0.0 < underflowing_product() < TINY
        assert dynamics.flushes_subnormals()

    def test_exception_inside_gives_back_the_environment(self):
        before = fenv_words()
        with pytest.raises(KeyError):
            with dynamics._flush_to_zero():
                raise KeyError
        assert fenv_words() == before

    def test_propagators_give_back_the_environment(self):
        g = make_grid(-16.0, 128)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        psi0 = gaussian_packet(g, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        before = fenv_controls()
        evolve(op, psi0, EvolutionConfig(dt=g.min_spacing / 2, t_final=1.0))
        assert fenv_controls() == before
        chebyshev_propagate(op, psi0, (1.0, 2.0))
        assert fenv_controls() == before
        assert 0.0 < underflowing_product() < TINY

    def test_raising_chebyshev_run_gives_back_the_environment(self):
        """The drift control of ``test_drift_names_the_hermiticity_defect``
        raises inside the series loop."""
        g = make_grid(-8.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        broken = paired(op, 4 * 28, 4 * 29, 1e-2)
        before = fenv_controls()
        with pytest.raises(NumericError, match="not Hermitian"):
            chebyshev_propagate(broken, gaussian_packet(g, -4.0, 0.5), (1.5,))
        assert fenv_controls() == before
        assert 0.0 < underflowing_product() < TINY

    def test_raising_evolve_gives_back_the_environment(self, monkeypatch):
        """A factor of M₊ + 1e−2·𝟙 fails the residual check on the first step."""
        g = make_grid(-10.0, 128)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        exact_splu = dynamics.splu
        monkeypatch.setattr(
            dynamics, "splu",
            lambda a: exact_splu((a + 1e-2 * sp.identity(a.shape[0], format="csc")).tocsc()),
        )
        before = fenv_controls()
        with pytest.raises(NumericError, match="did not converge"):
            evolve(op, gaussian_packet(g, -5.0, 0.5),
                   EvolutionConfig(dt=g.min_spacing / 2, t_final=1.0))
        assert fenv_controls() == before
        assert 0.0 < underflowing_product() < TINY


def test_flush_manager_off_x86_64_linux_is_a_no_op(monkeypatch):
    """Off x86-64 Linux the manager changes nothing: subnormal arithmetic
    inside it is IEEE's.  On x86-64 Linux the other platform is pretended."""
    monkeypatch.setattr(dynamics, "_FLUSH_PLATFORM", False)
    dynamics._fenv_calls.cache_clear()
    try:
        assert dynamics._fenv_calls() is None
        assert not dynamics.flushes_subnormals()
        with dynamics._flush_to_zero():
            assert 0.0 < underflowing_product() < TINY
    finally:
        dynamics._fenv_calls.cache_clear()


class TestFlushEquivalence:
    """The flush moves no number that matters: with ``_flush_to_zero``
    replaced by a no-op, the same runs in IEEE mode give the same counters
    and drifts, and states whose real and imaginary parts agree bit for bit
    wherever the part is ≥ 1e−100 in modulus and within 1e−150 elsewhere.
    The check goes part by part because an entry can pair a real part near
    1e−100 with a subnormal imaginary part, which the flush zeroes."""

    TIMES = (0.5, 1.0, 2.0, 4.0)

    def runs(self, mass, centre, width):
        """(flushed, IEEE) pairs of the Cayley and the Chebyshev run of a
        packet on [−32, 0], n = 512, to the snapshot times ``TIMES``."""
        g = make_grid(-32.0, 512)
        op = assemble_hamiltonian(Channel(0.5, 0.5), make_params(1.0, 1.0, mass), g)
        psi0 = gaussian_packet(g, centre, width, components=(1.0, 0.0, 0.0, 1.0))
        cfg = EvolutionConfig(dt=0.5 * g.min_spacing, t_final=self.TIMES[-1],
                              snapshot_times=self.TIMES)

        def both():
            return evolve(op, psi0, cfg), chebyshev_propagate(op, psi0, self.TIMES)

        flushed = both()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dynamics, "_flush_to_zero", contextlib.nullcontext)
            ieee = both()
        return flushed, ieee

    def assert_same(self, flushed, ieee):
        (traj, prop), (traj_ieee, prop_ieee) = flushed, ieee
        assert traj.norm_drift == traj_ieee.norm_drift
        assert traj.max_residual == traj_ieee.max_residual
        assert traj.refinements == traj_ieee.refinements
        assert prop.matvecs == prop_ieee.matvecs
        assert prop.norm_drift == prop_ieee.norm_drift
        pairs = list(zip(traj.fields, traj_ieee.fields)) + list(zip(prop.fields, prop_ieee.fields))
        for field, field_ieee in pairs:
            for a, b in ((field.values.real, field_ieee.values.real),
                         (field.values.imag, field_ieee.values.imag)):
                large = np.abs(b) >= 1e-100
                assert np.array_equal(a[large], b[large])
                assert np.all(np.abs(a - b)[~large] <= 1e-150)

    def test_the_check_sees_the_last_bit_of_a_part(self):
        """Zeroing a subnormal part passes the check; moving either part of
        an entry by one ulp where that part is ≥ 1e−100 fails it."""

        def run(values):
            fields = [types.SimpleNamespace(values=values)]
            traj = types.SimpleNamespace(norm_drift=0.0, max_residual=0.0, refinements=0,
                                         fields=fields)
            return traj, types.SimpleNamespace(matvecs=0, norm_drift=0.0, fields=fields)

        ieee = np.array([1e-100 + 1.24e-308j, 3e-120 + 2e-90j, 0.5 - 0.25j])
        flushed = ieee.copy()
        flushed[0] = 1e-100
        self.assert_same(run(flushed), run(ieee))
        for index, part in ((0, "real"), (1, "imag"), (2, "real"), (2, "imag")):
            moved = ieee.copy()
            view = getattr(moved, part)
            view[index] = np.nextafter(view[index], np.inf)
            with pytest.raises(AssertionError):
                self.assert_same(run(moved), run(ieee))

    def test_underflowing_tails_move_no_number_that_matters(self):
        """In IEEE mode the packet's underflowing tails hold subnormal
        parts: 138 in the Cayley snapshot at t = 0.5, 50 at t = 1, and
        12–54 in each Chebyshev snapshot.  Flushed, no snapshot holds one."""
        flushed, ieee = self.runs(1.0, -4.0, 0.5)
        traj_ieee, prop_ieee = ieee
        assert subnormals(traj_ieee.fields[1].values) > 100
        assert subnormals(traj_ieee.fields[2].values) > 20
        assert all(subnormals(f.values) > 10 for f in prop_ieee.fields)
        if dynamics.flushes_subnormals():
            traj, prop = flushed
            assert not any(subnormals(f.values) for f in traj.fields[1:] + prop.fields)
        self.assert_same(flushed, ieee)

    @settings(max_examples=12, deadline=None)
    @given(
        mass=st.floats(0.1, 1.5),
        centre=st.floats(-8.0, -2.0),
        width=st.floats(0.2, 1.0),
    )
    @example(mass=0.5, centre=-4.0, width=0.75)
    def test_flush_moves_no_number_that_matters(self, mass, centre, width):
        self.assert_same(*self.runs(mass, centre, width))
