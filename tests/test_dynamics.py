"""Unitary evolution against the closed-form comparison flow, plus
propagation-speed and wall-coupling behavior."""
import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import dense_sector_blocks, dense_symmetric, perturbed
from hypothesis import given, settings
from hypothesis import strategies as st
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


def _plus_matrix(h, dt, sgn=1.0):
    """M₊ = 𝟙 + i·sgn·dt/2·H, built here independently of the stepper."""
    eye = sp.identity(h.shape[0], dtype=complex, format="csc")
    return (eye + 0.5j * sgn * dt * h).tocsc()


class TestCayleyStep:
    @pytest.mark.parametrize("params", [P_MIT, P_NAT], ids=["mirror", "natural"])
    @pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.BACKWARD])
    def test_matches_two_matrix_cayley_form(self, params, direction):
        """20 steps of evolve against spsolve of (𝟙 + A)ψ' = (𝟙 − A)ψ."""
        g = make_grid(-10.0, 256)
        op = assemble_hamiltonian(Channel(0.5, 0.5), params, g)
        psi0 = gaussian_packet(g, -5.0, 0.5, components=(1.0, -0.5j, 0.25, 0.8))
        dt = g.min_spacing / 2
        traj = evolve(op, psi0, EvolutionConfig(dt=dt, t_final=20 * dt), direction)
        assert traj.steps == 20
        sgn = 1.0 if direction == Direction.FORWARD else -1.0
        plus = _plus_matrix(op.matrix, traj.dt_effective, sgn)
        minus = _plus_matrix(op.matrix, traj.dt_effective, -sgn)
        psi = psi0.values.flatten(order="F")
        for _ in range(20):
            psi = spsolve(plus, minus @ psi)
        got = traj.final.values.flatten(order="F")
        assert np.linalg.norm(got - psi) <= 1e-12 * np.linalg.norm(psi)

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
        v = to_sectors(packet.values.flatten(order="F"))
        empty, occupied = op.sectors()
        assert not v[empty.rows].any() and v[occupied.rows].any()
        exact = CayleyStepper(op, dt).step(v)
        plus = _plus_matrix(occupied.hamiltonian, dt)
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
        """e^{∓itH}ψ against scipy's truncated-Taylor action of the
        exponential (Al-Mohy & Higham) on an interacting bag-regime operator."""
        g = make_grid(-12.0, 96)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        psi0 = gaussian_packet(g, -5.0, 0.6, components=(1.0, -0.5j, 0.25, 0.8))
        times = (0.5, 1.5, 4.0)
        run = chebyshev_propagate(op, psi0, times, direction)
        sgn = -1j if direction == Direction.FORWARD else 1j
        for t, field in zip(times, run.fields):
            ref = expm_multiply(sgn * t * op.matrix, psi0.values.flatten(order="F"))
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
        plus, minus, _ = dense_sector_blocks(dense_symmetric(op)[0])
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

    def test_records_the_asymmetry_it_averages_away(self):
        """The run symmetrizes H; a 1e-7 defect in one entry of H shows in
        its record as the operator's hermiticity defect."""
        g = make_grid(-8.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
        psi0 = gaussian_packet(g, -4.0, 0.5)
        run = chebyshev_propagate(op, psi0, (0.5,))
        assert run.asymmetry == op.hermiticity_defect() <= 1e-12
        broken = perturbed(op, 100, 104, 1e-7)
        run = chebyshev_propagate(broken, psi0, (0.5,))
        assert run.asymmetry == broken.hermiticity_defect() >= 1e-7

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


class TestSectors:
    """Both propagators work in sector coordinates, block by block.  Dense
    references of the whole state catch a split that dropped an entry
    across the sectors or skipped a sector the state occupies."""

    G = make_grid(-8.0, 64)
    TIMES = (0.5, 1.5, 3.0)

    def operator(self, broken):
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, self.G)
        # an entry with no γ³γ⁵ partner, at the node under the packet's
        # centre: the operator is one block
        j = 32
        return perturbed(op, 4 * j, 4 * j + 4, 1e-2) if broken else op

    @pytest.mark.parametrize("broken", [False, True], ids=["split", "one-block"])
    @pytest.mark.parametrize(
        "components", [(1.0, 0.0, 0.0, 1.0), (1.0, -0.5j, 0.25, 0.8)],
        ids=["one-sector", "two-sector"],
    )
    def test_propagators_match_dense_references(self, broken, components):
        op = self.operator(broken)
        assert len(op.sectors()) == (1 if broken else 2)
        psi0 = gaussian_packet(self.G, -4.0, 0.5, components=components)
        flat = psi0.values.flatten(order="F")

        cfg = EvolutionConfig(dt=self.G.min_spacing / 2, t_final=3.0, snapshot_times=self.TIMES)
        traj = evolve(op, psi0, cfg)
        a = 0.5j * traj.dt_effective * op.matrix.toarray()
        eye = np.eye(a.shape[0])
        factor = sla.lu_factor(eye + a)
        psi, done = flat, 0
        for t, field in zip(traj.times[1:], traj.fields[1:]):
            for _ in range(int(round(t / traj.dt_effective)) - done):
                psi = sla.lu_solve(factor, (eye - a) @ psi)
            done = int(round(t / traj.dt_effective))
            got = field.values.flatten(order="F")
            assert np.linalg.norm(got - psi) <= 1e-12 * np.linalg.norm(psi)

        sym, root = dense_symmetric(op)
        run = chebyshev_propagate(op, psi0, self.TIMES)
        for t, field in zip(self.TIMES, run.fields):
            ref = sla.expm(-1j * t * sym) @ (root * flat)
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
