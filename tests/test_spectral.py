"""Spectral experiments: eigensolver contract, Mourre positivity window,
propagation-matrix convergence (no point spectrum), and wall-exponent fits."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from conftest import (
    SECTOR_ROWS,
    apply,
    dense_blocks,
    dense_decomposition,
    dense_levels,
    dense_scaled,
    drop_nearest_level,
    paired,
    perturbed,
)
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag, expm

import adsdirac.channel as channel
import adsdirac.spectral as spectral
from adsdirac.algebra import ANGULAR, MASS, VELOCITY, Channel
from adsdirac.channel import (
    BoundaryCondition,
    ConfigurationError,
    assemble_hamiltonian,
    free_operator,
    to_sectors,
)
from adsdirac.dynamics import NumericError
from adsdirac.geometry import CoordinateMap, inverse_memo, make_params
from adsdirac.grids import BoundaryGraded, SpinorField, gaussian_packet, make_grid
from adsdirac.spectral import (
    boundary_exponent_fit,
    eigendecompose,
    level_count,
    mourre_check,
    no_eigenvalue_test,
)

CHANNEL = Channel(0.5, 0.5)


def zero_potentials(x):
    return np.zeros_like(x), np.zeros_like(x)


@pytest.fixture(scope="module")
def free_decomposition():
    """Dense eigenpairs of Γ¹D_x on (−16, 0), N = 320: the oracle, shared,
    the solve is the expensive part."""
    return dense_decomposition(free_operator(make_grid(-16.0, 320)))


@pytest.fixture(scope="module")
def sads_decomposition():
    """Dense eigenpairs of the interacting operator on the Mourre geometry
    (m = 1, x_min = −32, N = 640)."""
    op = _sads_operator(640)
    return op, dense_decomposition(op)


@pytest.fixture(scope="module")
def sads_320():
    op = _sads_operator(320)
    return op, dense_decomposition(op)


WINDOW = (0.5, 1.5)
#: the cuts of the ``spectrum`` experiment's counts, ±1, ±2, ±4, ±8
CUTS = (-8.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0)


def _sads_operator(n, m=1.0, x_min=-32.0):
    return assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, m), make_grid(x_min, n))


def _in_window(op, window):
    lo, hi = level_count(op, window)
    return int(hi - lo)


def hand_in(monkeypatch, dec):
    """Make ``mourre_check`` read the pairs of ``dec`` in its window in
    place of its window solve."""

    def window_of(op, window):
        sel = (dec.eigenvalues >= window[0]) & (dec.eigenvalues <= window[1])
        return dataclasses.replace(
            dec, eigenvalues=dec.eigenvalues[sel], vectors=dec.vectors[:, sel]
        )

    monkeypatch.setattr(spectral, "eigendecompose", window_of)


class TestEigendecompose:
    """The windowed solve's contract, on its own."""

    @pytest.fixture(scope="class")
    def free_window(self):
        op = free_operator(make_grid(-16.0, 320))
        return op, eigendecompose(op, WINDOW)

    def test_free_contract(self, free_window):
        op, dec = free_window
        assert dec.eigenvalues.size == _in_window(op, WINDOW) >= 10
        assert dec.requested > dec.eigenvalues.size
        assert dec.max_residual <= 1e-10 * np.max(np.abs(dec.eigenvalues))
        assert dec.orthonormality_defect <= 1e-10

    def test_free_spectrum_chirally_symmetric(self, free_window):
        """Γ¹D_x anticommutes with the mass matrix, so λ ↦ −λ is exact: the
        mirrored window holds the negated levels, and the counts below −σ
        and below σ add up to the dimension."""
        op, dec = free_window
        lam = dec.eigenvalues
        mirrored = eigendecompose(op, (-WINDOW[1], -WINDOW[0])).eigenvalues
        assert np.max(np.abs(lam + mirrored[::-1])) <= 1e-12 * np.max(np.abs(lam))
        below = level_count(op, CUTS)
        assert np.array_equal(below + below[::-1], np.full(len(CUTS), 4 * op.grid.n))

    @pytest.mark.parametrize("k_cut", [4.0, 8.0])
    def test_free_counting_function(self, k_cut):
        """Integrated density of states ≈ 8KL/π: two transport systems,
        each unfolded across the reflecting wall."""
        predicted = 8.0 * k_cut * 16.0 / np.pi
        counted = _in_window(free_operator(make_grid(-16.0, 320)), (-k_cut, k_cut))
        assert counted == pytest.approx(predicted, rel=0.10)

    def test_free_counting_doubles(self):
        op = free_operator(make_grid(-16.0, 320))
        c4, c8 = _in_window(op, (-4.0, 4.0)), _in_window(op, (-8.0, 8.0))
        assert c8 / c4 == pytest.approx(2.0, rel=0.05)

    def test_interacting_contract_in_bag_regime(self):
        op = _sads_operator(320, m=0.25, x_min=-16.0)
        dec = eigendecompose(op, WINDOW)
        assert dec.eigenvalues.size == _in_window(op, WINDOW) >= 10
        assert dec.max_residual <= 1e-10 * np.max(np.abs(dec.eigenvalues))
        assert dec.orthonormality_defect <= 1e-10

    def test_eigenfield_is_an_eigenvector(self, free_window):
        _, dec = free_window
        k = dec.eigenvalues.size // 3
        field = SpinorField(dec.grid, dec.vectors[:, k].reshape((4, dec.grid.n), order="F"))
        op = free_operator(field.grid)
        resid = apply(op, field.values) - dec.eigenvalues[k] * field.values
        assert field.grid.norm(resid) <= 1e-10 * max(abs(dec.eigenvalues[k]), 1.0)


class TestLevelCount:
    """Inertia counts against the dense oracle's eigenvalues."""

    @pytest.fixture(params=["free-320", "sads-320", "sads-640", "bag-320", "graded-511"])
    def oracle(self, request, free_decomposition, sads_320, sads_decomposition):
        """(operator, every level sorted) per case."""
        name = request.param
        if name == "free-320":
            return free_operator(make_grid(-16.0, 320)), free_decomposition.eigenvalues
        if name in ("sads-320", "sads-640"):
            op, dense = sads_320 if name == "sads-320" else sads_decomposition
            return op, dense.eigenvalues
        op = _graded_operator(0.25, 1e-3) if name == "graded-511" else _sads_operator(
            320, m=0.25, x_min=-16.0
        )
        return op, dense_levels(op)

    def test_matches_dense_oracle(self, oracle):
        op, levels = oracle
        expected = [int(np.sum(levels < s)) for s in CUTS]
        assert level_count(op, CUTS).tolist() == expected

    @pytest.fixture(scope="class")
    def sads_64(self):
        op = _sads_operator(64)
        return op, dense_levels(op)

    @settings(max_examples=40, deadline=None)
    @given(sigmas=st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=6))
    @example(sigmas=[-1.0, 1.0])  # the left wall closure's levels at h = 1/2
    def test_rises_with_sigma_and_matches_oracle(self, sads_64, sigmas):
        op, levels = sads_64
        sigmas = np.sort(sigmas)
        counts = level_count(op, sigmas)
        assert np.all(np.diff(counts) >= 0)
        assert counts.tolist() == [int(np.sum(levels < s)) for s in sigmas]

    @pytest.mark.parametrize("m", [1.0, 0.25])
    def test_singular_first_pivot_is_merged(self, m):
        """σ = ±1/(2h) = ±2 are levels of the first node block (the left
        wall closure), so the first pivot is singular; the sweep must take
        it together with the second node and still count exactly.  Without
        the merge both regimes count 2 too many at σ = −2, 0.03 away from
        the nearest level."""
        op = _sads_operator(64, m=m, x_min=-16.0)
        sigmas = (-2.0, 2.0)
        first = np.linalg.eigvalsh(dense_scaled(op)[0][:4, :4])
        assert np.min(np.abs(first - sigmas[0])) <= 1e-12
        levels = dense_levels(op)
        assert level_count(op, sigmas).tolist() == [int(np.sum(levels < s)) for s in sigmas]

    def test_non_finite_pivot_raises(self):
        """A NaN potential at one node must not be counted past or clamped."""
        grid = make_grid(-16.0, 64)
        bad = grid.nodes[20]
        op = assemble_hamiltonian(
            CHANNEL, None, grid, lambda x: (np.where(x == bad, np.nan, 0.0), np.zeros_like(x))
        )
        with pytest.raises(NumericError, match="non-finite pivot"):
            level_count(op, (0.5, 1.5))


class TestWindowedEigendecompose:
    """Shift-invert Lanczos on a window against the dense oracle."""

    @pytest.fixture(params=["free-320", "sads-320", "sads-640"])
    def oracle(self, request, free_decomposition, sads_320, sads_decomposition):
        if request.param == "free-320":
            return free_operator(make_grid(-16.0, 320)), free_decomposition
        return sads_320 if request.param == "sads-320" else sads_decomposition

    def test_agrees_with_dense_oracle(self, oracle, monkeypatch):
        """Same levels, same quotient.  The free levels are doubly degenerate
        (two decoupled transport systems), so a Lanczos solve that kept one
        copy of a pair would miss the dense count."""
        op, dense = oracle
        win = eigendecompose(op, WINDOW)
        inside = dense.eigenvalues[
            (dense.eigenvalues >= WINDOW[0]) & (dense.eigenvalues <= WINDOW[1])
        ]
        assert win.eigenvalues.size == inside.size >= 10
        assert np.max(np.abs(win.eigenvalues - inside)) <= 1e-12 * np.max(np.abs(inside))
        assert win.requested < 4 * op.grid.n
        assert win.max_residual <= 1e-10 * np.max(np.abs(inside))
        assert win.orthonormality_defect <= 1e-10
        by_window = mourre_check(op, WINDOW)
        hand_in(monkeypatch, dense)
        by_dense = mourre_check(op, WINDOW)
        assert by_window.n_states == by_dense.n_states
        assert by_window.min_quotient == pytest.approx(by_dense.min_quotient, abs=1e-12)
        assert by_window.eta == pytest.approx(by_dense.eta, abs=1e-12)

    def test_window_beyond_the_spectrum(self, monkeypatch):
        """No level in the window: no pairs, and ARPACK is never called."""
        monkeypatch.setattr(spla, "eigsh", None)
        op = _sads_operator(64)
        dec = eigendecompose(op, (1e3, 1e3 + 1.0))
        assert dec.eigenvalues.size == 0
        assert dec.vectors.shape == (4 * 64, 0)
        assert dec.requested == 0
        with pytest.raises(ConfigurationError, match="need ≥ 10"):
            mourre_check(op, (1e3, 1e3 + 1.0))

    def test_window_too_wide_for_lanczos_rejected(self):
        op = _sads_operator(64)
        edge = 2.0 * float(np.max(np.abs(dense_levels(op))))
        with pytest.raises(ConfigurationError, match=f"holds {4 * 64} of {4 * 64} levels"):
            eigendecompose(op, (-edge, edge))

    def test_dropped_level_is_rejected(self, monkeypatch):
        """Negative control for the count check: a solve that loses the
        level nearest its shift returns one level fewer than inertia counts
        in the window, and the decomposition must name both numbers."""
        op = _sads_operator(320)
        count = _in_window(op, WINDOW)
        drop_nearest_level(monkeypatch)
        with pytest.raises(NumericError, match=f"found {count - 1} levels.*counts {count}"):
            eigendecompose(op, WINDOW)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            eigendecompose(_sads_operator(64), (1.5, 0.5))

    @pytest.mark.parametrize("x_min,n", [(-32.0, 320), (-16.0, 64)])
    def test_window_centred_on_a_level_rejected(self, x_min, n):
        """The free operator has four levels at 0 to rounding, so the shift
        σ = 0 of the window (−1, 1) is a level: a ConfigurationError naming
        σ and the levels there, not a failed factorization or a miscount."""
        op = free_operator(make_grid(x_min, n))
        with pytest.raises(ConfigurationError, match="centred on a level: 4 levels.*σ = 0"):
            eigendecompose(op, (-1.0, 1.0))

    def test_one_inertia_sweep_per_mourre_check(self, monkeypatch):
        """The ten-level test reads the window's pairs, which the solve has
        matched against its own inertia count: one sweep per window."""
        sweeps = []
        count = spectral._block_counts
        monkeypatch.setattr(
            spectral, "_block_counts",
            lambda op, sigmas: sweeps.append(sigmas) or count(op, sigmas),
        )
        op = _sads_operator(320)
        assert mourre_check(op, WINDOW).n_states >= 10
        assert len(sweeps) == 1
        with pytest.raises(ConfigurationError, match="holds only .* levels; need ≥ 10"):
            mourre_check(op, (0.97, 1.03))
        assert len(sweeps) == 2

    def test_mourre_above_the_dense_cap(self):
        """Dimension 32768, twice the size the dense solve was once capped
        at: the inertia sweep is O(n) and the window solve only ever touches
        the levels near [0.5, 1.5]."""
        op = _sads_operator(8192)
        rep = mourre_check(op, WINDOW)
        assert rep.n_states >= 30
        assert rep.requested < 4 * 8192
        assert rep.max_residual <= 1e-10 * WINDOW[1]
        assert rep.orthonormality_defect <= 1e-10
        assert rep.min_quotient >= 1.0 - spectral.MOURRE_EPS


class TestSectorBlocks:
    """The sweep and the window solve read the γ³γ⁵ sector blocks of S."""

    @seed(1818)
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "graded", "free", "perturbed"]),
        x_min=st.floats(-16.0, -4.0),
        n=st.integers(16, 64),
        mass=st.floats(0.0, 2.0),
        sigmas=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4),
    )
    def test_each_block_counts_its_dense_levels(self, kind, x_min, n, mass, sigmas):
        """Uniform and graded grids in both regimes (2ml < 1 below m = 1/2,
        the graded one with the exponent wall row), the free generator and
        a control with a Hermitian pair and its γ³γ⁵ partners: each
        block's count is the dense count of that block's levels, and
        ``level_count`` the dense count of H's.  A σ within 1e-6 of a level
        is dropped: the count there is a rounding choice, not an answer."""
        if kind == "graded":
            g = make_grid(x_min, policy=BoundaryGraded(h_min=1e-2, ratio=1.08))
        else:
            g = make_grid(x_min, n)
        if kind == "free":
            op = free_operator(g)
        else:
            op = assemble_hamiltonian(CHANNEL, make_params(1.0, 1.0, mass), g)
        if kind == "perturbed":
            j = 4 * (g.n // 2)
            op = paired(paired(op, j, j + 4, 1e-2), j + 4, j, 1e-2)
        s = dense_scaled(op)[0]
        levels = np.linalg.eigvalsh(s)
        sigmas = [x for x in sigmas if np.min(np.abs(levels - x)) > 1e-6]
        assume(sigmas)
        plus, minus = dense_blocks(op)
        per_block = [np.linalg.eigvalsh(b) for b in (plus, minus)]
        expected = [[int(np.sum(x < s)) for s in sigmas] for x in per_block]
        assert spectral._block_counts(op, sigmas).tolist() == expected
        assert level_count(op, sigmas).tolist() == [int(np.sum(levels < s)) for s in sigmas]

    @pytest.mark.parametrize("mass", [1.0, 0.45])
    def test_window_solve_returns_each_level_once_per_sector(self, mass):
        """Each sector block holds 20 of the 40 levels of [0.5, 1.5]; the
        solve returns each block's levels once, each pair in its own sector,
        as the dense blocks give them, from one request of 20 + 8 per
        block."""
        op = _sads_operator(320, m=mass)
        dec = eigendecompose(op, WINDOW)
        plus, minus = dense_blocks(op)
        inside = []
        for block in (plus, minus):
            x = np.linalg.eigvalsh(block)
            inside.append(x[(x >= WINDOW[0]) & (x <= WINDOW[1])])
        assert [x.size for x in inside] == [20, 20]
        assert dec.requested == 2 * (20 + 8)
        v = np.column_stack([
            to_sectors(SpinorField(op.grid, column.reshape((4, -1), order="F")))
            for column in dec.vectors.T
        ])
        half = 2 * op.grid.n
        weight = np.linalg.norm(v[:half], axis=0), np.linalg.norm(v[half:], axis=0)
        in_plus = weight[0] > weight[1]
        assert np.max(np.minimum(*weight)) <= 1e-12
        for lam, expected in ((dec.eigenvalues[in_plus], inside[0]),
                              (dec.eigenvalues[~in_plus], inside[1])):
            assert np.max(np.abs(lam - expected)) <= 1e-12 * WINDOW[1]
        assert dec.max_residual <= 1e-10 * WINDOW[1]
        assert dec.orthonormality_defect <= 1e-10

    @pytest.mark.parametrize("split", [False, True])
    def test_entry_two_nodes_apart_is_refused(self, split):
        """The sweep reads the blocks of neighbouring nodes only, so a
        Hermitian entry between nodes j and j + 2 must raise, not count as
        zero: the same entry on every component, which keeps the split.
        Without its γ³γ⁵ partner the entry crosses the sectors, and the
        split refuses it first."""
        op = _sads_operator(64)
        j = 4 * 20
        for a in range(4) if split else (0,):
            op = perturbed(perturbed(op, j + a, j + 8 + a, 0.5), j + 8 + a, j + a, 0.5)
        match = "couples nodes 2 apart" if split else "cross the sectors"
        with pytest.raises(ConfigurationError, match=match):
            level_count(op, (-1.0, 1.0))
        with pytest.raises(ConfigurationError, match=match):
            eigendecompose(op, WINDOW)


class TestMourre:
    """Localized commutator positivity: ⟨ψ, i[H, 𝒜]ψ⟩ ≥ (1 − ε)‖ψ‖² − ‖Kψ‖
    on spectral windows, with 𝒜 = Γ¹·x."""

    def test_free_quotient_is_exactly_one(self, free_decomposition, monkeypatch):
        op = free_operator(make_grid(-16.0, 320))
        hand_in(monkeypatch, free_decomposition)
        rep = mourre_check(op, (0.5, 1.5))
        # i[Γ¹D, Γ¹x] = 𝟙 identically: the localized quotient is the Gram matrix
        assert rep.min_quotient == pytest.approx(1.0, abs=1e-9)
        assert rep.eta <= 1e-9
        assert rep.min_quotient >= 1.0 - spectral.MOURRE_EPS

    def test_interacting_window_passes(self, sads_decomposition, monkeypatch):
        op, dec = sads_decomposition
        hand_in(monkeypatch, dec)
        rep = mourre_check(op, (0.5, 1.5))
        assert rep.n_states >= 30
        assert rep.min_quotient >= 1.0 - spectral.MOURRE_EPS

    def test_compact_correction_shrinks_on_nested_windows(
        self, sads_decomposition, monkeypatch
    ):
        """η = ‖P_I(C − 𝟙)P_I‖ decays as the window tightens around λ = 1,
        the fingerprint of a compact remainder."""
        op, dec = sads_decomposition
        hand_in(monkeypatch, dec)
        etas = [mourre_check(op, iv).eta for iv in ((0.5, 1.5), (0.7, 1.3), (0.85, 1.15))]
        assert etas[0] > etas[1] > etas[2]
        assert etas[2] <= 0.1

    def test_under_resolved_window_rejected(self, sads_decomposition, monkeypatch):
        op, dec = sads_decomposition
        hand_in(monkeypatch, dec)
        with pytest.raises(ConfigurationError):
            mourre_check(op, (0.97, 1.03))

    def test_empty_interval_rejected(self, sads_decomposition, monkeypatch):
        op, dec = sads_decomposition
        hand_in(monkeypatch, dec)
        with pytest.raises(ConfigurationError):
            mourre_check(op, (1.5, 0.5))

    def test_refinement_study_verdict(self):
        # what the harness's window, fine_window and refinement lines read
        p = make_params(1.0, 1.0, 1.0)
        coarse, fine = (
            mourre_check(assemble_hamiltonian(CHANNEL, p, make_grid(-16.0, n)), (0.5, 1.5))
            for n in (320, 400)
        )
        assert abs(fine.min_quotient - coarse.min_quotient) <= 0.05
        for rep in (coarse, fine):
            assert rep.min_quotient >= 1.0 - spectral.MOURRE_EPS

    def test_angular_well_fails(self):
        """Negative control: a Gaussian well of depth 40 added to A drives
        the localized commutator negative on the window.  η is large here
        too, so a check that credited η would pass this operator."""
        params = make_params(1.0, 1.0, 1.0)
        cm = CoordinateMap(params)

        def well(x):
            return cm.angular_factor_of_x(x) + 40.0 * np.exp(-((x + 3.0) ** 2)), cm.sqrtF_of_x(x)

        coarse, fine = (
            assemble_hamiltonian(CHANNEL, params, make_grid(-32.0, n), well) for n in (320, 640)
        )
        for rep in (mourre_check(op, (0.5, 1.5)) for op in (coarse, fine)):
            assert rep.min_quotient < 0.0
            assert rep.min_quotient >= (1.0 - spectral.MOURRE_EPS) - rep.eta


def _adaptive_propagation(lam, params, depth, x0=-1.0):
    """Reference Φ(−X → x₀): the eigenfunction ODE w′ = W(x)w by adaptive
    DOP853 at rtol 1e-12, one potential evaluation per right-hand side."""
    cm = CoordinateMap(params)
    g01 = -np.diag(VELOCITY)

    def rhs(x, y):
        a, b = cm._potentials_of_x(x)
        v = CHANNEL.coupling * a * ANGULAR - params.m * b * MASS
        e = np.exp(1j * lam * g01 * x)
        w = 1j * g01[:, None] * (e[:, None] * v * np.conj(e)[None, :])
        return (w @ y.reshape(4, 4)).ravel()

    sol = solve_ivp(
        rhs, (-depth, x0), np.eye(4, dtype=complex).ravel(),
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    assert sol.success
    return sol.y[:, -1].reshape(4, 4)


def _components(blocks):
    """A propagation matrix from its two sector blocks to the component
    basis: PᵀΦ_sP/2, Φ_s block-diagonal."""
    return SECTOR_ROWS.T @ block_diag(*blocks) @ SECTOR_ROWS / 2.0


def _two_by_two(kind, entries):
    """One 2×2 matrix of ``kind`` from four complex entries, scaled to
    ‖Ω‖₂ ≤ 1 if larger: a general Ω; a traceless one; μ𝟙 plus a 1e−9
    traceless part (q near 0); a traceless anti-Hermitian one (q
    imaginary); a nilpotent one, uvᵀ with vᵀu = 0 (q = 0)."""
    omega = np.array(entries).reshape(2, 2)
    traceless = omega - 0.5 * np.trace(omega) * np.eye(2)
    if kind == "traceless":
        omega = traceless
    elif kind == "near":
        omega = omega[0, 0] * np.eye(2) + 1e-9 * traceless
    elif kind == "imaginary":
        omega = 0.5 * (traceless - traceless.conj().T)
    elif kind == "nilpotent":
        u = omega[0]
        omega = np.outer(u, [u[1], -u[0]])
    return omega / max(1.0, np.linalg.norm(omega, 2))


class TestNoEigenvalue:
    def test_zero_potential_propagation_is_identity(self):
        phi, phi_deep, _, _ = spectral._magnus_sweep(1.0, CHANNEL, None, 20.0, zero_potentials)
        assert phi.shape == phi_deep.shape == (2, 2, 2)  # (sector, 2, 2)
        assert max(np.max(np.abs(f - np.eye(2))) for f in (phi, phi_deep)) <= 1e-12
        rep = no_eigenvalue_test(1.0, CHANNEL, None, 20.0, zero_potentials)
        assert rep.depth_difference <= 1e-12
        assert rep.condition == pytest.approx(1.0, abs=1e-10)
        assert rep.integral_tail == 0.0
        assert rep.invertible_limit

    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
    def test_interacting_limit_invertible(self, lam):
        """Φ(−X → x₀) is Cauchy in X and stays well-conditioned: every
        solution of Hψ = λψ has a nonzero plane-wave part at the horizon,
        so none is ℓ² there — the point spectrum is empty."""
        rep = no_eigenvalue_test(lam, CHANNEL, params=make_params(1.0, 1.0, 1.0), depth=20.0)
        assert rep.depth_difference <= 1e-8
        assert rep.condition <= 1e3
        assert rep.invertible_limit

    @pytest.mark.parametrize("lam, mass", [(-2.0, 1.0), (1.0, 0.25), (8.0, 0.45)])
    def test_agrees_with_adaptive_reference(self, lam, mass):
        """The Magnus sweep against an adaptive integrator of the same ODE
        in the component basis: Φ, mapped from its sector blocks, within
        1e-9 and cond Φ within 1e-8 relative, also at λ = 8, where the
        step shrinks."""
        p = make_params(1.0, 1.0, mass)
        phi = _components(spectral._magnus_sweep(lam, CHANNEL, p, 20.0)[0])
        rep = no_eigenvalue_test(lam, CHANNEL, params=p, depth=20.0)
        ref = _adaptive_propagation(lam, p, 20.0)
        assert np.max(np.abs(phi - ref)) <= 1e-9
        assert rep.condition == pytest.approx(np.linalg.cond(ref, 2), rel=1e-8)

    def test_kink_holds_a_bound_state(self):
        """Negative control (Jackiw & Rebbi 1976): an angular term
        2·tanh(x + 10) does not decay toward the horizon, the gap it opens
        holds a bound state, and Φ(−X → x₀) has no limit as X grows."""
        def kink(x):
            return 2.0 * np.tanh(x + 10.0), np.zeros_like(x)

        rep = no_eigenvalue_test(0.0, CHANNEL, None, 20.0, kink)
        assert rep.depth_difference > 1e10
        assert not rep.invertible_limit

    def test_step_halving_stability(self, monkeypatch):
        """Halving the Magnus step moves Φ by at most 1e-9, also at λ = 8,
        where the step shrinks with |λ| to follow the phases e^{±2iλx}.  At
        λ = 8 an unscaled step h = 0.01 misses the bound (by 1.5e-8)."""
        p = make_params(1.0, 1.0, 1.0)

        def halving_gap(lam, step):
            monkeypatch.setattr(spectral, "_STEP", step)
            phi_coarse, _, coarse_steps, _ = spectral._magnus_sweep(lam, CHANNEL, p, 20.0)
            monkeypatch.setattr(spectral, "_STEP", step / 2.0)
            phi_fine, _, fine_steps, _ = spectral._magnus_sweep(lam, CHANNEL, p, 20.0)
            assert fine_steps > coarse_steps
            return np.max(np.abs(_components(phi_fine) - _components(phi_coarse)))

        step = spectral._STEP
        assert halving_gap(1.0, step) <= 1e-9
        assert halving_gap(8.0, step) <= 1e-9
        assert halving_gap(8.0, 4.0 * step) > 1e-9

    def test_one_vectorized_inverse_per_sweep(self, monkeypatch):
        """The probe and the sweep each take their points from one
        vectorized coordinate inverse, the sweep's holding every Gauss
        point, so the number of inverse solves does not grow with the depth.
        The memo is cleared before each depth, so that no depth reads the
        points another sweep solved.  The black-hole pair and the same
        potentials passed as two separate evaluators give the same
        propagation matrix, bit for bit."""
        p = make_params(1.0, 1.0, 1.0)
        cm = CoordinateMap(p)
        phi_two, _, _, tail_two = spectral._magnus_sweep(
            0.5, CHANNEL, p, 8.0, lambda x: (cm.angular_factor_of_x(x), cm.sqrtF_of_x(x))
        )
        sizes = []
        solve = CoordinateMap._log_gap

        def counted_solve(self, x):
            sizes.append(np.size(x))
            return solve(self, x)

        monkeypatch.setattr(CoordinateMap, "_log_gap", counted_solve)
        for depth in (8.0, 20.0, 40.0):
            sizes.clear()
            inverse_memo.cache_clear()
            rep = no_eigenvalue_test(0.5, CHANNEL, params=p, depth=depth)
            assert len(sizes) == 2
            assert sizes[-1] == 2 * rep.steps
        phi_one, _, _, tail_one = spectral._magnus_sweep(0.5, CHANNEL, p, 8.0)
        assert np.array_equal(phi_one, phi_two)
        assert tail_one == tail_two

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(-8.0, 8.0), mass=st.sampled_from([0.25, 0.45, 1.0]))
    def test_current_conserved(self, lam, mass):
        """W†Γ¹ + Γ¹W = 0, so the flow keeps Φ†Γ¹Φ = Γ¹; each Magnus step is
        the exponential of an element of that algebra, so the sweep keeps
        it to rounding."""
        rep = no_eigenvalue_test(lam, CHANNEL, params=make_params(1.0, 1.0, mass), depth=20.0)
        assert rep.current_defect <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["general", "traceless", "near", "imaginary", "nilpotent"]),
                st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4),
            ),
            min_size=1, max_size=6,
        )
    )
    @example([("nilpotent", [0.0, 0.0, 0.0, 0.0])])
    @example([("nilpotent", [1.0, 0.0, 0.0, 0.0])])
    def test_closed_form_exponential(self, drawn):
        """The closed-form 2×2 exponential of a (sector, 2, 2, n) stack
        against scipy's expm, within 1e-13 relative for ‖Ω‖₂ ≤ 1, over
        general, traceless, near-degenerate (q ≈ 0), imaginary-q and
        nilpotent Ω; the sweep's steps have ‖Ω‖ of a few 1e−2."""
        omegas = np.array([_two_by_two(kind, entries) for kind, entries in drawn])
        stack = np.stack([omegas, -omegas]).transpose(0, 2, 3, 1)  # (sector, 2, 2, n)
        flows = spectral._exp2x2(stack)
        for sector, sign in enumerate((1.0, -1.0)):
            for k, omega in enumerate(omegas):
                ref = expm(sign * omega)
                error = np.linalg.norm(flows[sector, :, :, k] - ref, 2)
                assert error <= 1e-13 * np.linalg.norm(ref, 2)

    def test_needs_params_or_potentials(self):
        with pytest.raises(ConfigurationError, match="need params or potentials"):
            no_eigenvalue_test(1.0, CHANNEL, None, 20.0)

    def test_depth_must_exceed_matching_point(self):
        with pytest.raises(ConfigurationError):
            no_eigenvalue_test(1.0, CHANNEL, None, 0.5, zero_potentials)


def _graded_operator(m, h_min):
    params = make_params(1.0, 1.0, m)
    grid = make_grid(-24.0, policy=BoundaryGraded(h_min=h_min, ratio=1.1, h_max=0.05))
    return assemble_hamiltonian(CHANNEL, params, grid)


class TestBoundaryFit:
    def test_natural_regime_slope(self):
        rep = boundary_exponent_fit(_graded_operator(1.0, 1e-3))
        assert rep.fitted
        assert rep.target == 0.5
        assert rep.slope >= 0.45

    def test_bag_regime_slope(self):
        """2ml = 1/2: the resolvent picks up the admissible (−x)^{−ml}
        part, so the tail fit lands near −1/4."""
        rep = boundary_exponent_fit(_graded_operator(0.25, 1e-3))
        assert rep.fitted
        assert rep.slope == pytest.approx(-0.25, abs=0.05)

    def test_log_borderline_reported_not_thresholded(self):
        rep = boundary_exponent_fit(_graded_operator(0.5, 1e-3))
        assert rep.fitted
        assert rep.target is None
        # √(−x)·log(−x) behavior: the pure-power fit sits near 1/2
        assert 0.4 <= rep.slope <= 0.6

    @pytest.mark.parametrize("m, target", [(0.25, -0.25), (1.0, 0.5)])
    def test_grading_refinement_approaches_target(self, m, target):
        gaps = []
        for h_min in (1e-2, 1e-3, 1e-4):
            rep = boundary_exponent_fit(_graded_operator(m, h_min))
            gaps.append(abs(rep.slope - target))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_wrong_regime_closure_fails(self, monkeypatch):
        """Negative control: the bag-regime potentials (m = 0.25) closed by
        the natural wall instead, on criterion 10's graded grid, through a
        broken wall rule.  The fit lands on the wrong side of zero, about
        0.5 from the regime's target −ml = −1/4, so the judgement
        |slope − target| ≤ 0.05 must fail."""
        monkeypatch.setattr(channel, "select_bc", lambda p: BoundaryCondition.NATURAL)
        params = make_params(1.0, 1.0, 0.25)
        grid = make_grid(-24.0, policy=BoundaryGraded(1e-3, 1.1, 0.05))
        op = assemble_hamiltonian(CHANNEL, params, grid)
        assert op.bc is BoundaryCondition.NATURAL
        rep = boundary_exponent_fit(op)
        assert rep.fitted
        assert rep.target == -0.25
        assert rep.slope > 0.0
        assert not abs(rep.slope - rep.target) <= 0.05

    def test_wall_row_activation(self):
        graded = _graded_operator(0.25, 1e-3)
        uniform = assemble_hamiltonian(
            CHANNEL, make_params(1.0, 1.0, 0.25), make_grid(-24.0, 512)
        )
        assert graded.wall_exponent == pytest.approx(0.25)
        assert uniform.wall_exponent is None

    def test_compact_solution_rejected(self):
        """Manufactured f = (H − z)u₀ with u₀ supported in the bulk: the
        solve returns u₀ itself and the wall window is empty of signal."""
        op = _graded_operator(0.25, 1e-3)
        u0 = gaussian_packet(op.grid, center=-12.0, width=0.8, components=(1, 0, 1, 0))
        z = 2j
        f_vals = apply(op, u0.values) - z * u0.values
        rep = boundary_exponent_fit(op, f=SpinorField(op.grid, f_vals))
        assert not rep.fitted
        assert rep.reason == "no boundary tail"
