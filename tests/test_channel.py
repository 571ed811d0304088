"""Channel Hamiltonians: potentials, envelopes, boundary closures,
self-adjointness, and the conjugate-operator commutator against its
brute-force oracle."""
import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    SECTOR_ROWS,
    apply,
    dense_scaled,
    paired,
    perturbed,
    scaled,
    sector_transform,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adsdirac.channel as channel
from adsdirac.algebra import ANGULAR, Channel, GAMMA, GAMMA5, MASS, VELOCITY
from adsdirac.dynamics import EvolutionConfig, chebyshev_propagate, evolve
from adsdirac.channel import (
    BoundaryCondition,
    ConfigurationError,
    assemble_hamiltonian,
    commutator_closed_form,
    free_operator,
    from_sectors,
    mit_reflection,
    select_bc,
    to_sectors,
)
from adsdirac.geometry import CoordinateMap, inverse_memo, make_params
from adsdirac.grids import BoundaryGraded, SpinorField, gaussian_packet, make_grid
from adsdirac import harness
from adsdirac.harness import ExperimentConfig, _run_evolve, parse_config_dict
from adsdirac.spectral import eigendecompose, level_count

P_MIT = make_params(1.0, 1.0, 0.25)  # 2ml = 1/2 — bag-type wall
P_NAT = make_params(1.0, 1.0, 1.0)  # 2ml = 2   — no boundary data
#: the black-hole potentials of P_MIT, A = √F/r and B = √F
CM = CoordinateMap(P_MIT)


def zero_potentials(x):
    return np.zeros_like(x), np.zeros_like(x)


def black_hole_map(params):
    """The black-hole pair of ``params`` as a map passed by the caller."""
    cm = CoordinateMap(params)
    return lambda x: (cm.angular_factor_of_x(x), cm.sqrtF_of_x(x))


def reference_pair(l):
    """The comparison pair (A₀, B₀): the exact wall asymptotics 1/l and
    l/(−x), switched off for x ≤ −1.5.  The horizon samples below lie past
    −6, so there A − A₀ = A and B − B₀ = B."""
    on = lambda x: np.asarray(x, dtype=float) > -1.5
    return lambda x: on(x) / l, lambda x: on(x) * l / (-np.asarray(x, dtype=float))


def conjugate_apply(values, grid):
    """𝒜 = Γ¹·x: component k at node x_j scaled by Γ¹_kk·x_j."""
    signs = np.diag(VELOCITY)
    return values * signs[:, None] * grid.nodes[None, :]


def commutator_brute_force(op, values):
    """i(H(𝒜ψ) − 𝒜(Hψ)) through the assembled matrix: the oracle for
    ``commutator_closed_form``."""
    return 1j * (
        apply(op, conjugate_apply(values, op.grid))
        - conjugate_apply(apply(op, values), op.grid)
    )


def reference_block_matrix(grid, coupling, m, a_vals, b_vals, left, right, symmetric):
    """The dense-block construction the assembly replaced, kept as its
    bit-for-bit oracle: a (3n − 2, 4, 4) table of the ±1 and diagonal node
    blocks, scanned for nonzeros and sorted from COO into CSC.  The ±1
    blocks of node j are ∓i/(2w_j)·Γ¹, those of H, or with ``symmetric``
    those of S, ∓i/(2√(w_j w_{j±1}))·Γ¹ with each edge's coefficient formed
    once."""
    n, w = grid.n, grid.weights
    velocity, angular = VELOCITY.astype(complex), ANGULAR.astype(complex)
    coef = (-1j / (2.0 * w))[:, None, None]
    above, below = coef[:-1], coef[1:]
    if symmetric:
        above = below = (-1j / (2.0 * np.sqrt(w[:-1] * w[1:])))[:, None, None]
    diag = (coupling * a_vals)[:, None, None] * angular - (m * b_vals)[:, None, None] * MASS
    diag[0] += left
    diag[-1] += right
    blocks = np.concatenate([above * velocity, diag, -below * velocity])
    j = np.arange(n)
    row_node = np.concatenate([j[:-1], j, j[1:]])
    col_node = np.concatenate([j[1:], j, j[:-1]])
    k, a, c = np.nonzero(blocks)
    return sp.csc_matrix(
        sp.coo_matrix(
            (blocks[k, a, c], (4 * row_node[k] + a, 4 * col_node[k] + c)),
            shape=(4 * n, 4 * n),
            dtype=complex,
        )
    )


def unscaled(s, w):
    """W^{−1/2} S W^{1/2} of a CSC matrix S, entry (i, j) times √(w_j/w_i),
    with w the weight of each coordinate's node."""
    col = np.repeat(np.arange(s.shape[1]), np.diff(s.indptr))
    return sp.csc_matrix((s.data * np.sqrt(w[col] / w[s.indices]), s.indices, s.indptr), s.shape)


def sector_weights(weights):
    """The weight of each sector coordinate's node: rows 2j + a and
    2(n + j) + a sit at node j."""
    return np.tile(np.repeat(weights, 2), 2)


def transformed(m, n):
    """PMPᵀ/2 of a node-major CSC matrix M, P = ``sector_transform(n)``, as
    the split before direct assembly formed it: CSC, exact zeros dropped."""
    p = sector_transform(n)
    g = (p @ m @ p.T * 0.5).tocsc()
    g.eliminate_zeros()
    return g


def same_bits(a, b):
    """Equal CSC arrays, the data compared as raw bits (signed zeros count)."""
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
    )


class TestPotentials:
    def test_wall_limits_unit_l(self):
        assert CM.angular_factor_of_x(-1e-4) == pytest.approx(1.0, abs=1e-7)
        assert 1e-4 * CM.sqrtF_of_x(-1e-4) == pytest.approx(1.0, abs=1e-7)

    def test_horizon_decay_rate(self):
        # A(−30)/A(−29) ≈ e^{−κ} with κ = 2 for M = l = 1
        ratio = CM.angular_factor_of_x(-30.0) / CM.angular_factor_of_x(-29.0)
        assert ratio == pytest.approx(np.exp(-2.0), rel=0.05)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            CM.angular_factor_of_x(0.5)

    def test_one_inverse_for_every_channel_and_mass(self):
        """Twelve operators on one grid (four channels × three masses) share
        one coordinate inverse, and each holds the potentials of a fresh
        solve to the last bit."""
        inverse_memo.cache_clear()
        grid = make_grid(-32.0, 1024)
        ops = [
            assemble_hamiltonian(Channel(s, 0.5), make_params(1.0, 1.0, m), grid)
            for s in (0.5, 1.5, 2.5, 3.5) for m in (0.25, 0.45, 1.0)
        ]
        info = inverse_memo.cache_info()
        assert info.misses == 1 and info.hits == 2 * len(ops) - 1
        _, a, b = inverse_memo.__wrapped__(1.0, 1.0, grid.nodes.shape, grid.nodes.tobytes())
        for op in ops:
            assert np.array_equal(op.a_values.view(np.int64), a.view(np.int64))
            assert np.array_equal(op.b_values.view(np.int64), b.view(np.int64))

    def test_zero_pair(self):
        """The free generator: zero potentials, no params, and the bag wall
        at x = 0 with the plain mirror."""
        op = free_operator(make_grid(-10.0, 64))
        assert np.all(op.a_values == 0.0) and np.all(op.b_values == 0.0)
        assert op.params is None and op.mass == 0.0
        assert op.bc is BoundaryCondition.MIT and op.wall_exponent is None


class TestCutoffAndEnvelopes:
    def test_envelope_report(self):
        a0, b0 = reference_pair(P_MIT.l)
        # horizon side: log-slopes deep in the horizon region fit the
        # exponential rate κ
        w = max(6.0, 24.0 / P_MIT.kappa)
        xs = np.linspace(-w, -w / 2.0, 25)
        for f, f0 in ((CM.angular_factor_of_x, a0), (CM.sqrtF_of_x, b0)):
            rate = np.polyfit(xs, np.log(np.abs(f(xs) - f0(xs))), 1)[0]
            assert rate >= 0.95 * P_MIT.kappa
        # boundary envelopes with their analytic leading constants,
        # 1/(2l³) and 1/(6l)
        xb = -np.geomspace(1e-4, 1e-1, 16)
        quad_sup = np.max(np.abs(CM.angular_factor_of_x(xb) - a0(xb)) / xb**2)
        lin_sup = np.max(np.abs(CM.sqrtF_of_x(xb) - b0(xb)) / (-xb))
        assert quad_sup == pytest.approx(0.5, rel=0.01)
        assert lin_sup == pytest.approx(1.0 / 6.0, rel=0.01)

    def test_mass_defect_small_near_wall(self):
        # |B − B₀| at x = −10⁻³ is linear-order small
        _, b0 = reference_pair(1.0)
        assert abs(CM.sqrtF_of_x(-1e-3) - b0(-1e-3)) <= 1e-2


class TestBoundarySelection:
    @pytest.mark.parametrize("M", [0.3, 1.0, 4.0, 17.0])
    def test_depends_only_on_2ml(self, M):
        # same 2ml, wildly different black-hole masses
        assert select_bc(make_params(M, 2.0, 0.2)) == BoundaryCondition.MIT
        assert select_bc(make_params(M, 2.0, 0.25)) == BoundaryCondition.NATURAL

    def test_critical_product_uses_natural(self):
        assert select_bc(make_params(1.0, 1.0, 0.5)) == BoundaryCondition.NATURAL

    def test_reflection_matrix(self):
        s = mit_reflection()
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = -1.0
        expected[1, 3] = expected[3, 1] = 1.0
        assert np.allclose(s, expected, atol=1e-14)
        g1 = VELOCITY.astype(complex)
        assert np.allclose(g1 @ s + s.conj().T @ g1, 0.0, atol=1e-14)

    def test_reflection_is_exact(self):
        """The snapped reflection holds Gaussian integers only, and its
        conditions hold with no rounding."""
        s = mit_reflection()
        assert set(s.ravel().tolist()) <= {0, 1, -1, 1j, -1j}
        g1 = VELOCITY.astype(complex)
        assert not np.any(g1 @ s + s.conj().T @ g1)
        assert np.array_equal(s @ s, np.eye(4))

    def test_given_potentials_take_the_regime_wall(self):
        """Potentials passed as a map with m = 1 params get the natural
        wall of 2ml = 2, not a bag-type default, and no exponent row: the
        black-hole pair passed as a map assembles the black-hole operator."""
        g = make_grid(-10.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g, black_hole_map(P_NAT))
        assert op.bc is BoundaryCondition.NATURAL and op.wall_exponent is None
        assert (op.matrix != assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g).matrix).nnz == 0


class TestAssembly:
    def test_self_adjoint_mit(self):
        g = make_grid(-10.0, 128)
        op = assemble_hamiltonian(Channel(1.5, 0.5), P_MIT, g)
        assert op.hermiticity_defect() <= 1e-12

    def test_self_adjoint_natural(self):
        g = make_grid(-10.0, 128)
        op = assemble_hamiltonian(Channel(0.5, -0.5), P_NAT, g)
        assert op.hermiticity_defect() <= 1e-12

    def test_self_adjoint_graded(self):
        g = make_grid(-6.0, policy=BoundaryGraded(h_min=1e-3, ratio=1.08))
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        assert op.hermiticity_defect() <= 1e-12

    def test_potential_blocks_entrywise(self):
        g = make_grid(-8.0, 64)
        ch = Channel(2.5, -1.5)
        op = assemble_hamiltonian(ch, P_MIT, g)
        dense = dense_scaled(op)[0]
        j = 20  # interior node: diagonal block is exactly the potential
        x = g.nodes[j]
        block = dense[4 * j : 4 * j + 4, 4 * j : 4 * j + 4]
        expected = (
            ch.coupling * CM.angular_factor_of_x(x) * ANGULAR
            - P_MIT.m * CM.sqrtF_of_x(x) * MASS
        )
        assert np.allclose(block, expected, atol=1e-14)

    def test_needs_params_or_potentials(self):
        with pytest.raises(ConfigurationError, match="need params or potentials"):
            assemble_hamiltonian(Channel(0.5, 0.5), None, make_grid(-10.0, 64))

    def test_zero_override_equals_free_generator(self):
        g = make_grid(-10.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), None, g, zero_potentials)
        assert (op.matrix != free_operator(g).matrix).nnz == 0

    def test_hermiticity_defect_is_computed_once_without_the_split(self, monkeypatch):
        """G is formed once, by assembly, and the defect never splits it; an
        operator copied with another matrix computes its own."""
        calls = []
        block, split = channel._block_matrix, channel._split_sectors
        monkeypatch.setattr(channel, "_block_matrix", lambda *a: calls.append("G") or block(*a))
        monkeypatch.setattr(channel, "_split_sectors", lambda *a: calls.append("cut") or split(*a))
        op = free_operator(make_grid(-10.0, 64))
        first = op.hermiticity_defect()
        assert op.hermiticity_defect() == first == 0.0
        assert calls == ["G"]
        assert perturbed(op, 8, 12, 1e-7).hermiticity_defect() >= 1e-7
        assert calls == ["G"]

    @pytest.mark.parametrize(
        "pair",
        [
            lambda x: (np.zeros(3), np.zeros(3)),
            lambda x: (0.0, 0.0),
            lambda x: (np.zeros((x.size, 1)), np.zeros((x.size, 1))),
        ],
        ids=["too-short", "scalar", "column"],
    )
    def test_potential_map_of_the_wrong_shape_raises(self, pair):
        with pytest.raises(ConfigurationError, match=r"two arrays of shape \(64,\)"):
            assemble_hamiltonian(Channel(0.5, 0.5), None, make_grid(-8.0, 64), pair)

    @pytest.mark.parametrize("table", ["ANGULAR", "MASS", "mit_reflection"])
    @pytest.mark.parametrize("params", [P_MIT, P_NAT], ids=["mit", "natural"])
    def test_table_across_the_sectors_raises(self, monkeypatch, table, params):
        """Negative control: a potential table or a wall reflection whose
        closure Γ¹S is γ⁵ = diag(1, 1, −1, −1), which maps each sector of
        γ³γ⁵ onto the other, has no sector form, and assembly refuses it on
        either wall rather than drop the crossing entries."""
        crossing = GAMMA5.real.copy()
        swapped = {"mit_reflection": lambda: VELOCITY @ crossing}.get(table, crossing)
        monkeypatch.setattr(channel, table, swapped)
        with pytest.raises(ConfigurationError, match="across the sectors"):
            assemble_hamiltonian(Channel(0.5, 0.5), params, make_grid(-8.0, 64))

    def test_non_diagonal_velocity_raises(self, monkeypatch):
        """Negative control: ANGULAR as the velocity stays within the
        sectors but mixes each sector's two slots, which the row layout has
        no place for."""
        mit_reflection()  # built with the true velocity
        monkeypatch.setattr(channel, "VELOCITY", ANGULAR)
        with pytest.raises(ConfigurationError, match="diagonal in sector form"):
            assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, make_grid(-8.0, 64))

    @pytest.mark.parametrize("wall", ["left", "right"])
    def test_closure_off_the_pattern_raises(self, wall):
        """A closure entry the row layout has no slot for, one on component
        2's diagonal, which reaches across the sectors, is refused at either
        wall, not dropped."""
        g = make_grid(-8.0, 64)
        closures = {"left": np.zeros((4, 4), dtype=complex), "right": np.zeros((4, 4), dtype=complex)}
        closures[wall][2, 2] = 1e-3
        zeros = np.zeros(g.n)
        with pytest.raises(ConfigurationError, match=f"the {wall} wall closure table"):
            channel._block_matrix(g, 1.0, 0.0, zeros, zeros, closures["left"], closures["right"])

    def test_assembly_and_defect_build_no_coo_matrix(self, monkeypatch):
        """The CSR arrays are written directly and the defect reads the CSC
        arrays: no COO matrix on the way, on either wall."""

        def refuse(*args, **kwargs):
            raise AssertionError("built a COO matrix")

        monkeypatch.setattr(sp._coo._coo_base, "__init__", refuse)
        for params in (P_MIT, P_NAT):
            op = assemble_hamiltonian(Channel(1.5, 0.5), params, make_grid(-8.0, 64))
            assert op.hermiticity_defect() <= 1e-12
        with pytest.raises(AssertionError, match="COO"):
            op.matrix.tocoo()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["black-hole", "free", "map"]),
        graded=st.booleans(),
        x_min=st.floats(-32.0, -2.0),
        n=st.integers(16, 512),
        ratio=st.floats(1.02, 1.2),
        s=st.sampled_from([0.5, 1.5, 2.5, 3.5]),
        mass=st.one_of(st.floats(0.0, 0.49), st.floats(0.5, 2.0)),
    )
    @example(kind="black-hole", graded=True, x_min=-6.0, n=16, ratio=1.08, s=0.5, mass=0.25)
    @example(kind="black-hole", graded=False, x_min=-32.0, n=4096, ratio=1.1, s=3.5, mass=1.0)
    @example(kind="black-hole", graded=False, x_min=-32.0, n=2048, ratio=1.1, s=0.5, mass=1.0)
    @example(kind="free", graded=False, x_min=-16.0, n=320, ratio=1.1, s=0.5, mass=0.0)
    @example(kind="map", graded=True, x_min=-24.0, n=16, ratio=1.1, s=2.5, mass=0.45)
    def test_bit_for_bit_the_dense_block_construction(
        self, kind, graded, x_min, n, ratio, s, mass
    ):
        """Uniform and graded grids (the graded bag case with the exponent
        wall row), every coupling, both sides of 2ml = 1, the free operator
        and a caller's map: G has the CSC arrays of the dense-block oracle S,
        transformed to PSPᵀ/2 by the sparse P built entry by entry, to the
        last bit, zero signs included, when the oracle forms its edge
        coefficients as assembly does, and the same hermiticity defect;
        W^{−1/2}GW^{1/2} is the transformed oracle H within 4 ulps per
        entry, and exactly when every √w_j is a power of two.  On a grid of
        equal weights, such as the desk grid (w = 1/64), G is the
        transformed H to the last bit."""
        if graded:
            g = make_grid(x_min, policy=BoundaryGraded(h_min=1e-3, ratio=ratio))
        else:
            g = make_grid(x_min, n)
        params = make_params(1.0, 1.0, mass)
        if kind == "free":
            op = free_operator(g)
        else:
            op = assemble_hamiltonian(
                Channel(s, 0.5), params, g, smooth_well if kind == "map" else None
            )
        reflection = mit_reflection()
        right = reflection if op.bc is BoundaryCondition.MIT else np.zeros((4, 4))
        left, right = channel._wall_closures(g, reflection, right, op.wall_exponent)
        expected, h = (
            transformed(reference_block_matrix(
                g, op.channel.coupling, op.mass, op.a_values, op.b_values, left, right, symmetric
            ), g.n)
            for symmetric in (True, False)
        )
        assert same_bits(op.matrix, expected)
        defect = float(np.max(abs(expected - expected.conj().T).sum(axis=1)))
        assert op.hermiticity_defect() == defect
        back = unscaled(op.matrix, sector_weights(g.weights))
        assert np.array_equal(back.indptr, h.indptr) and np.array_equal(back.indices, h.indices)
        for part in (np.real, np.imag):
            ulp = np.spacing(np.abs(part(h.data)))
            assert np.all(np.abs(part(back.data) - part(h.data)) <= 4 * ulp)
        if np.all(np.frexp(np.sqrt(g.weights))[0] == 0.5):
            assert np.array_equal(back.data, h.data)
        if np.all(g.weights == g.weights[0]):  # √(w·w) = w
            assert same_bits(op.matrix, h)

    def test_banded_node_major(self):
        """Within a sector block, node-major with two slots per node, an
        entry reaches at most the same slot of a neighbouring node."""
        g = make_grid(-10.0, 64)
        op = assemble_hamiltonian(Channel(1.5, 0.5), P_MIT, g)
        coo = op.matrix.tocoo()
        assert np.max(np.abs(coo.row - coo.col)) == 2


def sampled_quotient(op, pairs):
    """max |⟨Hu, v⟩ − ⟨u, Hv⟩| / (‖u‖‖v‖) over (4, n) field pairs: the random
    probe the row-sum bound replaced, kept as the bound's oracle."""
    g = op.grid
    return max(
        abs(g.inner(apply(op, u), v) - g.inner(u, apply(op, v))) / (g.norm(u) * g.norm(v))
        for u, v in pairs
    )


def random_pairs(rng, n, count):
    def field():
        return rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))

    return [(field(), field()) for _ in range(count)]


class TestHermiticityBound:
    def test_single_entry_perturbation_fails_the_evolve_check(self, monkeypatch):
        """1e-7 added to the coupling of one desk-grid node to the next,
        with its γ³γ⁵ partner so the flow still splits: the bound reads it
        in full and the ``hermiticity`` line fails, where 100 random field
        pairs read below the 1e-10 bound."""
        monkeypatch.setattr(harness, "_EVOLVE_TIMES", (0.5,))
        cfg = parse_config_dict({"M": 1, "l": 1, "m": 1, "channel": [0.5, 0.5]})
        j = cfg.grid.n // 2
        op = paired(cfg.operator(), 4 * j, 4 * j + 4, 1e-7)
        assert op.hermiticity_defect() >= 1e-7
        rng = np.random.default_rng(0)
        assert sampled_quotient(op, random_pairs(rng, cfg.grid.n, 100)) <= 1e-10
        monkeypatch.setattr(ExperimentConfig, "operator", lambda self, grid=None: op)
        (line,) = [c for c in _run_evolve(cfg).checks if c.name == "hermiticity"]
        assert not line.passed and "defect = 1.000e-07" in line.detail

    def test_desk_operator_has_no_rounding_defect(self, monkeypatch):
        """With the exact reflection, the desk operator's S is Hermitian to
        the last bit, and the ``hermiticity`` line reads 0."""
        monkeypatch.setattr(harness, "_EVOLVE_TIMES", (0.5,))
        cfg = parse_config_dict({
            "M": 1, "l": 1, "m": 1, "channel": [0.5, 0.5],
            "grid": {"x_min": -32.0, "n": 2048},
        })
        assert cfg.operator().hermiticity_defect() == 0.0
        (line,) = [c for c in _run_evolve(cfg).checks if c.name == "hermiticity"]
        assert line.passed and "defect = 0.000e+00" in line.detail

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "graded", "exponent-wall", "free"]),
        x_min=st.floats(-32.0, -2.0),
        n=st.integers(16, 512),
        h_min=st.floats(1e-3, 1e-2),
        ratio=st.floats(1.02, 1.2),
        s=st.sampled_from([0.5, 1.5, 2.5, 3.5]),
        mass=st.floats(0.0, 2.0),
        entry=st.tuples(st.floats(0.0, 1.0), st.integers(0, 3), st.integers(0, 3)),
        size=st.sampled_from([1e-12, 1e-7, 1e-2]),
    )
    @example(kind="graded", x_min=-6.0, n=16, h_min=1e-3, ratio=1.08, s=0.5, mass=0.25,
             entry=(0.5, 0, 0), size=1e-12)
    @example(kind="graded", x_min=-24.0, n=16, h_min=1e-3, ratio=1.1, s=0.5, mass=1.0,
             entry=(0.5, 1, 2), size=1e-7)
    @example(kind="graded", x_min=-12.0, n=16, h_min=1e-2, ratio=1.05, s=0.5, mass=0.45,
             entry=(0.99, 3, 0), size=1e-2)
    def test_every_assembled_operator_is_hermitian_to_the_last_bit(
        self, kind, x_min, n, h_min, ratio, s, mass, entry, size
    ):
        """Uniform and graded grids on both sides of 2ml = 1, the graded
        bag case with the exponent wall row and the free operator: the
        defect is exactly 0, also on the three graded grids that read up to
        2.3e-13 while S was rescaled from H.  One entry added from a node to
        the next, on the difference's pattern or off it, reads exactly its
        size."""
        if kind == "exponent-wall":
            mass = 0.01 + 0.12 * mass  # 2ml < 1 with m > 0
        if kind in ("graded", "exponent-wall"):
            g = make_grid(x_min, policy=BoundaryGraded(h_min=h_min, ratio=ratio))
        else:
            g = make_grid(x_min, n)
        if kind == "free":
            op = free_operator(g)
        else:
            op = assemble_hamiltonian(Channel(s, 0.5), make_params(1.0, 1.0, mass), g)
        if kind == "exponent-wall":
            assert op.wall_exponent == mass
        assert op.hermiticity_defect() == 0.0
        # a difference entry (a, a) has no real part, an off-pattern one no
        # entry at all, so adding a real size is exact
        j, a, c = min(int(entry[0] * (g.n - 1)), g.n - 2), entry[1], entry[2]
        assert perturbed(op, 4 * j + a, 4 * (j + 1) + c, size).hermiticity_defect() == size

    @settings(max_examples=40, deadline=None)
    @given(
        graded=st.booleans(),
        x_min=st.floats(-16.0, -2.0),
        n=st.integers(16, 256),
        h_min=st.floats(1e-3, 1e-2),
        ratio=st.floats(1.02, 1.2),
        s=st.sampled_from([0.5, 1.5, 2.5, 3.5]),
        mass=st.floats(0.0, 2.0),
        entry=st.tuples(st.floats(0.0, 1.0), st.integers(0, 12)),
        size=st.sampled_from([0.0, 1e-9, 1e-5, 1e-2]),
        seed=st.integers(0, 2**16),
    )
    def test_bound_is_never_below_the_sampled_quotient(
        self, graded, x_min, n, h_min, ratio, s, mass, entry, size, seed
    ):
        """On uniform and graded grids, any channel and mass, with or
        without one perturbed entry: no field pair, random or the pair of
        unit fields at the perturbed entry, reads above the bound beyond
        rounding.  The unit pair reads the perturbed entry's defect, so a
        bound that missed it would fail."""
        if graded:
            g = make_grid(x_min, policy=BoundaryGraded(h_min=h_min, ratio=ratio))
        else:
            g = make_grid(x_min, n)
        op = assemble_hamiltonian(Channel(s, 0.5), make_params(1.0, 1.0, mass), g)
        row = min(int(entry[0] * 4 * g.n), 4 * g.n - 1)
        col = min(row + entry[1], 4 * g.n - 1)
        op = perturbed(op, row, col, size)
        pairs = random_pairs(np.random.default_rng(seed), g.n, 5)
        unit_col, unit_row = np.zeros((2, 4 * g.n), dtype=complex)
        unit_col[col] = unit_row[row] = 1.0
        pairs.append(tuple(v.reshape((4, g.n), order="F") for v in (unit_col, unit_row)))
        # both sides are computed, each to within a few ε·max|S_ij|
        slack = 8 * np.finfo(float).eps * np.abs(op.matrix.data).max()
        assert sampled_quotient(op, pairs) <= op.hermiticity_defect() + slack


def kink_pair(x):
    """The Jackiw–Rebbi kink 2·tanh(x + 10) with B ≡ 0."""
    return 2.0 * np.tanh(x + 10.0), np.zeros_like(x)


def smooth_well(x):
    return np.exp(x / 3.0), 1.0 / (1.0 + x**2)


class TestSectors:
    """Every operator the package builds commutes with γ³γ⁵ node by node,
    so it splits into two blocks with nothing between them."""

    def test_sector_rows_are_eigenvectors_of_gamma3_gamma5(self):
        q = GAMMA[3] @ GAMMA5
        for rows, sign in ((SECTOR_ROWS[:2], 1.0), (SECTOR_ROWS[2:], -1.0)):
            assert np.array_equal(q @ rows.T, sign * rows.T)
        assert np.array_equal(SECTOR_ROWS @ SECTOR_ROWS.T, 2 * np.eye(4))

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "graded", "graded-bag", "free", "kink", "well"]),
        x_min=st.floats(-16.0, -12.0),
        n=st.integers(16, 64),
        s=st.sampled_from([0.5, 1.5, 2.5, 3.5]),
        mass=st.floats(0.0, 2.0),
    )
    def test_every_operator_splits_into_isospectral_sectors(self, kind, x_min, n, s, mass):
        """Uniform and graded grids, every coupling, both regimes (the
        graded bag case with the exponent wall row), the free generator and
        potentials passed by the caller: G has nothing across the sectors,
        and its two diagonal blocks, each its own conjugate transpose to the
        last bit, have the same spectrum."""
        if kind == "graded-bag":
            mass = 0.01 + 0.24 * mass  # 2ml < 1 with m > 0: the exponent row
        elif kind == "graded":
            mass = 0.5 + 0.75 * mass  # 2ml ≥ 1: the natural wall
        params = make_params(1.0, 1.0, mass)
        if kind.startswith("graded"):
            g = make_grid(x_min, policy=BoundaryGraded(h_min=1e-2, ratio=1.08))
        else:
            g = make_grid(x_min, n)
        potentials = {"kink": kink_pair, "well": smooth_well}.get(kind)
        if kind == "free":
            op = free_operator(g)
        else:
            op = assemble_hamiltonian(Channel(s, 0.5), params, g, potentials)
        assert (op.wall_exponent is not None) == (kind == "graded-bag")
        blocks = op.sectors()
        half = 2 * g.n
        assert [b.rows for b in blocks] == [slice(0, half), slice(half, 2 * half)]
        dense = op.matrix.toarray()
        plus, minus = dense[:half, :half], dense[half:, half:]
        assert not dense[:half, half:].any() and not dense[half:, :half].any()
        bound = max(b.bound for b in blocks)
        for block, g_dense in zip(blocks, (plus, minus)):
            assert block.bound == np.abs(g_dense).sum(axis=1).max()
            assert np.array_equal(block.matrix.toarray(), g_dense)
            assert np.array_equal(g_dense, g_dense.conj().T)
        levels = [np.linalg.eigvalsh(b) for b in (plus, minus)]
        assert np.max(np.abs(levels[0] - levels[1])) <= 1e-12 * bound

    @pytest.mark.parametrize("mass", [1.0, 0.45])
    def test_each_sector_holds_half_of_the_window(self, mass):
        """The Mourre window [0.5, 1.5] at n = 320 holds 40 levels, 20 in
        each sector, and the two sector spectra agree."""
        params = make_params(1.0, 1.0, mass)
        op = assemble_hamiltonian(Channel(0.5, 0.5), params, make_grid(-32.0, 320))
        levels = [np.linalg.eigvalsh(b.matrix.toarray()) for b in op.sectors()]
        assert [int(np.sum((x >= 0.5) & (x <= 1.5))) for x in levels] == [20, 20]
        assert np.max(np.abs(levels[0] - levels[1])) <= 1e-12 * op.sectors()[0].bound

    def test_entry_across_the_sectors_is_refused(self):
        """Negative control: one entry from component 1 of a node to
        component 1 of the next has no γ³γ⁵ partner, so the operator has
        no sector blocks, and the split and every solver that reads it
        raise rather than fall back to one block of every coordinate."""
        g = make_grid(-8.0, 64)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        j = 10
        broken = perturbed(op, 4 * j, 4 * j + 4, 1e-2)
        g_dense, half = broken.matrix.toarray(), 2 * g.n
        cross = np.abs(np.concatenate([g_dense[:half, half:], g_dense[half:, :half]]))
        assert np.count_nonzero(cross) == 2 and cross.max() == 0.5e-2
        assert len(op.sectors()) == 2
        psi0 = gaussian_packet(g, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        cfg = EvolutionConfig(dt=g.min_spacing / 2, t_final=0.5)
        readers = [
            broken.sectors,
            lambda: evolve(broken, psi0, cfg),
            lambda: chebyshev_propagate(broken, psi0, (0.5,)),
            lambda: level_count(broken, (0.0,)),
            lambda: eigendecompose(broken, (0.5, 1.5)),
        ]
        for read in readers:
            with pytest.raises(ConfigurationError, match="2 entries of G = PSPᵀ/2 cross"):
                read()

    def test_built_once_by_the_propagators_only(self, monkeypatch):
        """Assembly and the hermiticity bound never split G; the first call
        slices it, every later one returns the same read-only blocks."""
        calls = []
        split = channel._split_sectors

        def counted(*args):
            calls.append(1)
            return split(*args)

        monkeypatch.setattr(channel, "_split_sectors", counted)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, make_grid(-8.0, 64))
        op.hermiticity_defect()
        assert calls == []
        first = op.sectors()
        assert op.sectors() is first and calls == [1]
        with pytest.raises(ValueError):
            first[0].matrix.data[0] = 0.0
        with pytest.raises(ValueError):
            first[1].matrix.indices[0] = 0

    @pytest.mark.parametrize("first", ["defect", "sectors"])
    def test_s_is_formed_and_transformed_once(self, monkeypatch, first):
        """Whichever of the hermiticity bound and the split runs first, G is
        formed once, by assembly, and sliced once; a copy with another
        matrix slices its own."""
        calls = []
        block, split = channel._block_matrix, channel._split_sectors
        monkeypatch.setattr(channel, "_block_matrix", lambda *a: calls.append("G") or block(*a))
        monkeypatch.setattr(channel, "_split_sectors", lambda *a: calls.append("cut") or split(*a))
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, make_grid(-8.0, 64))
        readers = [op.hermiticity_defect, op.sectors]
        for read in readers if first == "defect" else readers[::-1]:
            read()
            read()
        assert calls == ["G", "cut"]
        paired(op, 8, 12, 1e-7).sectors()
        assert calls == ["G", "cut", "cut"]


class TestStateMaps:
    """The one coordinate system every solver shares, u = PW^{1/2}ψ."""

    @settings(max_examples=40, deadline=None)
    @given(
        graded=st.booleans(),
        x_min=st.floats(-16.0, -4.0),
        n=st.integers(16, 128),
        mass=st.floats(0.0, 2.0),
        broken=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_norm_and_generator(self, graded, x_min, n, mass, broken, seed):
        """On uniform and graded grids, for assembled operators and a
        non-Hermitian control with an entry and its γ³γ⁵ partner: the round
        trip ψ → u → ψ is exact to rounding, column by column too, ‖u‖ is
        √2·‖ψ‖_W, and the blocks of G act on u as H acts on ψ."""
        if graded:
            g = make_grid(x_min, policy=BoundaryGraded(h_min=1e-2, ratio=1.08))
        else:
            g = make_grid(x_min, n)
        op = assemble_hamiltonian(Channel(0.5, 0.5), make_params(1.0, 1.0, mass), g)
        if broken:
            op = paired(op, 4 * (g.n // 2), 4 * (g.n // 2) + 4, 1e-2)
        assert len(op.sectors()) == 2
        rng = np.random.default_rng(seed)
        psi = SpinorField(g, rng.normal(size=(4, g.n)) + 1j * rng.normal(size=(4, g.n)))
        u = to_sectors(psi)
        flat = psi.values.flatten(order="F")
        assert np.max(np.abs(from_sectors(u, g) - flat)) <= 4e-16 * np.abs(flat).max()
        assert np.linalg.norm(u) == pytest.approx(np.sqrt(2.0) * psi.norm(), rel=1e-14)
        columns = np.column_stack([u, 1j * u])
        assert np.array_equal(from_sectors(columns, g)[:, 1], 1j * from_sectors(u, g))
        h_psi = SpinorField(g, apply(op, psi.values))
        g_u = np.zeros_like(u)
        for block in op.sectors():
            g_u[block.rows] = block.matrix @ u[block.rows]
        expected = to_sectors(h_psi)
        assert np.max(np.abs(g_u - expected)) <= 1e-12 * np.abs(expected).max()


class TestStencilEntrywise:
    """Every 4×4 block of small assembled operators, read as
    H = W^{−1/2}SW^{1/2}, against its formula: interior ±1 blocks
    ∓i/(2w_j)·Γ¹, the bag-type ghost +i/(2w_0)·Γ¹S in the first row, and the
    right wall row of each closure."""

    @staticmethod
    def expected(op, right_closure):
        g = op.grid
        g1 = VELOCITY.astype(complex)
        h = np.zeros((4 * g.n, 4 * g.n), dtype=complex)
        for j in range(g.n):
            row = slice(4 * j, 4 * j + 4)
            h[row, row] = (
                op.channel.coupling * op.a_values[j] * ANGULAR - op.mass * op.b_values[j] * MASS
            )
            if j + 1 < g.n:
                h[row, 4 * j + 4 : 4 * j + 8] = -1j / (2.0 * g.weights[j]) * g1
            if j > 0:
                h[row, 4 * j - 4 : 4 * j] = 1j / (2.0 * g.weights[j]) * g1
        h[:4, :4] += 1j / (2.0 * g.weights[0]) * g1 @ mit_reflection()
        h[-4:, -4:] += right_closure
        return h

    def check(self, op, right_closure):
        dense = unscaled(scaled(op), np.repeat(op.grid.weights, 4)).toarray()
        assert np.max(np.abs(dense - self.expected(op, right_closure))) <= 1e-13 * np.max(
            np.abs(dense)
        )
        assert np.allclose(op.a_values, CoordinateMap(op.params).angular_factor_of_x(op.grid.nodes))

    def test_plain_mirror(self):
        op = assemble_hamiltonian(Channel(1.5, 0.5), P_MIT, make_grid(-8.0, 16))
        assert op.grid.n == 16 and op.wall_exponent is None
        g1s = VELOCITY.astype(complex) @ mit_reflection()
        self.check(op, -1j / (2.0 * op.grid.weights[-1]) * g1s)

    def test_natural_wall(self):
        op = assemble_hamiltonian(Channel(1.5, 0.5), P_NAT, make_grid(-8.0, 16))
        assert op.bc == BoundaryCondition.NATURAL
        self.check(op, np.zeros((4, 4)))

    def test_graded_wall_exponent(self):
        g = make_grid(-0.4, policy=BoundaryGraded(h_min=0.005, ratio=1.2, h_max=0.05))
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        nu = P_MIT.m * P_MIT.l
        assert g.n == 16 and op.wall_exponent == nu
        t, t_prev = -g.nodes[-1], -g.nodes[-2]
        g_wall = nu / t + (t / t_prev) ** nu / (2.0 * g.weights[-1])
        g1s = VELOCITY.astype(complex) @ mit_reflection()
        self.check(op, -1j * g_wall * g1s)

    def test_exponent_row_only_for_the_black_hole_pair(self):
        """The same potentials passed as a map, on the same graded grid in
        the bag regime: the bag wall with the plain mirror."""
        g = make_grid(-0.4, policy=BoundaryGraded(h_min=0.005, ratio=1.2, h_max=0.05))
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g, black_hole_map(P_MIT))
        assert op.bc is BoundaryCondition.MIT and op.wall_exponent is None
        g1s = VELOCITY.astype(complex) @ mit_reflection()
        self.check(op, -1j / (2.0 * g.weights[-1]) * g1s)


class TestConjugateOperator:
    def test_component_signs(self):
        g = make_grid(-5.0, 32)
        v = np.zeros((4, g.n), dtype=complex)
        v[0] = 1.0
        out = conjugate_apply(v, g)
        assert np.allclose(out[0], g.nodes)
        v = np.zeros((4, g.n), dtype=complex)
        v[1] = 1.0
        v[2] = 1.0
        out = conjugate_apply(v, g)
        assert np.allclose(out[1], -g.nodes)
        assert np.allclose(out[2], -g.nodes)

    def test_expectation_real(self):
        g = make_grid(-5.0, 64)
        rng = np.random.default_rng(9)
        for _ in range(5):
            v = rng.normal(size=(4, g.n)) + 1j * rng.normal(size=(4, g.n))
            val = g.inner(v, conjugate_apply(v, g))
            assert abs(val.imag) <= 1e-12 * abs(val.real)


class TestCommutator:
    def test_zero_potentials_give_identity(self):
        g = make_grid(-10.0, 64)
        op = free_operator(g)
        blocks = commutator_closed_form(op).blocks
        assert np.allclose(blocks, np.eye(4)[None, :, :], atol=1e-15)

    def test_self_adjoint(self):
        g = make_grid(-10.0, 128)
        op = assemble_hamiltonian(Channel(1.5, 0.5), P_MIT, g)
        assert commutator_closed_form(op).hermiticity_defect() <= 1e-14

    def test_deep_interior_near_identity(self):
        g = make_grid(-50.0, 512)
        op = assemble_hamiltonian(Channel(0.5, 0.5), P_MIT, g)
        blocks = commutator_closed_form(op).blocks
        j = int(np.argmin(np.abs(g.nodes + 40.0)))
        assert np.max(np.abs(blocks[j] - np.eye(4))) <= 1e-20

    def test_brute_force_second_order(self):
        errs = []
        for n in (256, 512, 1024):
            g = make_grid(-10.0, n)
            op = assemble_hamiltonian(Channel(1.5, 0.5), P_MIT, g)
            psi = gaussian_packet(g, -5.0, 0.5).values
            blocks = commutator_closed_form(op).blocks
            diff = np.einsum("jab,bj->aj", blocks, psi) - commutator_brute_force(op, psi)
            errs.append(g.norm(diff))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.8)

    def test_brute_force_second_order_natural(self):
        errs = []
        for n in (256, 512, 1024):
            g = make_grid(-10.0, n)
            op = assemble_hamiltonian(Channel(0.5, 0.5), P_NAT, g)
            psi = gaussian_packet(g, -4.0, 0.4).values
            blocks = commutator_closed_form(op).blocks
            diff = np.einsum("jab,bj->aj", blocks, psi) - commutator_brute_force(op, psi)
            errs.append(g.norm(diff))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.8)
