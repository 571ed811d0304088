"""Exact checks of the matrix tables, the representation identity, and
channel-label validation."""
import numpy as np
import pytest

from adsdirac.algebra import (
    ANGULAR,
    BASIS_CHANGE,
    CHIRAL_MIRROR,
    Channel,
    GAMMA,
    GAMMA5,
    GAMMA5_ALT,
    GAMMA_ALT,
    MASS,
    SIGMA,
    VELOCITY,
    symbol,
    symbol_alt,
    transform_residual,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


class TestTables:
    """Entrywise tables; everything here is exact, so no tolerance."""

    def test_sigma_tables(self):
        assert np.array_equal(SIGMA[0], np.diag([1.0 + 0j, -1.0]))
        assert np.array_equal(SIGMA[1], np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(SIGMA[2], np.array([[0, -1j], [1j, 0]]))

    def test_gamma0_table(self):
        expected = np.array(
            [
                [0, 0, 1j, 0],
                [0, 0, 0, 1j],
                [-1j, 0, 0, 0],
                [0, -1j, 0, 0],
            ]
        )
        assert np.array_equal(GAMMA[0], expected)

    def test_velocity_is_signature_diagonal(self):
        assert np.array_equal(VELOCITY, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_velocity_matches_product(self):
        assert np.array_equal(VELOCITY.astype(complex), -GAMMA[0] @ GAMMA[1])

    def test_angular_table(self):
        expected = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        assert np.array_equal(ANGULAR, expected)

    def test_gamma5_is_chiral_diagonal(self):
        assert np.array_equal(GAMMA5, np.diag([1.0 + 0j, 1.0, -1.0, -1.0]))

    def test_alt_gamma0_is_diagonal(self):
        assert np.array_equal(GAMMA_ALT[0], np.diag([1.0 + 0j, 1.0, -1.0, -1.0]))

    def test_alt_gamma5_swaps_halves(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
        assert np.array_equal(GAMMA5_ALT, expected)


class TestCliffordAlgebra:
    @pytest.mark.parametrize("rep", [GAMMA, GAMMA_ALT], ids=["working", "alternative"])
    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("nu", range(4))
    def test_anticommutators(self, rep, mu, nu):
        acomm = rep[mu] @ rep[nu] + rep[nu] @ rep[mu]
        assert np.array_equal(acomm, 2.0 * ETA[mu, nu] * np.eye(4))

    @pytest.mark.parametrize("mu", range(4))
    def test_gamma5_anticommutes(self, mu):
        assert np.array_equal(GAMMA5 @ GAMMA[mu], -GAMMA[mu] @ GAMMA5)

    def test_gamma5_squares_to_identity(self):
        assert np.array_equal(GAMMA5 @ GAMMA5, np.eye(4, dtype=complex))

    def test_hermiticity_pattern(self):
        # γ⁰ Hermitian, γ^k anti-Hermitian — the pattern that makes
        # k·Γ¹ + c_a·ANGULAR - c_m·MASS Hermitian for real coefficients.
        assert np.array_equal(GAMMA[0].conj().T, GAMMA[0])
        for k in (1, 2, 3):
            assert np.array_equal(GAMMA[k].conj().T, -GAMMA[k])

    def test_symbol_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k, ca, cm = rng.normal(size=3) * 2.0
            h = symbol(k, ca, cm)
            assert np.max(np.abs(h - h.conj().T)) == 0.0


class TestChiralMirror:
    """The unitary that flips the sign of the free generator."""

    def test_unitary(self):
        u = CHIRAL_MIRROR
        assert np.array_equal(u @ u.conj().T, np.eye(4, dtype=complex))

    def test_anticommutes_with_velocity(self):
        assert np.array_equal(
            CHIRAL_MIRROR @ VELOCITY.astype(complex),
            -VELOCITY.astype(complex) @ CHIRAL_MIRROR,
        )

    def test_preserves_reflecting_constraint(self):
        # On vectors with ψ₃ = -ψ₁, ψ₄ = ψ₂ the image satisfies the same
        # two constraints, so the mirror maps the reflecting domain to
        # itself and the reflected spectrum is symmetric about zero.
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.array([a, b, -a, b])
            phi = CHIRAL_MIRROR @ psi
            assert phi[2] == pytest.approx(-phi[0], abs=1e-15)
            assert phi[3] == pytest.approx(phi[1], abs=1e-15)


class TestBasisChange:
    def test_unitary(self):
        p = BASIS_CHANGE
        assert np.max(np.abs(p @ p.conj().T - np.eye(4))) < 1e-15

    def test_symbol_identity_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k, ca, cm = rng.normal(size=3) * 5.0
            assert transform_residual(k, ca, cm) < 1e-13

    def test_symbol_identity_componentwise(self):
        # Each coefficient matrix transforms separately: derivative,
        # angular, mass.  Isolate them by switching the scalars on/off.
        u = BASIS_CHANGE @ GAMMA5_ALT

        def conj(m):
            return u @ (-m) @ u.conj().T

        assert np.max(np.abs(conj(symbol_alt(1, 0, 0)) - VELOCITY)) < 1e-15
        assert np.max(np.abs(conj(symbol_alt(0, 1, 0)) - ANGULAR)) < 1e-15
        assert np.max(np.abs(conj(symbol_alt(0, 0, 1)) - (-MASS))) < 1e-15


class TestChannel:
    @pytest.mark.parametrize(
        "s,n", [(0.5, 0.5), (0.5, -0.5), (1.5, -1.5), (2.5, 0.5), (7.5, 5.5)]
    )
    def test_valid(self, s, n):
        ch = Channel(s, n)
        assert ch.coupling == s + 0.5

    @pytest.mark.parametrize(
        "s,n",
        [
            (1.0, 0.5),  # s not half-odd
            (0.5, 0.0),  # n not half-odd
            (0.5, 1.5),  # |n| > s
            (-0.5, -0.5),  # s not positive
            (1.5, -2.5),  # |n| > s again
        ],
    )
    def test_invalid(self, s, n):
        with pytest.raises(ValueError):
            Channel(s, n)

    def test_coupling_is_positive_integer(self):
        for two_s in range(1, 12, 2):
            ch = Channel(two_s / 2.0, 0.5)
            assert ch.coupling == pytest.approx(round(ch.coupling))
            assert ch.coupling >= 1.0
