"""Dirac matrix tables and channel bookkeeping.

Two equivalent 4×4 representations of the flat Clifford algebra
{γ^μ, γ^ν} = 2η^{μν}, η = diag(+,-,-,-), are kept side by side:

* the *working* representation, in which the radial channel Hamiltonian

      H = Γ¹ D_x + c_a(x) γ⁰γ²  -  c_m(x) γ⁰ ,      D_x = -i ∂_x,

  has a real diagonal velocity matrix Γ¹ = -γ⁰γ¹ = diag(1,-1,-1,1) and
  real symmetric potential matrices — convenient for banded discrete
  operators and for reading off left/right movers componentwise;

* an *alternative* representation with γ⁰ diagonal, related to the first
  by the constant unitary ``BASIS_CHANGE`` together with a chirality swap
  and a sign flip of the generator (see :func:`transform_residual`).

The identity tying the two together is exact at the symbol level, so the
corresponding test asserts it to machine precision.

Channels are labelled by half-integers (s, n) with s ≥ |n| and s - |n|
integer; the angular potential enters through the single coupling s + 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA",
    "GAMMA",
    "GAMMA5",
    "VELOCITY",
    "ANGULAR",
    "MASS",
    "CHIRAL_MIRROR",
    "GAMMA_ALT",
    "GAMMA5_ALT",
    "BASIS_CHANGE",
    "Channel",
    "symbol",
    "symbol_alt",
    "transform_residual",
]

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


def _blocks(a, b, c, d):
    return np.block([[a, b], [c, d]])


# 2×2 building blocks.  Note the ordering: the first one is diagonal — it is
# the one that survives in the radial velocity matrix after the channel
# reduction — so these are *not* in the conventional (x, y, z) order.
SIGMA = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
)

# Working representation: γ⁰ = i offdiag(I, -I), γ^k = i offdiag(σ_k, σ_k).
GAMMA = (
    1j * _blocks(_Z2, _I2, -_I2, _Z2),
    1j * _blocks(_Z2, SIGMA[0], SIGMA[0], _Z2),
    1j * _blocks(_Z2, SIGMA[1], SIGMA[1], _Z2),
    1j * _blocks(_Z2, SIGMA[2], SIGMA[2], _Z2),
)

#: γ⁵ = -i γ⁰γ¹γ²γ³ = diag(1, 1, -1, -1)
GAMMA5 = -1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]

#: Coefficient of D_x in the channel Hamiltonian: Γ¹ = -γ⁰γ¹ = diag(1,-1,-1,1).
#: Its eigenvalues ±1 are the two propagation speeds; components (1, 4) move
#: right, components (2, 3) move left.
VELOCITY = (-GAMMA[0] @ GAMMA[1]).real.copy()

#: Coefficient of the angular potential c_a(x) = (s + 1/2)·√F/r.
ANGULAR = (GAMMA[0] @ GAMMA[2]).real.copy()

#: Coefficient of the mass potential; enters as -c_m(x)·MASS, c_m = m·√F.
MASS = GAMMA[0]

#: Unitary that anticommutes with the free generator Γ¹D_x *and* preserves
#: the reflecting boundary condition ψ₁ = -ψ₃, ψ₂ = ψ₄, forcing the free
#: spectrum to be symmetric about zero.
CHIRAL_MIRROR = GAMMA5 @ GAMMA[0]

# Alternative representation: γ⁰ diagonal.
GAMMA_ALT = (
    _blocks(_I2, _Z2, _Z2, -_I2),
    _blocks(_Z2, SIGMA[0], -SIGMA[0], _Z2),
    _blocks(_Z2, SIGMA[1], -SIGMA[1], _Z2),
    _blocks(_Z2, SIGMA[2], -SIGMA[2], _Z2),
)

#: Chirality matrix of the alternative representation, offdiag(I, I).
GAMMA5_ALT = _blocks(_Z2, _I2, _I2, _Z2)

#: Constant unitary relating the two representations (see transform_residual).
BASIS_CHANGE = (np.exp(1j * np.pi / 4) / np.sqrt(2.0)) * _blocks(
    _I2, _I2, -1j * _I2, 1j * _I2
)


def symbol(k, c_a, c_m):
    """Matrix symbol of the channel Hamiltonian at frequency k.

    H(k; x) = k·Γ¹ + c_a·γ⁰γ² - c_m·γ⁰ with scalar coefficients
    c_a = (s + 1/2)·√F/r and c_m = m·√F evaluated at a point x.
    """
    return k * VELOCITY.astype(complex) + c_a * ANGULAR.astype(complex) - c_m * MASS


def symbol_alt(k, c_a, c_m):
    """Same channel Hamiltonian written in the alternative representation.

    H̃(k; x) = i γ̃⁰γ̃¹ (ik) + c_a·γ̃⁰γ̃² - c_m·γ̃⁰  (∂_x ↦ ik).
    """
    g0, g1, g2, _ = GAMMA_ALT
    return -k * (g0 @ g1) + c_a * (g0 @ g2) - c_m * g0


def transform_residual(k, c_a, c_m):
    """Max-norm defect of the representation identity at one symbol point.

    The two symbols are conjugate up to a chirality swap and a sign flip:

        H(k) = U · (-H̃(k)) · U⁻¹,      U = BASIS_CHANGE · γ⁵_alt.

    Returns ‖H(k) - U(-H̃(k))U⁻¹‖_max, which should vanish to rounding.
    """
    u = BASIS_CHANGE @ GAMMA5_ALT
    lhs = symbol(k, c_a, c_m)
    rhs = u @ (-symbol_alt(k, c_a, c_m)) @ u.conj().T
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class Channel:
    """Angular sector label (s, n): half-integers with |n| ≤ s.

    Both 2s and 2n must be odd integers (so s - |n| is automatically an
    integer) and s ≥ |n| ≥ 1/2.  The channel enters the radial operator
    only through ``coupling`` = s + 1/2 ∈ {1, 2, 3, ...}.
    """

    s: float
    n: float

    def __post_init__(self):
        two_s, two_n = 2.0 * self.s, 2.0 * self.n
        if two_s != round(two_s) or round(two_s) % 2 == 0 or self.s <= 0:
            raise ValueError(f"s must be a positive half-odd-integer, got {self.s}")
        if two_n != round(two_n) or round(two_n) % 2 == 0:
            raise ValueError(f"n must be a half-odd-integer, got {self.n}")
        if abs(self.n) > self.s:
            raise ValueError(f"need |n| <= s, got s={self.s}, n={self.n}")

    @property
    def coupling(self) -> float:
        """Strength s + 1/2 multiplying the angular potential √F/r."""
        return self.s + 0.5
