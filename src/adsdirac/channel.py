"""Radial channel Hamiltonians H = Γ¹D_x + (s+1/2)A(x)γ⁰γ² − m·B(x)γ⁰.

The potentials A = √F/r and B = √F come from the geometry module; an
override mode carries zero or tabulated potentials for oracle cases.  The
discrete operator is a banded matrix on a cell-centered grid: a centered
first difference (exactly skew-adjoint against the grid inner product, see
grids.py) plus pointwise 4×4 potential blocks.  Boundary closures eliminate
one ghost node per wall through a reflection matrix S with Γ¹S + S*Γ¹ = 0,
which is precisely the condition making the closed operator self-adjoint in
the weighted inner product:

* right wall (x = 0): for 2ml < 1 the reflection through the kernel of
  (γ¹ + i·𝟙) — the bag-type condition; for 2ml ≥ 1 a zero ghost — the mass
  barrier ~ ml/(−x) enforces decay by itself and no boundary data is needed.
  In the massive bag regime, when the grid resolves the wall layer
  (boundary-graded spacing), the ghost weight additionally carries the
  boundary exponent: states there behave like (−x)^{−ml} times a kernel
  spinor, and a plain mirrored difference misreads that power by an O(1)
  factor.  Tuning the single symmetry-allowed closure coefficient makes the
  wall row exact on the admissible branch while leaving the excluded
  (−x)^{+ml} branch penalized, which is what selects the right boundary
  behavior in stationary solves.  On uniform grids the layer is sub-cell —
  the weighted row would only plant a spurious quasi-mode in the last cell
  — so those keep the plain mirror, whose reflections are clean;
* left wall (x = x_min): always the bag-type reflection; experiments place
  x_min far enough left that no signal reaches it (propagation speed ≤ 1),
  so the wall only has to be norm-preserving, not physical.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space

from .algebra import ANGULAR, Channel, GAMMA, MASS, VELOCITY, GAMMA5_ALT, GAMMA_ALT, BASIS_CHANGE
from .geometry import CoordinateMap, Params
from .grids import Grid

__all__ = [
    "ConfigurationError",
    "BoundaryCondition",
    "PotentialPair",
    "potentials_sads",
    "potentials_zero",
    "potentials_tabulated",
    "smooth_cutoff",
    "reference_potentials",
    "EnvelopeReport",
    "envelope_check",
    "select_bc",
    "mit_reflection",
    "ChannelOperator",
    "assemble_hamiltonian",
    "free_operator",
    "conjugate_apply",
    "PointwiseBlocks",
    "commutator_closed_form",
    "transform_consistency",
]


class ConfigurationError(ValueError):
    """Inconsistent combination of parameters, potentials, and boundary data."""


class BoundaryCondition(Enum):
    MIT = "mit"
    NATURAL = "natural"


# ------------------------------------------------------------- potentials

@dataclass(frozen=True)
class PotentialPair:
    """The two scalar potentials of a channel Hamiltonian.

    ``a_ang`` multiplies (s+1/2)·γ⁰γ², ``b_mass`` multiplies −m·γ⁰.  The
    envelope exponents (theta, beta) are the advertised horizon decay rates
    of A − A₀ and B − B₀; for the black-hole pair both equal the surface
    gravity κ.
    """

    a_ang: Callable
    b_mass: Callable
    mode: str  # "sads" | "override"
    theta: float
    beta: float
    params: Optional[Params] = None


def potentials_sads(p: Params) -> PotentialPair:
    """A = √F/r and B = √F as functions of the working coordinate x < 0."""
    cm = CoordinateMap(p)
    return PotentialPair(
        a_ang=cm.angular_factor_of_x,
        b_mass=cm.sqrtF_of_x,
        mode="sads",
        theta=p.kappa,
        beta=p.kappa,
        params=p,
    )


def potentials_zero() -> PotentialPair:
    """A ≡ B ≡ 0; the assembled operator is the free generator Γ¹D_x."""
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PotentialPair(zero, zero, mode="override", theta=np.inf, beta=np.inf)


def potentials_tabulated(a_fn, b_fn, theta=np.inf, beta=np.inf) -> PotentialPair:
    """Override pair with user-supplied potentials (for envelope experiments)."""
    return PotentialPair(a_fn, b_fn, mode="override", theta=theta, beta=beta)


def smooth_cutoff(x, lo: float = -2.0, hi: float = -1.0):
    """C^∞ step: 0 for x ≤ lo, 1 for x ≥ hi, strictly monotone between."""
    x = np.asarray(x, dtype=float)
    t = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        g = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        gc = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return g / (g + gc)


def reference_potentials(l: float):
    """The comparison pair (A₀, B₀): the exact wall asymptotics 1/l and
    l/(−x), switched off smoothly across [−2, −1] and identically zero for
    x ≤ −2."""
    a0 = lambda x: smooth_cutoff(x) / l
    b0 = lambda x: smooth_cutoff(x) * l / (-np.asarray(x, dtype=float))
    return a0, b0


@dataclass(frozen=True)
class EnvelopeReport:
    """Fitted decay rates and boundary-envelope constants for A−A₀, B−B₀."""

    theta_fit: float
    beta_fit: float
    boundary_quad_sup: float  # sup |A−A₀|/x²  on the sample
    boundary_lin_sup: float  # sup |B−B₀|/(−x) on the sample
    kappa: float
    margin: float  # min(theta_fit, beta_fit) − 0.95·κ
    passed: bool


def envelope_check(pp: PotentialPair, p: Params) -> EnvelopeReport:
    """Verify the two-sided envelopes of the black-hole potentials.

    Horizon side: A − A₀ = A and B − B₀ = B for x ≤ −2; their log-slopes
    against x on a window deep in the horizon region fit the advertised
    exponential rate κ.  Boundary side: |A − A₀| / x² and |B − B₀| / (−x)
    stay bounded as x → 0⁻ (the quadratic/linear envelopes).
    """
    if pp.mode != "sads":
        raise ConfigurationError("envelope check applies to the black-hole pair")
    a0, b0 = reference_potentials(p.l)

    w = max(6.0, 24.0 / p.kappa)
    xs = np.linspace(-w, -w / 2.0, 25)
    da = np.asarray(pp.a_ang(xs)) - a0(xs)
    db = np.asarray(pp.b_mass(xs)) - b0(xs)
    theta_fit = float(np.polyfit(xs, np.log(np.abs(da)), 1)[0])
    beta_fit = float(np.polyfit(xs, np.log(np.abs(db)), 1)[0])

    xb = -np.geomspace(1e-4, 1e-1, 16)
    qa = np.abs(np.asarray(pp.a_ang(xb)) - a0(xb)) / xb**2
    qb = np.abs(np.asarray(pp.b_mass(xb)) - b0(xb)) / (-xb)
    quad_sup = float(np.max(qa))
    lin_sup = float(np.max(qb))

    margin = min(theta_fit, beta_fit) - 0.95 * p.kappa
    passed = bool(margin >= 0.0 and np.isfinite(quad_sup) and np.isfinite(lin_sup))
    return EnvelopeReport(theta_fit, beta_fit, quad_sup, lin_sup, p.kappa, margin, passed)


# ------------------------------------------------------ boundary closures

def select_bc(p: Params) -> BoundaryCondition:
    """Bag-type wall for 2ml < 1, no boundary data for 2ml ≥ 1.

    Depends on the product m·l only, never on the black-hole mass.
    """
    return BoundaryCondition.MIT if p.two_ml < 1.0 else BoundaryCondition.NATURAL


_S_MIT: Optional[np.ndarray] = None


def mit_reflection() -> np.ndarray:
    """Ghost reflection S = 2Π − 𝟙 with Π the orthogonal projector onto
    ker(γ¹ + i·𝟙).

    The kernel is computed numerically (rank 2), so the two scalar
    constraints of the bag condition enter without hand-derived component
    relations.  Checked once at build: S is an involution and satisfies
    Γ¹S + S*Γ¹ = 0, the exact discrete self-adjointness condition.
    """
    global _S_MIT
    if _S_MIT is None:
        kernel = null_space(GAMMA[1] + 1j * np.eye(4))
        if kernel.shape[1] != 2:
            raise AssertionError("(γ¹ + i) must have a two-dimensional kernel")
        s = 2.0 * kernel @ kernel.conj().T - np.eye(4)
        g1 = VELOCITY.astype(complex)
        if not np.allclose(g1 @ s + s.conj().T @ g1, 0.0, atol=1e-13):
            raise AssertionError("reflection fails the self-adjointness condition")
        if not np.allclose(s @ s, np.eye(4), atol=1e-13):
            raise AssertionError("reflection must be an involution")
        _S_MIT = s
    return _S_MIT


# ------------------------------------------------------- operator assembly

@dataclass
class ChannelOperator:
    """Assembled banded Hamiltonian of one channel on one grid.

    Immutable after assembly.  ``matrix`` acts on node-major flattened
    fields (component index fastest, i.e. ``values.flatten(order="F")`` of
    a (4, n) array).
    """

    channel: Channel
    params: Optional[Params]
    grid: Grid
    bc: BoundaryCondition
    pair: PotentialPair
    matrix: sp.csc_matrix
    a_values: np.ndarray
    b_values: np.ndarray
    #: boundary exponent ml carried by the wall ghost weight, or None when
    #: the plain mirror closure is in effect (massless, natural, override,
    #: or wall layer not resolved by the grid)
    wall_exponent: Optional[float] = None

    @property
    def mass(self) -> float:
        return self.params.m if self.params is not None else 0.0

    def apply(self, values: np.ndarray) -> np.ndarray:
        """H acting on a (4, n) component array."""
        return (self.matrix @ values.flatten(order="F")).reshape(
            (4, self.grid.n), order="F"
        )

    def hermiticity_defect(self, n_pairs: int = 100, seed: int = 0) -> float:
        """max |⟨Hu, v⟩ − ⟨u, Hv⟩| / (‖u‖‖v‖) over random field pairs."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_pairs):
            u = rng.normal(size=(4, self.grid.n)) + 1j * rng.normal(size=(4, self.grid.n))
            v = rng.normal(size=(4, self.grid.n)) + 1j * rng.normal(size=(4, self.grid.n))
            hu, hv = self.apply(u), self.apply(v)
            d = self.grid.inner(hu, v) - self.grid.inner(u, hv)
            worst = max(worst, abs(d) / (self.grid.norm(u) * self.grid.norm(v)))
        return worst


def _wall_closures(grid: Grid, s_left, s_right, wall_exponent=None):
    """Ghost closures of −i·Γ¹·(centered difference), one 4×4 block per wall.

    Mirrored ghosts S·ψ fold +i/(2w₀)·Γ¹S_left into the first and
    −i/(2w_{n−1})·Γ¹S_right into the last diagonal block.  ``wall_exponent``
    = ν activates the exponent-weighted ghost at the right wall: the closure
    coefficient 1/(2w) becomes ν/t + (t/t′)^ν/(2w) with t, t′ the last two
    node distances, the unique symmetry-preserving choice that differentiates
    (−x)^{−ν}·(kernel spinor) exactly at the last row.  ``None`` keeps the
    plain mirror (massless / override / natural cases).
    """
    w = grid.weights
    g1 = VELOCITY.astype(complex)
    left = (1j / (2.0 * w[0])) * (g1 @ s_left)
    if wall_exponent is None:
        right = (-1j / (2.0 * w[-1])) * (g1 @ s_right)
    else:
        t_last = -grid.nodes[-1]
        t_prev = -grid.nodes[-2]
        g_wall = wall_exponent / t_last + (t_last / t_prev) ** wall_exponent / (2.0 * w[-1])
        right = (-1j * g_wall) * (g1 @ s_right)
    return left, right


def _block_matrix(
    grid: Grid, velocity, angular, mass, coupling, m, a_vals, b_vals, left=None, right=None
) -> sp.csc_matrix:
    """Node-major sparse matrix of −i·velocity·(centered difference) plus the
    pointwise potential coupling·A(x)·angular − m·B(x)·mass.

    Row j carries the blocks ∓i/(2w_j)·velocity at columns j ± 1 and the
    potential block at column j; ``left``/``right`` are ghost closures added
    to the first and last diagonal blocks (zero ghosts when omitted).  Exact
    zeros are dropped, so the sparsity pattern is that of the nonzero blocks.
    """
    n = grid.n
    coef = (-1j / (2.0 * grid.weights))[:, None, None]
    diag = (coupling * a_vals)[:, None, None] * angular - (m * b_vals)[:, None, None] * mass
    if left is not None:
        diag[0] += left
    if right is not None:
        diag[-1] += right
    blocks = np.concatenate([coef[:-1] * velocity, diag, -coef[1:] * velocity])
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


def assemble_hamiltonian(
    channel: Channel,
    params: Optional[Params],
    grid: Grid,
    pair: Optional[PotentialPair] = None,
    bc: Optional[BoundaryCondition] = None,
) -> ChannelOperator:
    """Build the banded channel Hamiltonian.

    For the black-hole pair the wall condition is dictated by the regime
    (bag-type iff 2ml < 1); passing a conflicting ``bc`` raises.  Override
    pairs accept either condition (default bag-type, matching the free
    comparison generator).
    """
    if pair is None:
        if params is None:
            raise ConfigurationError("need params or an explicit potential pair")
        pair = potentials_sads(params)

    if pair.mode == "sads":
        if params is None:
            params = pair.params
        if pair.params is not None and params != pair.params:
            raise ConfigurationError("potential pair was built from different params")
        required = select_bc(params)
        if bc is None:
            bc = required
        elif bc != required:
            raise ConfigurationError(
                f"regime 2ml={params.two_ml} requires {required}, got {bc}"
            )
    else:
        if bc is None:
            bc = BoundaryCondition.MIT

    a_vals = np.asarray(pair.a_ang(grid.nodes), dtype=float)
    b_vals = np.asarray(pair.b_mass(grid.nodes), dtype=float)
    m = params.m if params is not None else 0.0

    s_mirror = mit_reflection()
    s_right = s_mirror if bc == BoundaryCondition.MIT else np.zeros((4, 4))
    wall_exponent = None
    if (
        bc == BoundaryCondition.MIT
        and pair.mode == "sads"
        and m > 0.0
        and grid.resolves_wall_layer
    ):
        wall_exponent = m * params.l
    left, right = _wall_closures(grid, s_mirror, s_right, wall_exponent)
    matrix = _block_matrix(
        grid, VELOCITY.astype(complex), ANGULAR.astype(complex), MASS,
        channel.coupling, m, a_vals, b_vals, left, right,
    )
    return ChannelOperator(
        channel=channel,
        params=params,
        grid=grid,
        bc=bc,
        pair=pair,
        matrix=matrix,
        a_values=a_vals,
        b_values=b_vals,
        wall_exponent=wall_exponent,
    )


def free_operator(grid: Grid) -> ChannelOperator:
    """The comparison generator Γ¹D_x with the bag-type wall at x = 0."""
    return assemble_hamiltonian(
        Channel(0.5, 0.5), None, grid, potentials_zero(), BoundaryCondition.MIT
    )


# ------------------------------------------- conjugate operator + commutator

def conjugate_apply(values: np.ndarray, grid: Grid) -> np.ndarray:
    """𝒜 = Γ¹·x: component k at node x_j scaled by Γ¹_kk·x_j."""
    signs = np.diag(VELOCITY)
    return values * signs[:, None] * grid.nodes[None, :]


@dataclass(frozen=True)
class PointwiseBlocks:
    """A multiplication operator: one 4×4 block per node."""

    grid: Grid
    blocks: np.ndarray  # (n, 4, 4)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return np.einsum("jab,bj->aj", self.blocks, values)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.blocks - np.conj(np.transpose(self.blocks, (0, 2, 1))))))


def commutator_closed_form(op: ChannelOperator) -> PointwiseBlocks:
    """The commutator i[H, 𝒜] as a pointwise operator,

        𝟙 + 2i(s+1/2)·x·A(x)·γ²γ¹ + 2i·m·x·B(x)·γ¹.

    Self-adjoint because γ²γ¹ and γ¹ are anti-Hermitian and the scalar
    coefficients are real; matches the brute-force discrete commutator
    i(H𝒜 − 𝒜H) on interior fields to second order in the spacing.
    """
    g21 = GAMMA[2] @ GAMMA[1]
    g1 = GAMMA[1]
    x = op.grid.nodes
    ca = 2j * op.channel.coupling * x * op.a_values
    cb = 2j * op.mass * x * op.b_values
    blocks = (
        np.eye(4, dtype=complex)[None, :, :]
        + ca[:, None, None] * g21[None, :, :]
        + cb[:, None, None] * g1[None, :, :]
    )
    return PointwiseBlocks(op.grid, blocks)


def commutator_brute_force(op: ChannelOperator, values: np.ndarray) -> np.ndarray:
    """i(H(𝒜ψ) − 𝒜(Hψ)) evaluated through the assembled matrix."""
    return 1j * (
        op.apply(conjugate_apply(values, op.grid))
        - conjugate_apply(op.apply(values), op.grid)
    )


# ------------------------------------------------- representation identity

def _alt_matrix(op: ChannelOperator) -> sp.csc_matrix:
    """The same channel Hamiltonian in the alternative representation
    (γ⁰ diagonal): the one block assembler with that representation's
    velocity −γ⁰γ¹, angular γ⁰γ² and mass γ⁰ matrices and zero ghosts, so it
    is only meaningful on interior-supported fields."""
    g0, g1a, g2a, _ = GAMMA_ALT
    return _block_matrix(
        op.grid, -(g0 @ g1a), g0 @ g2a, g0,
        op.channel.coupling, op.mass, op.a_values, op.b_values,
    )


def transform_consistency(op: ChannelOperator, n_fields: int = 20, seed: int = 5) -> float:
    """Residual of H = U·(−H̃)·U⁻¹, U = BASIS_CHANGE·γ⁵_alt, on random
    interior bumps (zero on the two nodes nearest each wall, so neither
    operator's boundary closure is touched).  Algebraically exact, so the
    result is rounding-level."""
    alt = _alt_matrix(op)
    u = BASIS_CHANGE @ GAMMA5_ALT
    n = op.grid.n
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        psi = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        psi[:, :2] = 0.0
        psi[:, -2:] = 0.0
        lhs = op.apply(psi)
        flat = (u.conj().T @ psi).flatten(order="F")
        rhs = u @ (-(alt @ flat)).reshape((4, n), order="F")
        denom = op.grid.norm(psi)
        worst = max(worst, op.grid.norm(lhs - rhs) / denom)
    return worst
