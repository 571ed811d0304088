"""Radial channel Hamiltonians H = Γ¹D_x + (s+1/2)A(x)γ⁰γ² − m·B(x)γ⁰.

The potentials are the black-hole pair A = √F/r and B = √F of the params,
from the geometry module, unless the caller passes another map x ↦ (A, B)
(zero for the free comparison generator, deformed wells for negative
controls).  The wall is always the one the params' regime requires, and
bag-type without params.  The discrete operator is a banded matrix on a
cell-centered grid: a centered first difference (exactly skew-adjoint
against the grid inner product, see grids.py) plus pointwise 4×4 potential
blocks.  Boundary closures eliminate one ghost node per wall through a
reflection matrix S with Γ¹S + S*Γ¹ = 0, which is precisely the condition
making the closed operator self-adjoint in the weighted inner product:

* right wall (x = 0): for 2ml < 1 the reflection through the kernel of
  (γ¹ + i·𝟙) — the bag-type condition; for 2ml ≥ 1 a zero ghost — the mass
  barrier ~ ml/(−x) enforces decay by itself and no boundary data is needed.
  For the black-hole pair in the massive bag regime, when the grid
  resolves the wall layer (boundary-graded spacing), the ghost weight
  additionally carries the boundary exponent: states there behave like
  (−x)^{−ml} times a kernel spinor, and a plain mirrored difference
  misreads that power by an O(1) factor.  Tuning the single
  symmetry-allowed closure coefficient makes the wall row exact on the
  admissible branch while leaving the excluded (−x)^{+ml} branch
  penalized, which is what selects the right boundary behavior in
  stationary solves.  On uniform grids the layer is sub-cell — the
  weighted row would only plant a spurious quasi-mode in the last cell —
  so those keep the plain mirror, whose reflections are clean;
* left wall (x = x_min): always the bag-type reflection; experiments place
  x_min far enough left that no signal reaches it (propagation speed ≤ 1),
  so the wall only has to be norm-preserving, not physical.

Every solver works in one coordinate system, u = PW^{1/2}ψ (``to_sectors``),
with W the grid weights and P the per-node transform onto the sectors of
γ³γ⁵, and the assembled matrix acts on it: G = PSPᵀ/2 of
S = W^{1/2}HW^{−1/2}, Hermitian exactly when H is self-adjoint in the
weighted inner product.  Every node table (Γ¹, the two potential matrices
and the wall closures) is taken to sector form once per assembly, and
assembly refuses any with an entry across the sectors, or a Γ¹ that is not
diagonal there.  So G has no entry across the sectors, and its 4n rows are
two 2n-row blocks, the + sector's first, which every solver reads as
assembled.  Row (node j, slot a) of a block holds at most four entries:
the difference's ∓i·v_a/(2√(w_j w_{j±1})) at columns 2(j ± 1) + a, formed
once per edge and mirrored, so Hermitian to the last bit on every grid,
and node j's 2×2 potential block at columns 2j and 2j + 1.  The rows are
written straight into compressed sparse arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space

from .algebra import ANGULAR, Channel, GAMMA, MASS, VELOCITY
from .geometry import CoordinateMap, Params, Regime
from .grids import Grid, SpinorField

__all__ = [
    "ConfigurationError",
    "BoundaryCondition",
    "select_bc",
    "mit_reflection",
    "ChannelOperator",
    "to_sectors",
    "from_sectors",
    "assemble_hamiltonian",
    "free_operator",
    "PointwiseBlocks",
    "commutator_closed_form",
]


class ConfigurationError(ValueError):
    """Inconsistent or missing model data."""


class BoundaryCondition(Enum):
    MIT = "mit"
    NATURAL = "natural"


# ------------------------------------------------------ boundary closures

def select_bc(p: Params) -> BoundaryCondition:
    """Bag-type wall for 2ml < 1, no boundary data for 2ml ≥ 1.

    Depends on the product m·l only, never on the black-hole mass.
    """
    return BoundaryCondition.MIT if p.regime is Regime.SUBCRITICAL else BoundaryCondition.NATURAL


@cache
def mit_reflection() -> np.ndarray:
    """Ghost reflection S = 2Π − 𝟙 with Π the orthogonal projector onto
    ker(γ¹ + i·𝟙).

    The kernel is computed numerically (rank 2), so the two scalar
    constraints of the bag condition enter without hand-derived component
    relations.  Its entries are Gaussian integers, so the numeric S is
    snapped to the nearest ones (none may move by more than 1e−13): the
    rounding of the kernel solve would otherwise reach every operator as
    a hermiticity defect and as entries that mix the two sectors of
    γ³γ⁵.  Checked once at build: S is an involution and satisfies
    Γ¹S + S*Γ¹ = 0, the exact discrete self-adjointness condition.
    """
    kernel = null_space(GAMMA[1] + 1j * np.eye(4))
    if kernel.shape[1] != 2:
        raise AssertionError("(γ¹ + i) must have a two-dimensional kernel")
    numeric = 2.0 * kernel @ kernel.conj().T - np.eye(4)
    # + 0.0 turns the −0.0 that rounding leaves into +0.0
    s = np.round(numeric.real) + 0.0 + 1j * (np.round(numeric.imag) + 0.0)
    if np.max(np.abs(s - numeric)) > 1e-13:
        raise AssertionError("reflection entries must be Gaussian integers")
    g1 = VELOCITY.astype(complex)
    if not np.allclose(g1 @ s + s.conj().T @ g1, 0.0, atol=1e-13):
        raise AssertionError("reflection fails the self-adjointness condition")
    if not np.allclose(s @ s, np.eye(4), atol=1e-13):
        raise AssertionError("reflection must be an involution")
    return s


# ------------------------------------------------------- operator assembly

@dataclass
class ChannelOperator:
    """Assembled banded channel operator on one grid.

    Immutable after assembly.  ``matrix`` is G = PSPᵀ/2 of
    S = W^{1/2}HW^{−1/2}: 4n rows, the + sector's 2n first, acting on the
    sector coordinates u = ``to_sectors(ψ)``.
    """

    channel: Channel
    params: Optional[Params]
    grid: Grid
    bc: BoundaryCondition
    matrix: sp.csc_matrix
    a_values: np.ndarray
    b_values: np.ndarray
    #: boundary exponent ml carried by the wall ghost weight, or None when
    #: the plain mirror closure is in effect (massless, natural, potentials
    #: passed by the caller, or wall layer not resolved by the grid)
    wall_exponent: Optional[float] = None

    @property
    def mass(self) -> float:
        return self.params.m if self.params is not None else 0.0

    def hermiticity_defect(self, seed: Optional[int] = None) -> float:
        """The largest absolute row sum of the anti-Hermitian G − G†: a bound
        on ‖G − G†‖₂ = ‖S − S†‖₂ (P/√2 is orthogonal), zero exactly when H is
        self-adjoint in the weighted inner product, and at least
        |⟨Hu, v⟩ − ⟨u, Hv⟩| / (‖u‖‖v‖) for every field pair.  Computed once,
        without the sector split; ``seed`` is accepted and ignored."""
        return self._defect

    def sectors(self) -> Tuple["SectorBlock", ...]:
        """The two diagonal blocks of G (``_split_sectors``), sliced once;
        the arrays are read-only, since every caller shares them."""
        return self._sectors

    # what the two methods above read off G, each formed on first use
    @cached_property
    def _defect(self) -> float:
        g = self.matrix
        return float(np.max(abs(g - g.conj().T).sum(axis=1)))

    @cached_property
    def _sectors(self) -> Tuple["SectorBlock", ...]:
        return _split_sectors(self.matrix)


def _root(weights: np.ndarray) -> np.ndarray:
    """W^{1/2} on node-major flat fields."""
    return np.sqrt(np.repeat(weights, 4))


# ---------------------------------------------------------------- sectors
#
# Q = γ³γ⁵ commutes with Γ¹, ANGULAR, MASS and the wall reflection.  The rows
# of _SECTOR_ROWS span its eigenspaces, (1, 0, 0, −1) and (0, 1, 1, 0) for
# Q = +1 and (1, 0, 0, 1) and (0, 1, −1, 0) for Q = −1; with P that matrix at
# every node, PPᵀ = 2·𝟙, so a node table T acts on sector coordinates as
# PTPᵀ/2, with nothing across the sectors.

_SECTOR_ROWS = np.array([[1, 0, 0, -1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, -1, 0]])


@dataclass(frozen=True)
class SectorBlock:
    """One diagonal block of G = PSPᵀ/2."""

    rows: slice  # the sector coordinates the block acts on
    matrix: sp.csc_matrix  # that block G_b of G, as assembled
    bound: float  # R, its largest absolute row sum


def to_sectors(field: SpinorField) -> np.ndarray:
    """Sector coordinates u = PW^{1/2}ψ of a field, ‖u‖ = √2·‖ψ‖_W: the Q = +1
    sector's two components node-major in the first half, the Q = −1 sector's
    in the second.  P's rows are written out; a 4×4 product is ten times slower."""
    c = (_root(field.grid.weights) * field.values.flatten(order="F")).reshape(-1, 4)
    out = np.empty(c.size, dtype=complex)
    plus, minus = (half.reshape(-1, 2) for half in np.split(out, 2))
    plus[:, 0], plus[:, 1] = c[:, 0] - c[:, 3], c[:, 1] + c[:, 2]
    minus[:, 0], minus[:, 1] = c[:, 0] + c[:, 3], c[:, 1] - c[:, 2]
    return out


def from_sectors(u: np.ndarray, grid: Grid) -> np.ndarray:
    """The flat node-major field ψ = W^{−1/2}Pᵀu/2 of sector coordinates u
    on ``grid``, column by column when u has columns."""
    plus, minus = (half.reshape(u.shape[0] // 4, 2, *u.shape[1:]) for half in np.split(u, 2))
    out = np.empty((u.shape[0] // 4, 4) + u.shape[1:], dtype=complex)
    out[:, 0], out[:, 3] = 0.5 * (plus[:, 0] + minus[:, 0]), 0.5 * (minus[:, 0] - plus[:, 0])
    out[:, 1], out[:, 2] = 0.5 * (plus[:, 1] + minus[:, 1]), 0.5 * (plus[:, 1] - minus[:, 1])
    return out.reshape(u.shape) / _root(grid.weights).reshape((-1,) + (1,) * (u.ndim - 1))


def _gershgorin_bound(matrix: sp.spmatrix) -> float:
    """Largest absolute row sum, a bound on every eigenvalue's size."""
    return float(np.max(abs(matrix).sum(axis=1)))


def _split_sectors(g: sp.csc_matrix) -> Tuple[SectorBlock, ...]:
    """G's two 2n-row diagonal blocks, one per sector of γ³γ⁵.  Assembly
    writes nothing across them, but a matrix swapped in by
    ``dataclasses.replace`` may: a nonzero entry across raises
    ``ConfigurationError``."""
    half = g.shape[0] // 2
    crossing = sum(np.count_nonzero(c.data) for c in (g[:half, half:], g[half:, :half]))
    if crossing:
        raise ConfigurationError(
            f"{crossing} entries of G = PSPᵀ/2 cross the sectors of γ³γ⁵"
        )
    blocks = []
    for rows in (slice(0, half), slice(half, g.shape[0])):
        matrix = g[rows, rows]
        for frozen in (matrix.data, matrix.indices, matrix.indptr):
            frozen.flags.writeable = False
        blocks.append(SectorBlock(rows, matrix, _gershgorin_bound(matrix)))
    return tuple(blocks)


def _sector_form(table: np.ndarray, name: str) -> np.ndarray:
    """The two diagonal 2×2 blocks of P·table·Pᵀ/2, shape (sector, 2, 2), for
    a node's 4×4 table.  Every table here has one entry per row, so each
    entry is half a sum of at most two of equal size: exact.  An entry
    across the sectors raises ``ConfigurationError``."""
    g = _SECTOR_ROWS @ table @ _SECTOR_ROWS.T / 2.0
    if np.any(g[:2, 2:]) or np.any(g[2:, :2]):
        raise ConfigurationError(f"the {name} table has an entry across the sectors of γ³γ⁵")
    return np.stack([g[:2, :2], g[2:, 2:]])


def _wall_closures(grid: Grid, s_left, s_right, wall_exponent=None):
    """Ghost closures of −i·Γ¹·(centered difference), one 4×4 block per wall.

    Mirrored ghosts S·ψ fold +i/(2w₀)·Γ¹S_left into the first and
    −i/(2w_{n−1})·Γ¹S_right into the last diagonal block.  ``wall_exponent``
    = ν activates the exponent-weighted ghost at the right wall: the closure
    coefficient 1/(2w) becomes ν/t + (t/t′)^ν/(2w) with t, t′ the last two
    node distances, the unique symmetry-preserving choice that differentiates
    (−x)^{−ν}·(kernel spinor) exactly at the last row.  ``None`` keeps the
    plain mirror (massless / given potentials / natural cases).
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


#: the columns of row (node j, slot a) of a sector block, less 2j:
#: 2(j − 1) + a, node j's 2j and 2j + 1, and 2(j + 1) + a
_OFFSETS = np.array([[-2, 0, 1, 2], [-1, 0, 1, 3]], dtype=np.int32)


def _block_matrix(grid: Grid, coupling, m, a_vals, b_vals, left, right) -> sp.csc_matrix:
    """G = PSPᵀ/2 of S = W^{1/2}HW^{−1/2}, H = −i·VELOCITY·(centered
    difference) + coupling·A(x)·ANGULAR − m·B(x)·MASS, written in sector
    coordinates.

    Each table is taken to sector form (``_sector_form``), where VELOCITY
    must be diagonal, v_σ = diag(v_σ0, v_σ1) in sector σ, or
    ``ConfigurationError`` is raised.  Row 2nσ + 2j + a (sector σ, node j,
    slot a) holds at most four entries, at the columns ``_OFFSETS`` gives,
    offset by 2nσ + 2j: −c_{j−1}·v_σa, node j's 2×2 block and c_j·v_σa,
    with c_j = −i/(2√(w_j w_{j+1})) the coefficient of edge (j, j + 1).
    ``left``/``right`` are the ghost closures added to the first and last
    node blocks.  The entries go into a value table of four slots per row
    beside their column table; zero signs are cleared to +0.0, exact zeros
    are dropped with one mask, and the CSR arrays so written are converted
    to CSC once.
    """
    n = grid.n
    velocity = _sector_form(VELOCITY, "velocity")
    if np.any(velocity[:, [0, 1], [1, 0]]):
        raise ConfigurationError("the velocity matrix must be diagonal in sector form")
    v = np.diagonal(velocity, axis1=1, axis2=2)[:, None, :]  # (sector, 1, slot)
    w = grid.weights
    edge = (-1j / (2.0 * np.sqrt(w[:-1] * w[1:])))[:, None]
    node = (
        (coupling * a_vals)[:, None, None, None] * _sector_form(ANGULAR, "angular")
        - (m * b_vals)[:, None, None, None] * _sector_form(MASS, "mass")
    )
    node[0] += _sector_form(left, "left wall closure")
    node[-1] += _sector_form(right, "right wall closure")
    values = np.empty((2, n, 2, 4), dtype=complex)
    values[:, 1:, :, 0] = -edge * v
    values[:, :, :, 1:3] = node.transpose(1, 0, 2, 3)
    values[:, :-1, :, 3] = edge * v
    values[:, 0, :, 0] = values[:, -1, :, 3] = 0.0  # no node beyond either wall
    # the −0.0 the products leave become +0.0, the sign a sum from zero gives
    values.real += 0.0
    values.imag += 0.0
    first = 2 * n * np.arange(2, dtype=np.int32)[:, None] + 2 * np.arange(n, dtype=np.int32)
    columns = first[:, :, None, None] + _OFFSETS
    keep = values != 0
    indptr = np.zeros(4 * n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=3).ravel(), out=indptr[1:])
    return sp.csr_matrix(
        (values[keep], columns[keep], indptr), shape=(4 * n, 4 * n)
    ).tocsc()


def assemble_hamiltonian(
    channel: Channel,
    params: Optional[Params],
    grid: Grid,
    potentials: Optional[Callable] = None,
) -> ChannelOperator:
    """Build the banded channel operator, G = PSPᵀ/2 of S = W^{1/2}HW^{−1/2}.

    The potentials are the black-hole pair √F/r and √F of ``params``,
    unless ``potentials`` maps the node array x to (A(x), B(x)); the pair
    is solved once per (M, l) and node set, then read from
    ``geometry.inverse_memo`` whatever the channel and mass.  The wall
    is always ``select_bc(params)``, bag-type when ``params`` is None; the
    exponent-weighted wall row applies only to the black-hole pair.
    """
    if potentials is None:
        if params is None:
            raise ConfigurationError("need params or potentials")
        cm = CoordinateMap(params)
        a_vals, b_vals = cm.angular_factor_of_x(grid.nodes), cm.sqrtF_of_x(grid.nodes)
    else:
        a_vals, b_vals = (np.asarray(v, dtype=float) for v in potentials(grid.nodes))
        if a_vals.shape != grid.nodes.shape or b_vals.shape != grid.nodes.shape:
            raise ConfigurationError(
                f"a potential map must return two arrays of shape ({grid.n},), "
                f"got {a_vals.shape} and {b_vals.shape}"
            )
    bc = select_bc(params) if params is not None else BoundaryCondition.MIT
    m = params.m if params is not None else 0.0

    s_mirror = mit_reflection()
    s_right = s_mirror if bc == BoundaryCondition.MIT else np.zeros((4, 4))
    wall_exponent = None
    if (
        bc == BoundaryCondition.MIT
        and potentials is None
        and m > 0.0
        and grid.resolves_wall_layer
    ):
        wall_exponent = m * params.l
    left, right = _wall_closures(grid, s_mirror, s_right, wall_exponent)
    matrix = _block_matrix(grid, channel.coupling, m, a_vals, b_vals, left, right)
    return ChannelOperator(
        channel=channel,
        params=params,
        grid=grid,
        bc=bc,
        matrix=matrix,
        a_values=a_vals,
        b_values=b_vals,
        wall_exponent=wall_exponent,
    )


def free_operator(grid: Grid) -> ChannelOperator:
    """The comparison generator Γ¹D_x with the bag-type wall at x = 0."""
    return assemble_hamiltonian(
        Channel(0.5, 0.5), None, grid, lambda x: (np.zeros_like(x), np.zeros_like(x))
    )


# ------------------------------------------------------------ commutator

@dataclass(frozen=True)
class PointwiseBlocks:
    """A multiplication operator: one 4×4 block per node."""

    grid: Grid
    blocks: np.ndarray  # (n, 4, 4)

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
