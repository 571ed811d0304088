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

Row 4j + a of the assembled matrix (node j, component a) holds at most
four entries: the difference's ∓i/(2w_j)·Γ¹_aa at columns 4(j ∓ 1) + a,
and node j's potential block at two partner columns 4j + c.  Γ¹ is
diagonal, and the two partners of each component are the supports of
γ⁰γ² and γ⁰, on which the wall closures Γ¹S fall too; both facts are read
off the algebra at assembly, which refuses anything that breaks them.
The rows are written straight into compressed sparse arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space

from .algebra import ANGULAR, Channel, GAMMA, MASS, VELOCITY
from .geometry import CoordinateMap, Params, Regime
from .grids import Grid

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


_S_MIT: Optional[np.ndarray] = None


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
    global _S_MIT
    if _S_MIT is None:
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
    matrix: sp.csc_matrix
    a_values: np.ndarray
    b_values: np.ndarray
    #: boundary exponent ml carried by the wall ghost weight, or None when
    #: the plain mirror closure is in effect (massless, natural, potentials
    #: passed by the caller, or wall layer not resolved by the grid)
    wall_exponent: Optional[float] = None
    #: what ``hermiticity_defect`` and ``sectors`` built, kept for the
    #: operator's lifetime
    _defect: Optional[float] = field(default=None, init=False, repr=False, compare=False)
    _sectors: Optional[Tuple["SectorBlock", ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def mass(self) -> float:
        return self.params.m if self.params is not None else 0.0

    def hermiticity_defect(self, seed: Optional[int] = None) -> float:
        """The largest absolute row sum of the anti-Hermitian S − S†, for
        S = W^{1/2} H W^{−1/2}: a bound on ‖S − S†‖₂, zero up to rounding
        exactly when H is self-adjoint in the weighted inner product, and at
        least |⟨Hu, v⟩ − ⟨u, Hv⟩| / (‖u‖‖v‖) for every field pair.  Computed
        once, without the sector split; ``seed`` is accepted and ignored."""
        if self._defect is None:
            s = _scaled(self.matrix, self.grid.weights)
            self._defect = float(np.max(abs(s - s.conj().T).sum(axis=1)))
        return self._defect

    def sectors(self) -> Tuple["SectorBlock", ...]:
        """The diagonal blocks of H and of the Hermitian (S + S†)/2 in sector
        coordinates (``to_sectors``): one per sector of γ³γ⁵ when no entry
        couples the two, else one of every coordinate.  Built once; the
        arrays are read-only, since every caller shares them."""
        if self._sectors is None:
            s = _scaled(self.matrix, self.grid.weights)
            self._sectors = _split_sectors(self.matrix, ((s + s.conj().T) / 2.0).tocsc())
        return self._sectors


def _scaled(matrix: sp.csc_matrix, weights: np.ndarray) -> sp.csc_matrix:
    """S = W^{1/2} H W^{−1/2} of a CSC matrix, entry by entry, each entry's
    column read from ``indptr``: bit for bit the dense product."""
    root = np.sqrt(np.repeat(weights, 4))
    col = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    data = root[matrix.indices] * matrix.data / root[col]
    return sp.csc_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)


# ---------------------------------------------------------------- sectors
#
# Q = γ³γ⁵ commutes with Γ¹, ANGULAR, MASS and the wall reflection, so it
# commutes with every assembled H node by node.  The rows of _SECTOR_ROWS
# span its eigenspaces, (1, 0, 0, −1) and (0, 1, 1, 0) for Q = +1 and
# (1, 0, 0, 1) and (0, 1, −1, 0) for Q = −1; with P that matrix at every node,
# PPᵀ = 2·𝟙, so ψ = Pᵀv/2 and H acts on v = Pψ as PHPᵀ/2, whose entries are
# sums and differences of H's with no rounding where the sectors cancel.

_SECTOR_ROWS = np.array([[1, 0, 0, -1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, -1, 0]])


@dataclass(frozen=True)
class SectorBlock:
    """One diagonal block of an operator in sector coordinates."""

    rows: slice  # the sector coordinates the block acts on
    hamiltonian: sp.csc_matrix  # that block of PHPᵀ/2
    scaled: sp.csr_matrix  # 2S/R for that block of the averaged PSPᵀ/2
    bound: float  # R, the block's largest absolute row sum


def to_sectors(flat: np.ndarray) -> np.ndarray:
    """Sector coordinates v = Pψ of a flat node-major field: the Q = +1
    sector's two components node-major in the first half, the Q = −1
    sector's in the second.  The rows of P are written out, since a
    product with the 4×4 table is ten times slower."""
    c = flat.reshape(-1, 4)
    out = np.empty(flat.size, dtype=complex)
    plus, minus = (half.reshape(-1, 2) for half in np.split(out, 2))
    plus[:, 0], plus[:, 1] = c[:, 0] - c[:, 3], c[:, 1] + c[:, 2]
    minus[:, 0], minus[:, 1] = c[:, 0] + c[:, 3], c[:, 1] - c[:, 2]
    return out


def from_sectors(v: np.ndarray) -> np.ndarray:
    """The flat node-major field ψ = Pᵀv/2 of sector coordinates v, column
    by column when v has columns."""
    plus, minus = (half.reshape(-1, 2, *v.shape[1:]) for half in np.split(v, 2))
    out = np.empty((v.shape[0] // 4, 4) + v.shape[1:], dtype=complex)
    out[:, 0], out[:, 3] = 0.5 * (plus[:, 0] + minus[:, 0]), 0.5 * (minus[:, 0] - plus[:, 0])
    out[:, 1], out[:, 2] = 0.5 * (plus[:, 1] + minus[:, 1]), 0.5 * (plus[:, 1] - minus[:, 1])
    return out.reshape(v.shape)


def _gershgorin_bound(matrix: sp.spmatrix) -> float:
    """Largest absolute row sum, a bound on every eigenvalue's size."""
    return float(np.max(abs(matrix).sum(axis=1)))


def _split_sectors(matrix: sp.csc_matrix, sym: sp.csc_matrix) -> Tuple[SectorBlock, ...]:
    """H and S in sector coordinates, cut into their diagonal blocks: two
    when neither has an entry across the sectors, else one."""
    size = matrix.shape[0]
    j = 4 * np.arange(size // 4)[:, None]
    order = np.concatenate([(j + [0, 1]).ravel(), (j + [2, 3]).ravel()])
    p = sp.kron(sp.identity(size // 4, format="csr"), _SECTOR_ROWS, format="csr")[order]
    h, s = ((p @ m @ p.T * 0.5).tocsc() for m in (matrix, sym))
    for m in (h, s):
        m.eliminate_zeros()
    half = size // 2
    crossing = sum(m[:half, half:].nnz + m[half:, :half].nnz for m in (h, s))
    cuts = (slice(0, size),) if crossing else (slice(0, half), slice(half, size))
    blocks = []
    for rows in cuts:
        h_block, s_block = h[rows, rows], s[rows, rows]
        bound = _gershgorin_bound(s_block)
        scaled = (s_block * (2.0 / bound)).tocsr()
        for m in (h_block, scaled):
            for frozen in (m.data, m.indices, m.indptr):
                frozen.flags.writeable = False
        blocks.append(SectorBlock(rows, h_block, scaled, bound))
    return tuple(blocks)


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


def _partner_columns(reflection: np.ndarray) -> np.ndarray:
    """The two columns of each component's row in a node's potential block,
    read off the algebra: the supports of ANGULAR and MASS, on which the
    wall closures Γ¹S fall too.

    Raises ``ConfigurationError`` unless VELOCITY is diagonal and every row
    of the union holds exactly two entries: the row layout
    ``_block_matrix`` writes has room for nothing else.
    """
    if np.any(VELOCITY != np.diag(np.diag(VELOCITY))):
        raise ConfigurationError("the velocity matrix must be diagonal")
    support = (ANGULAR != 0) | (MASS != 0) | (VELOCITY @ reflection != 0)
    if np.any(support.sum(axis=1) != 2):
        raise ConfigurationError(
            "each row of a node's potential block and wall closures must have "
            f"exactly two entries, got {support.sum(axis=1).tolist()}"
        )
    return np.nonzero(support)[1].reshape(4, 2)


def _block_matrix(grid: Grid, coupling, m, a_vals, b_vals, left, right, partners) -> sp.csc_matrix:
    """Node-major sparse matrix of −i·VELOCITY·(centered difference) plus the
    pointwise potential coupling·A(x)·ANGULAR − m·B(x)·MASS.

    Row 4j + a holds at most four entries, in column order: −coef_j·v_a at
    column 4(j − 1) + a, node j's potential block at its two ``partners``
    columns 4j + c for component a, and coef_j·v_a at column 4(j + 1) + a,
    with coef = −i/(2w) and v = diag(VELOCITY).  ``left``/``right`` are the
    ghost closures added to the first and last potential blocks; an entry
    of theirs off the partner columns raises ``ConfigurationError``.  The
    entries go into a value table of four slots per row beside their column
    table, exact zeros are dropped with one mask, and the CSR arrays so
    written are converted to CSC once.
    """
    n = grid.n
    comp = np.arange(4)[:, None]
    off_pattern = np.ones((4, 4), dtype=bool)
    off_pattern[comp, partners] = False
    if np.any(left[off_pattern]) or np.any(right[off_pattern]):
        raise ConfigurationError("a wall closure has an entry off the potential blocks' pattern")
    v = np.diag(VELOCITY).astype(complex)
    coef = (-1j / (2.0 * grid.weights))[:, None]
    diag = (
        (coupling * a_vals)[:, None] * ANGULAR.astype(complex)[comp, partners].ravel()
        - (m * b_vals)[:, None] * MASS[comp, partners].ravel()
    ).reshape(n, 4, 2)
    diag[0] += left[comp, partners]
    diag[-1] += right[comp, partners]
    values = np.empty((n, 4, 4), dtype=complex)
    values[:, :, 0] = -coef * v
    values[:, :, 1:3] = diag
    values[:, :, 3] = coef * v
    values[0, :, 0] = values[-1, :, 3] = 0.0  # no node beyond either wall
    offsets = np.column_stack([comp - 4, partners, comp + 4]).astype(np.int32)
    columns = 4 * np.arange(n, dtype=np.int32)[:, None, None] + offsets
    keep = values != 0
    indptr = np.zeros(4 * n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2).ravel(), out=indptr[1:])
    return sp.csr_matrix(
        (values[keep], columns[keep], indptr), shape=(4 * n, 4 * n)
    ).tocsc()


def assemble_hamiltonian(
    channel: Channel,
    params: Optional[Params],
    grid: Grid,
    potentials: Optional[Callable] = None,
) -> ChannelOperator:
    """Build the banded channel Hamiltonian.

    The potentials are the black-hole pair √F/r and √F of ``params``,
    unless ``potentials`` maps the node array x to (A(x), B(x)).  The wall
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
    matrix = _block_matrix(
        grid, channel.coupling, m, a_vals, b_vals, left, right, _partner_columns(s_mirror)
    )
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
