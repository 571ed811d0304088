"""Discrete spectral experiments.

Four numerical shadows of the channel operator's spectral theory:

* ``level_count`` and ``eigendecompose`` — the weighted symmetric
  eigenproblem.  H is self-adjoint in ⟨u, v⟩_W = Σ_j w_j u(x_j)†v(x_j), so
  S = W^{1/2} H W^{−1/2} is Hermitian and its eigenpairs give spectral
  projections by functional calculus.  The assembled matrix
  (``ChannelOperator.matrix``) is S in the sector coordinates
  u = PW^{1/2}ψ, G = PSPᵀ/2, and every solver reads its two γ³γ⁵
  blocks, each tridiagonal in nodes, as assembled: the levels below any σ
  come from the inertia of one block LDL† sweep, in O(n), those of a
  window [a, b] from one
  shift-invert Lanczos solve per block about the window centre, sized by
  its count.  Both need S Hermitian and refuse an operator whose
  ``hermiticity_defect`` is not 0.  Nothing computes the whole spectrum.
* ``mourre_check`` — positivity of the localized commutator: the minimum
  Rayleigh quotient of P_I C P_I on ran P_I, with C the closed-form
  commutator i[H, 𝒜].  The harness holds it to 1 − ``MOURRE_EPS`` on two
  grids, and the drift between them to ``MOURRE_STABILITY``; η =
  ‖P_I(C − 𝟙)P_I‖, the measured size of the compact correction, is
  reported alongside.
* ``no_eigenvalue_test`` — the ODE mechanism behind the empty point
  spectrum: after the phase rotation e^{iλγ⁰γ¹x}, a putative eigenfunction
  satisfies w′ = W(x)w with ∫‖W‖ finite (exponential horizon decay), so
  the propagation matrix from depth −X has an invertible limit and no
  nonzero solution can decay at −∞.  W commutes with γ³γ⁵, so Φ is two
  2×2 sector blocks, from one sweep of a fourth-order Gauss–Magnus
  integrator on a graded fixed-step mesh, with W at every Gauss point from
  one vectorized coordinate inverse and each exponential in closed form;
  it keeps Φ†Γ¹Φ = Γ¹ to rounding.  The harness holds ‖Φ_X − Φ_{2X}‖₂ to
  ``DEPTH_TOL`` and cond₂ Φ_X to ``CONDITION_LIMIT``, a line each.
* ``boundary_exponent_fit`` — the wall behavior of domain elements probed
  through the resolvent: solve (H − z)u = f as (G − z)y = PW^{1/2}f, and
  fit log‖u‖ against log(−x) on a boundary-graded tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .algebra import ANGULAR, Channel, MASS, VELOCITY
from .channel import (
    ChannelOperator, ConfigurationError, _sector_form, commutator_closed_form, from_sectors,
    to_sectors,
)
from .dynamics import NumericError
from .geometry import CoordinateMap, Params, Regime
from .grids import Grid, SpinorField

__all__ = [
    "SpectralDecomposition",
    "level_count",
    "eigendecompose",
    "MourreReport",
    "mourre_check",
    "NoEigenvalueReport",
    "no_eigenvalue_test",
    "BoundaryFitReport",
    "boundary_exponent_fit",
]

#: the Mourre bounds: each grid's min quotient at least 1 − MOURRE_EPS, and
#: the quotient moving at most MOURRE_STABILITY between the two grids
MOURRE_EPS = 0.5
MOURRE_STABILITY = 0.05
#: the no-eigenvalue bounds: ‖Φ_X − Φ_{2X}‖₂ and cond₂ Φ_X at most these
DEPTH_TOL = 1e-8
CONDITION_LIMIT = 1e3
#: the eigensolve's contract: residual ‖G_b x − λx‖ at most EIGEN_TOL·max|λ|
#: and Gram defect at most EIGEN_TOL
EIGEN_TOL = 1e-10
#: the matching point x₀ of the no-eigenvalue sweep, which runs from −2X to it
_X0 = -1.0
#: the no-eigenvalue sweep: Magnus step h = _STEP/max(1, |λ|/2) where W
#: matters, one step per probe cell (length ≤ _CELL) where ‖W‖ ≤ _NEGLIGIBLE
_STEP = 0.01
_CELL = 1.0
_NEGLIGIBLE = 1e-13
#: steps per batch of the Magnus sweep, which bounds its memory at any λ
_CHUNK = 4096
#: two-point Gauss–Legendre nodes on [0, 1]
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
#: Γ¹, ANGULAR and MASS in sector form, (sector, 2, 2): W is two 2×2 blocks
_VELOCITY, _ANGULAR, _MASS = (_sector_form(t, "sweep") for t in (VELOCITY, ANGULAR, MASS))
#: a pivot eigenvalue below _ROOT_EPS·max|G_ij| of its sector block is zero
_ROOT_EPS = math.sqrt(np.finfo(float).eps)


# ---------------------------------------------------------- eigendecompose

@dataclass
class SpectralDecomposition:
    """Eigenvalues (sorted) and W-orthonormal eigenvectors of a channel
    operator on a window; ``vectors[:, k]`` is the flattened
    (component-fastest) eigenvector for ``eigenvalues[k]``.  ``requested``
    is the number of pairs the Lanczos solves of the sector blocks were
    asked for together, 0 when the window holds no level and nothing was
    solved.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    grid: Grid
    max_residual: float
    orthonormality_defect: float
    requested: int


def _block_counts(op: ChannelOperator, sigmas) -> np.ndarray:
    """``level_count`` per sector block, shape (2,) + σ's shape.  Coordinate
    i of a block sits at node i // 2, slot i % 2.  Raises
    ``ConfigurationError`` when S is not Hermitian; a NaN entry is left to
    the pivot check."""
    sigmas = np.asarray(sigmas, dtype=float)
    blocks, n = op.sectors(), op.grid.n
    defect = op.hermiticity_defect()
    if defect > 0.0:
        raise ConfigurationError(
            f"the level count and the window solve need a Hermitian S; "
            f"its hermiticity defect is {defect:.3e}"
        )
    diag = np.zeros((n, len(blocks), 2, 2), dtype=complex)
    upper = np.zeros_like(diag)  # the block of nodes (j − 1, j) at j; zero at 0
    for i, block in enumerate(blocks):
        g = block.matrix.tocoo()
        (node, a), (col, c) = np.divmod(g.row, 2), np.divmod(g.col, 2)
        distance = int(np.max(np.abs(node - col), initial=0))
        if distance >= 2:  # the sweep would read the entry as zero
            raise ConfigurationError(f"inertia sweep: S couples nodes {distance} apart")
        on, up = node == col, col == node + 1
        diag[node[on], i, a[on], c[on]] = g.data[on]
        upper[col[up], i, a[up], c[up]] = g.data[up]
    # one batch entry per (block, σ)
    diag, upper = (np.repeat(m, sigmas.size, axis=1) for m in (diag, upper))
    shift = np.tile(sigmas, len(blocks)).reshape(-1, 1, 1) * np.eye(2)
    floor = _ROOT_EPS * np.repeat([abs(b.matrix.data).max() for b in blocks], sigmas.size)
    below = np.zeros(floor.size, dtype=int)
    inverse = np.zeros_like(shift, dtype=complex)  # what G_{j−1,j} meets: D_{j−1}^{−1}
    merge = np.zeros(floor.size, dtype=bool)  # D_{j−1} is near-singular
    for j in range(n):
        x, b, b_adj = diag[j] - shift, upper[j], upper[j].conj().transpose(0, 2, 1)
        pivot = x - b_adj @ inverse @ b
        if not np.all(np.isfinite(pivot)):
            raise NumericError("non-finite pivot in the inertia sweep", {"node": j})
        mu, v = np.linalg.eigh(pivot)
        negative = np.sum(mu < 0.0, axis=1)
        small = np.abs(mu) < floor[:, None]
        # finite stand-ins where a pivot is merged with the next node instead
        inverse = (v / np.where(small, floor[:, None], mu)[:, None, :]) @ v.conj().swapaxes(1, 2)
        if merge.any():  # D_{j−1} and node j as one 4×4 pivot
            block = np.block([[last[merge], b[merge]], [b_adj[merge], x[merge]]])
            nu = np.linalg.eigvalsh(block)
            if np.any(np.abs(nu) < floor[merge, None]):
                raise NumericError("near-singular merged pivot in the inertia sweep", {"node": j})
            negative[merge] = np.sum(nu < 0.0, axis=1) - last_negative[merge]
            inverse[merge] = np.linalg.inv(block)[:, 2:, 2:]
            small[merge] = False
        below += negative
        merge, last, last_negative = small.any(axis=1), pivot, negative
    return below.reshape((len(blocks),) + sigmas.shape)


def level_count(op: ChannelOperator, sigmas) -> np.ndarray:
    """The number of levels of H below each σ, by Sylvester's law of inertia.

    On each sector block G_b of G = PSPᵀ/2, as assembled, the block LDL†
    sweep D_j = G_jj − σ − G_{j−1,j}† D_{j−1}^{−1} G_{j−1,j} over 2×2 node
    blocks reduces G_b − σI congruently to pivots whose negative
    eigenvalues are the levels below σ: O(n) small solves for every σ and
    block at once.  Sylvester's law needs G_b Hermitian, so an S with a
    nonzero ``hermiticity_defect`` raises ``ConfigurationError``.  A pivot
    eigenvalue below √ε·max|G_ij| (σ at a level of a leading block, as at
    a wall closure's) would spoil the pivots after it, so that pivot joins
    the next node, the 2×2-block pivot of Bunch and Kaufman.  A
    near-singular merged or a non-finite pivot raises ``NumericError``; an
    entry coupling nodes two or more apart, read as zero otherwise,
    ``ConfigurationError``."""
    return _block_counts(op, sigmas).sum(axis=0)


def _accuracy(solved) -> Tuple[float, float]:
    """Largest residual ‖Gx − λx‖ and Gram defect x†x − 𝟙 over the
    (G, λ, x) triples of ``solved``, each a matrix with eigenvalues and
    orthonormal columns; raises past ``EIGEN_TOL``·max|λ| over every
    triple, or past ``EIGEN_TOL``, since every downstream projection trusts
    them."""
    max_res = ortho = scale = 0.0
    for g, lam, x in solved:
        res = np.linalg.norm(g @ x - x * lam[None, :], axis=0)
        gram = np.abs(x.conj().T @ x - np.eye(lam.size))
        max_res = max(max_res, float(res.max(initial=0.0)))
        ortho = max(ortho, float(gram.max(initial=0.0)))
        scale = max(scale, float(np.max(np.abs(lam), initial=0.0)))
    if max_res > EIGEN_TOL * scale or ortho > EIGEN_TOL:
        raise NumericError(
            "eigendecomposition accuracy contract violated",
            {"max_residual": max_res, "orthonormality": ortho, "scale": scale},
        )
    return max_res, ortho


def eigendecompose(op: ChannelOperator, window: Tuple[float, float]) -> SpectralDecomposition:
    """Eigenpairs of H in the weighted inner product with eigenvalue in
    the window [a, b].

    One inertia sweep counts each sector block's levels in the window and
    within √ε·max|G_ij| of the centre σ; like ``level_count`` it refuses an
    S that is not Hermitian.  Levels at σ would make a shift-invert factor
    singular: they raise ``ConfigurationError`` naming σ and their number.
    Each block G_b holding levels gets one shift-invert Lanczos solve about
    σ, for its count plus a margin, and a Rayleigh–Ritz step.  The count
    levels nearest the centre are exactly the block's window levels, so a
    solve with another number raises ``NumericError`` naming the totals
    found and counted; a window too wide for Lanczos (2k ≥ the block's
    dimension) raises ``ConfigurationError``.  The pairs pass one accuracy
    check on their blocks, residual ‖G_b x − λx‖ ≤ ``EIGEN_TOL``·max|λ| and
    Gram defect ≤ ``EIGEN_TOL``, or ``NumericError``; in exact arithmetic
    these are the W-norm residual and W-Gram defect of the eigenfields.  The vectors then
    map back once, by √2·``from_sectors``, as ‖u‖ = √2·‖ψ‖_W.
    """
    a, b = float(window[0]), float(window[1])
    if not b > a:
        raise ConfigurationError("empty window")
    blocks = op.sectors()
    sigma = 0.5 * (a + b)
    floor = _ROOT_EPS * max(abs(block.matrix.data).max() for block in blocks)
    lo, below, above, hi = _block_counts(op, (a, sigma - floor, sigma + floor, b)).T
    if np.any(above > below):
        raise ConfigurationError(
            f"window [{a}, {b}] is centred on a level: {int(np.sum(above - below))} levels "
            f"lie within {floor:.1e} of σ = {sigma:g}"
        )
    counts = hi - lo
    count, dim = int(counts.sum()), 4 * op.grid.n
    solved, requested = [], 0  # (G_b, λ, x) per block, x orthonormal columns
    for block, block_count in zip(blocks, counts):
        g = block.matrix
        size = g.shape[0]
        if block_count == 0:
            solved.append((g, np.empty(0), np.empty((size, 0))))
            continue
        k = int(block_count) + max(8, int(block_count) // 4)
        if 2 * k >= size:
            raise ConfigurationError(
                f"window [{a}, {b}] holds {count} of {dim} levels; "
                f"Lanczos needs 2k < {size}, k = {k}"
            )
        requested += k
        try:
            lu = spla.splu((g - sigma * sp.identity(size, format="csc")).tocsc())
        except RuntimeError as exc:
            raise NumericError("shift-invert factorization failed", {"sigma": sigma}) from exc
        opinv = spla.LinearOperator((size, size), matvec=lu.solve, dtype=complex)
        # a fixed start vector keeps the solve reproducible
        v0 = np.random.default_rng(0).standard_normal(size).astype(complex)
        try:
            _, basis = spla.eigsh(g, k=k, sigma=sigma, OPinv=opinv, v0=v0)
        except spla.ArpackError as exc:
            raise NumericError("shift-invert Lanczos failed", {"k": k}) from exc
        q, _ = np.linalg.qr(basis)
        ritz = q.conj().T @ (g @ q)
        lam, y = sla.eigh((ritz + ritz.conj().T) / 2.0)
        keep = (lam >= a) & (lam <= b)
        solved.append((g, lam[keep], q @ y[:, keep]))
    found = [lam.size for _, lam, _ in solved]
    if found != counts.tolist():
        raise NumericError(
            f"window solve found {sum(found)} levels in [{a}, {b}], inertia counts {count}",
            {"found": sum(found), "counted": count, "requested": requested},
        )
    max_res, ortho = _accuracy(solved)
    lam = np.concatenate([lam for _, lam, _ in solved])
    order = np.argsort(lam, kind="stable")
    # the blocks' rows follow one another, so their vectors stack block-diagonally
    u = sla.block_diag(*(x for _, _, x in solved))[:, order]
    vectors = math.sqrt(2.0) * from_sectors(u, op.grid)
    return SpectralDecomposition(lam[order], vectors, op.grid, max_res, ortho, requested)


# ------------------------------------------------------------ Mourre check

@dataclass
class MourreReport:
    n_states: int
    min_quotient: float
    eta: float  # ‖P_I (C − 𝟙) P_I‖, the compact-correction magnitude
    # the eigensolve behind P_I: pairs requested, largest residual and
    # Gram defect of the pairs it returned
    requested: int
    max_residual: float
    orthonormality_defect: float


def mourre_check(op: ChannelOperator, interval: Tuple[float, float]) -> MourreReport:
    """Minimum of the localized commutator on the spectral window.

    P_I is spanned by the eigenpairs of ``eigendecompose`` in [a, b].  The
    quotient matrix ⟨v_i, C v_j⟩_W is a Rayleigh–Ritz restriction, so its
    smallest eigenvalue is the true minimum over the computed subspace,
    which the harness holds to 1 − ``MOURRE_EPS``; η = ‖P_I(C − 𝟙)P_I‖ is
    reported, not credited.  The interval must hold at least ten levels —
    a thinner window is below the discrete resolution — counted from the
    window's pairs, which ``eigendecompose`` has matched against the
    inertia count.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ConfigurationError("empty interval")
    dec = eigendecompose(op, (a, b))
    k, vi = dec.eigenvalues.size, dec.vectors
    if k < 10:
        raise ConfigurationError(
            f"interval [{a}, {b}] holds only {k} levels; need ≥ 10 spacings"
        )
    n = op.grid.n
    blocks = commutator_closed_form(op).blocks
    cv = np.einsum("jab,jbk->jak", blocks, vi.reshape((n, 4, k))).reshape((4 * n, k))
    w4 = np.repeat(op.grid.weights, 4)
    quot = (vi.conj().T * w4[None, :]) @ cv
    quot = (quot + quot.conj().T) / 2.0
    min_q = float(sla.eigvalsh(quot).min())
    eta = float(np.max(np.abs(sla.eigvalsh(quot - np.eye(k)))))
    return MourreReport(
        n_states=k,
        min_quotient=min_q,
        eta=eta,
        requested=dec.requested,
        max_residual=dec.max_residual,
        orthonormality_defect=dec.orthonormality_defect,
    )


# ------------------------------------------------------ no-eigenvalue test

@dataclass
class NoEigenvalueReport:
    depth_difference: float  # ‖Φ_X − Φ_{2X}‖₂, Φ_X = Φ(−X → x₀)
    condition: float  # cond₂ Φ_X
    integral_tail: float  # ∫_{−2X}^{−X} ‖W‖ dx
    invertible_limit: bool
    # max|Φ†Γ¹Φ − Γ¹| over the sector blocks of Φ_X and Φ_{2X}: the current
    current_defect: float
    steps: int  # Magnus steps of the sweep over [−2X, x₀]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_k·b_k of two stacks of 2×2 matrices laid out (..., 2, 2, n),
    as two broadcast products over n instead of n small matrix products."""
    return sum(a[..., :, j, None, :] * b[..., None, j, :, :] for j in range(2))


def _exp2x2(omega: np.ndarray) -> np.ndarray:
    """e^Ω for a (..., 2, 2, n) stack in closed form: μ = tr Ω/2 and
    q² = μ² − det Ω give (Ω − μ𝟙)² = q²𝟙, so e^Ω = e^μ[cosh q·𝟙 +
    (sinh q/q)(Ω − μ𝟙)], both even in q, with sinh q/q = sinc(iq/π)."""
    mu = 0.5 * (omega[..., 0, 0, :] + omega[..., 1, 1, :])
    q = np.sqrt((omega[..., 0, 0, :] - mu) ** 2 + omega[..., 0, 1, :] * omega[..., 1, 0, :])
    sinc = np.sinc(1j * q / np.pi)
    flow = sinc[..., None, None, :] * omega
    for i in range(2):
        flow[..., i, i, :] += np.cosh(q) - sinc * mu
    return np.exp(mu)[..., None, None, :] * flow


def _ordered_product(flows: np.ndarray) -> np.ndarray:
    """F_{n−1}⋯F_1·F_0 of a (..., 2, 2, n) stack, by rounds of pairwise products."""
    while flows.shape[-1] > 1:
        if flows.shape[-1] % 2:
            pad = np.broadcast_to(np.eye(2)[:, :, None], flows.shape[:-1] + (1,))
            flows = np.concatenate([flows, pad], axis=-1)
        flows = _mul(flows[..., 1::2], flows[..., 0::2])
    return flows[..., 0]


def no_eigenvalue_test(
    lam: float,
    channel: Channel,
    params: Optional[Params],
    depth: float,
    potentials: Optional[Callable] = None,
) -> NoEigenvalueReport:
    """Propagation-matrix convergence for the eigenfunction ODE at energy λ.

    A solution of Hψ = λψ rotated by e^{iλγ⁰γ¹x} satisfies w′ = W(x)w with
    W(x) = iγ⁰γ¹ e^{iλγ⁰γ¹x} V(x) e^{−iλγ⁰γ¹x}.  The potentials die like
    e^{θx} toward the horizon, so Φ(−X → x₀) converges to an invertible
    matrix as X → ∞: every solution has a nonzero limit at −∞ and none is
    square-integrable, which is how the point spectrum stays empty.  V
    takes the black-hole pair of ``params``, both potentials from one
    coordinate inverse, unless ``potentials`` maps an array x to
    (A(x), B(x)); the matching point is x₀ = ``_X0`` = −1.  The sector
    blocks of Φ at the depths X and 2X come from one sweep
    (``_magnus_sweep``); P/√2 is orthogonal, so their singular values are
    Φ's, and so are ‖Φ_X − Φ_{2X}‖₂ and cond₂ Φ_X.  W†Γ¹ + Γ¹W = 0, so the
    true flow keeps Φ†Γ¹Φ = Γ¹; the Magnus flow keeps it to rounding in
    Γ¹'s sector form, and the report carries the defect.
    """
    phi, phi_deep, steps, tail = _magnus_sweep(lam, channel, params, depth, potentials)
    difference = float(np.linalg.norm(phi - phi_deep, 2, axis=(1, 2)).max())
    singular = np.linalg.svd(phi, compute_uv=False)
    condition = float(singular.max() / singular.min())
    flows = np.array([phi, phi_deep])
    defect = float(np.max(np.abs(flows.conj().swapaxes(2, 3) @ _VELOCITY @ flows - _VELOCITY)))
    return NoEigenvalueReport(
        depth_difference=difference,
        condition=condition,
        integral_tail=tail,
        invertible_limit=bool(difference <= DEPTH_TOL and condition <= CONDITION_LIMIT),
        current_defect=defect,
        steps=steps,
    )


def _magnus_sweep(
    lam: float, channel: Channel, params: Optional[Params], depth: float,
    potentials: Optional[Callable] = None,
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """(Φ(−X → x₀), Φ(−2X → x₀), the number of steps, ∫|V| over [−2X, −X])
    for ``no_eigenvalue_test``'s arguments, X = ``depth``, each Φ as its
    sector blocks, shape (sector, 2, 2), + sector first.

    W is a (sector, 2, 2, n) stack from the sector forms of γ⁰γ¹ (diagonal
    there), ANGULAR and MASS.  One sweep of the fourth-order Gauss–Magnus
    integrator (Iserles & Nørsett 1999; Blanes et al. 2009) over [−2X, x₀]
    gives both depths: Ω = h/2·(W₁ + W₂) + (√3/12)·h²·[W₂, W₁] from the two
    Gauss points of each step, e^Ω in closed form (``_exp2x2``), Φ their
    ordered product, and −X a step edge, so Φ_{2X} = Φ_X·Φ(−2X → −X).  A
    probe at the Gauss points of cells of length ≤ ``_CELL`` grades the
    step: a cell where ‖W‖ ≤ ``_NEGLIGIBLE`` at both points is one step,
    every other cell is split into steps of at most h =
    ``_STEP``/max(1, |λ|/2), which follows the e^{±2iλx} phases.  The probe
    (with the 201 tail points) and the sweep are one potential evaluation
    each, whatever the depth.
    """
    if depth <= -_X0:
        raise ConfigurationError(f"need depth > {-_X0:g}")
    if potentials is None:
        if params is None:
            raise ConfigurationError("need params or potentials")
        potentials = CoordinateMap(params)._potentials_of_x
    m = params.m if params is not None else 0.0
    coupling = channel.coupling
    g01 = -np.diagonal(_VELOCITY, axis1=1, axis2=2)  # γ⁰γ¹ = diag(−1, 1) in each sector

    def w_stack(x, a, b):
        """W at the points x as a (sector, 2, 2, n) stack."""
        e = np.exp(1j * lam * g01[:, :, None] * x)
        v = coupling * a * _ANGULAR[..., None] - m * b * _MASS[..., None]
        return 1j * g01[:, :, None, None] * e[:, :, None] * v * np.conj(e)[:, None]

    # cell edges on [−2X, −X] and [−X, x₀]; −X is an edge
    n_deep = math.ceil(depth / _CELL)
    edges = np.concatenate([
        np.linspace(-2.0 * depth, -depth, n_deep + 1)[:-1],
        np.linspace(-depth, _X0, math.ceil((depth + _X0) / _CELL) + 1),
    ])
    width = np.diff(edges)
    probe = (edges[:-1, None] + width[:, None] * _GAUSS).ravel()
    tail_x = np.linspace(-2.0 * depth, -depth, 201)
    a, b = potentials(np.concatenate([probe, tail_x]))
    # ANGULAR and MASS anticommute and square to 𝟙, so V² = ((ca)² + (mb)²)𝟙
    # and ‖W‖₂ = ‖V‖₂ = |(ca, mb)|
    size = np.hypot(coupling * a, m * b)
    tail = float(np.trapezoid(size[probe.size:], tail_x))
    live = (size[: probe.size].reshape(-1, 2) > _NEGLIGIBLE).any(axis=1)

    h = _STEP / max(1.0, abs(lam) / 2.0)
    per_cell = np.where(live, np.ceil(width / h).astype(int), 1)
    cell = np.repeat(np.arange(width.size), per_cell)
    first = np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    step = width[cell] / per_cell[cell]
    left = edges[cell] + (np.arange(cell.size) - first) * step
    x = (left[:, None] + step[:, None] * _GAUSS).ravel()
    a, b = potentials(x)

    def propagate(lo, hi):
        """Φ over the steps lo … hi − 1, _CHUNK steps at a time."""
        phi = np.eye(2, dtype=complex)
        for start in range(lo, hi, _CHUNK):
            k = slice(start, min(start + _CHUNK, hi))
            g = slice(2 * k.start, 2 * k.stop)
            w = w_stack(x[g], a[g], b[g])
            w1, w2 = w[..., 0::2], w[..., 1::2]
            omega = 0.5 * step[k] * (w1 + w2) + (math.sqrt(3.0) / 12.0) * step[k] ** 2 * (
                _mul(w2, w1) - _mul(w1, w2)
            )
            phi = _ordered_product(_exp2x2(omega)) @ phi
        return phi

    split = int(per_cell[:n_deep].sum())
    phi = propagate(split, cell.size)
    return phi, phi @ propagate(0, split), int(cell.size), tail


# ------------------------------------------------- boundary exponent probe

@dataclass
class BoundaryFitReport:
    slope: Optional[float]
    n_points: int
    fitted: bool
    reason: str
    target: Optional[float]  # expected slope, None when no claim is made


def _slope_target(op: ChannelOperator) -> Optional[float]:
    if op.params is None:
        return None
    if op.params.regime is Regime.SUPERCRITICAL:
        return 0.5
    if op.params.regime is Regime.SUBCRITICAL:
        return -op.params.m * op.params.l
    return None  # √(−x)·log correction: reported, not fitted against


def boundary_exponent_fit(
    op: ChannelOperator, f: Optional[SpinorField] = None
) -> BoundaryFitReport:
    """Resolvent probe of the wall behavior: solve (H − z)u = f at z = 2i,
    as (G − z)y = ``to_sectors(f)``, u = ``from_sectors(y)``, and fit
    log‖u(x)‖ against log(−x) over the lowest decade of −x, excluding the
    last three nodes (the ghost rows contaminate them)."""
    z = 2j
    grid = op.grid
    if f is None:
        prof = np.exp(-((grid.nodes + 3.0) ** 2) / 0.5).astype(complex)
        vals = np.vstack([prof, prof, prof, prof])
        f = SpinorField(grid, vals)
    elif not np.array_equal(f.grid.nodes, grid.nodes):
        raise ConfigurationError("probe data lives on a different grid")
    shifted = (op.matrix - z * sp.identity(op.matrix.shape[0], format="csc")).tocsc()
    try:
        y = spla.spsolve(shifted, to_sectors(f))
    except Exception as exc:
        raise NumericError("resolvent solve failed", {"z": z}) from exc
    if not np.all(np.isfinite(y)):
        raise NumericError("resolvent solve returned non-finite values", {"z": z})
    u = from_sectors(y, grid).reshape((4, grid.n), order="F")
    unorm = np.linalg.norm(u, axis=0)
    t = -grid.nodes
    t_ref = t[-4]  # innermost node that survives the ghost-row exclusion
    window = (t >= t_ref * (1.0 - 1e-12)) & (t <= 10.0 * t_ref)
    window[-3:] = False
    window &= unorm > 0.0
    n_pts = int(window.sum())
    if n_pts < 5:
        reason = "fit window holds fewer than 5 nodes"
    elif unorm[window].max() < 1e-10 * unorm.max():
        reason = "no boundary tail"
    else:
        slope, _ = np.polyfit(np.log(t[window]), np.log(unorm[window]), 1)
        return BoundaryFitReport(float(slope), n_pts, True, "", _slope_target(op))
    return BoundaryFitReport(None, n_pts, False, reason, _slope_target(op))
