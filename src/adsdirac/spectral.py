"""Discrete spectral experiments.

Three numerical shadows of the channel operator's spectral theory:

* ``level_count`` and ``eigendecompose`` — the weighted symmetric
  eigenproblem.  The discrete operator H is self-adjoint in the quadrature
  inner product ⟨u, v⟩_W = Σ_j w_j u(x_j)†v(x_j), so S = W^{1/2} H W^{−1/2}
  is Hermitian and its eigenpairs give spectral projections by functional
  calculus.  S is block tridiagonal, so the number of levels below any σ
  comes from the inertia of one block LDL† sweep of S − σI, in O(n); the
  levels of a window [a, b] come from one shift-invert Lanczos solve of
  the sparse S about the window centre, sized by that count.  Nothing
  computes the whole spectrum.
* ``mourre_check`` — positivity of the localized commutator: the minimum
  Rayleigh quotient of P_I C P_I on ran P_I, with C the closed-form
  commutator i[H, 𝒜].  PASS means min quotient ≥ 1 − ``MOURRE_EPS``; η =
  ‖P_I(C − 𝟙)P_I‖, the measured size of the compact correction, is
  reported alongside.
* ``no_eigenvalue_test`` — the ODE mechanism behind the empty point
  spectrum: after the phase rotation e^{iλγ⁰γ¹x}, a putative eigenfunction
  satisfies w′ = W(x)w with ∫‖W‖ finite (exponential horizon decay), so
  the propagation matrix from depth −X has an invertible limit and no
  nonzero solution can decay at −∞.  The 4×4 propagation matrix comes
  from one sweep of a fourth-order Gauss–Magnus integrator on a graded
  fixed-step mesh, with W at every Gauss point from one vectorized
  coordinate inverse; it keeps the conserved current Φ†Γ¹Φ = Γ¹ to
  rounding.
* ``boundary_exponent_fit`` — the wall behavior of domain elements probed
  through the resolvent: solve (H − z)u = f and fit log‖u‖ against
  log(−x) on a boundary-graded tail.
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
from .channel import ChannelOperator, ConfigurationError, commutator_closed_form
from .dynamics import NumericError
from .geometry import CoordinateMap, Params, Regime
from .grids import Grid, SpinorField

__all__ = [
    "SpectralDecomposition",
    "level_count",
    "eigendecompose",
    "MourreReport",
    "mourre_check",
    "mourre_refinement_study",
    "NoEigenvalueReport",
    "no_eigenvalue_test",
    "BoundaryFitReport",
    "boundary_exponent_fit",
]

#: the Mourre verdict: PASS means min quotient ≥ 1 − MOURRE_EPS, and a
#: refinement study whose quotient moves more than MOURRE_STABILITY between
#: its two grids is inconclusive
MOURRE_EPS = 0.5
MOURRE_STABILITY = 0.05
#: the matching point x₀ of the no-eigenvalue sweep, which runs from −2X to it
_X0 = -1.0
#: the no-eigenvalue verdict: ‖Φ_X − Φ_{2X}‖₂ and cond₂ Φ_X at most these
_CONVERGE_TOL = 1e-8
_COND_LIMIT = 1e3
#: the no-eigenvalue sweep: Magnus step h = _STEP/max(1, |λ|/2) where W
#: matters, one step per probe cell (length ≤ _CELL) where ‖W‖ ≤ _NEGLIGIBLE
_STEP = 0.01
_CELL = 1.0
_NEGLIGIBLE = 1e-13
#: steps per batch of the Magnus sweep, which bounds its memory at any λ
_CHUNK = 4096
#: two-point Gauss–Legendre nodes on [0, 1]
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_DIAG = (np.arange(4), np.arange(4))


# ---------------------------------------------------------- eigendecompose

@dataclass
class SpectralDecomposition:
    """Eigenvalues (sorted) and W-orthonormal eigenvectors of a channel
    operator on a window; ``vectors[:, k]`` is the flattened
    (component-fastest) eigenvector for ``eigenvalues[k]``.  ``requested``
    is the number of pairs the Lanczos solve was asked for, 0 when the
    window holds no level and nothing was solved.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    grid: Grid
    max_residual: float
    orthonormality_defect: float
    requested: int


def _pivot_floor(sym) -> float:
    """√ε·max|S_ij|: a pivot eigenvalue below it is taken as zero."""
    return math.sqrt(np.finfo(float).eps) * float(np.abs(sym.data).max())


def level_count(op: ChannelOperator, sigmas) -> np.ndarray:
    """The number of levels of H below each σ, by Sylvester's law of inertia.

    S = W^{1/2}HW^{−1/2} is block tridiagonal in 4×4 node blocks, so the
    block LDL† sweep D_j = S_jj − σ − S_{j−1,j}† D_{j−1}^{−1} S_{j−1,j}
    reduces S − σI congruently to the pivots D_j, whose negative
    eigenvalues are the levels below σ: O(n) small solves for all σ at once.
    A pivot with an eigenvalue below √ε·max|S_ij| in magnitude (σ at a
    level of a leading block, as at a wall closure's own levels) would
    spoil the pivots after it, so it joins the next node in one 8×8 pivot,
    the 2×2-block pivot of Bunch and Kaufman.  A near-singular merged
    pivot or a non-finite pivot raises ``NumericError``."""
    sigmas = np.asarray(sigmas, dtype=float)
    s = op.symmetrized()[0].tocoo()
    node, col = s.row // 4, s.col // 4
    diag = np.zeros((op.grid.n, 4, 4), dtype=complex)
    upper = np.zeros_like(diag)  # S_{j−1,j} at j; zero at 0
    on, up = node == col, col == node + 1
    diag[node[on], s.row[on] % 4, s.col[on] % 4] = s.data[on]
    upper[col[up], s.row[up] % 4, s.col[up] % 4] = s.data[up]
    floor = _pivot_floor(s)
    shift = sigmas.reshape(-1, 1, 1) * np.eye(4)
    below = np.zeros(shift.shape[0], dtype=int)
    inverse = np.zeros_like(shift, dtype=complex)  # what S_{j−1,j} meets: D_{j−1}^{−1}
    merge = np.zeros(shift.shape[0], dtype=bool)  # D_{j−1} is near-singular
    for j in range(op.grid.n):
        x = diag[j] - shift
        pivot = x - upper[j].conj().T @ inverse @ upper[j]
        if not np.all(np.isfinite(pivot)):
            raise NumericError("non-finite pivot in the inertia sweep", {"node": j})
        mu, v = np.linalg.eigh(pivot)
        negative = np.sum(mu < 0.0, axis=1)
        small = np.abs(mu) < floor
        # finite stand-ins where a pivot is merged with the next node instead
        inverse = (v / np.where(small, floor, mu)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        if merge.any():  # D_{j−1} and node j as one 8×8 pivot
            b = np.broadcast_to(upper[j], (int(merge.sum()), 4, 4))
            block = np.block([[last[merge], b], [b.conj().transpose(0, 2, 1), x[merge]]])
            nu = np.linalg.eigvalsh(block)
            if np.any(np.abs(nu) < floor):
                raise NumericError("near-singular merged pivot in the inertia sweep", {"node": j})
            negative[merge] = np.sum(nu < 0.0, axis=1) - last_negative[merge]
            inverse[merge] = np.linalg.inv(block)[:, 4:, 4:]
            small[merge] = False
        below += negative
        merge, last, last_negative = small.any(axis=1), pivot, negative
    return below.reshape(sigmas.shape)


def _accuracy(
    op: ChannelOperator, lam: np.ndarray, vectors: np.ndarray
) -> Tuple[float, float]:
    """Largest W-norm residual ‖Hv − λv‖_W and W-Gram defect of the pairs;
    raises past 1e−10·max|λ| or 1e−10, since every downstream projection
    trusts them."""
    w4 = np.repeat(op.grid.weights, 4)
    resid = op.matrix @ vectors - vectors * lam[None, :]
    max_res = float(np.sqrt(np.sum(w4[:, None] * np.abs(resid) ** 2, axis=0)).max())
    scale = float(np.max(np.abs(lam)))
    gram = (vectors.conj().T * w4[None, :]) @ vectors
    ortho = float(np.max(np.abs(gram - np.eye(lam.size))))
    if max_res > 1e-10 * scale or ortho > 1e-10:
        raise NumericError(
            "eigendecomposition accuracy contract violated",
            {"max_residual": max_res, "orthonormality": ortho, "scale": scale},
        )
    return max_res, ortho


def eigendecompose(op: ChannelOperator, window: Tuple[float, float]) -> SpectralDecomposition:
    """Eigenpairs of H in the weighted inner product with eigenvalue in
    the window [a, b].

    One ``level_count`` sweep counts the window's levels, and those within
    the pivot floor √ε·max|S_ij| of the window centre σ, before any solve.
    A level at σ would make the shift-invert factor singular, so any there
    raise ``ConfigurationError`` naming σ and their number; a window with
    no level returns no pairs.  Otherwise one shift-invert Lanczos solve of
    the sparse S about σ asks for the count plus a margin, and a
    Rayleigh–Ritz step orthonormalizes its basis.  The count levels
    nearest the centre are exactly the window's, so a solve with another
    number of levels in the window raises ``NumericError`` naming both; a
    window too wide for Lanczos (2k ≥ dimension) raises
    ``ConfigurationError``.  The pairs pass one accuracy check, W-norm
    residual ≤ 1e−10·max|λ| and W-Gram defect ≤ 1e−10, or ``NumericError``.
    """
    a, b = float(window[0]), float(window[1])
    if not b > a:
        raise ConfigurationError("empty window")
    sym, root = op.symmetrized()
    sigma = 0.5 * (a + b)
    floor = _pivot_floor(sym)
    lo, below, above, hi = level_count(op, (a, sigma - floor, sigma + floor, b))
    if above > below:
        raise ConfigurationError(
            f"window [{a}, {b}] is centred on a level: {above - below} levels lie "
            f"within {floor:.1e} of σ = {sigma:g}"
        )
    count = int(hi - lo)
    dim = sym.shape[0]
    if count == 0:
        return SpectralDecomposition(
            np.empty(0), np.empty((dim, 0), dtype=complex), op.grid, 0.0, 0.0, 0
        )
    k = count + max(8, count // 4)
    if 2 * k >= dim:
        raise ConfigurationError(
            f"window [{a}, {b}] holds {count} of {dim} levels; Lanczos needs 2k < {dim}, k = {k}"
        )
    try:
        lu = spla.splu((sym - sigma * sp.identity(dim, format="csc")).tocsc())
    except RuntimeError as exc:
        raise NumericError("shift-invert factorization failed", {"sigma": sigma}) from exc
    opinv = spla.LinearOperator((dim, dim), matvec=lu.solve, dtype=complex)
    # a fixed start vector keeps the solve reproducible
    v0 = np.random.default_rng(0).standard_normal(dim).astype(complex)
    try:
        _, basis = spla.eigsh(sym, k=k, sigma=sigma, OPinv=opinv, v0=v0)
    except spla.ArpackError as exc:
        raise NumericError("shift-invert Lanczos failed", {"k": k}) from exc
    q, _ = np.linalg.qr(basis)
    ritz = q.conj().T @ (sym @ q)
    lam, y = sla.eigh((ritz + ritz.conj().T) / 2.0)
    keep = (lam >= a) & (lam <= b)
    found = int(keep.sum())
    if found != count:
        raise NumericError(
            f"window solve found {found} levels in [{a}, {b}], inertia counts {count}",
            {"found": found, "counted": count, "requested": k},
        )
    vectors = (q @ y[:, keep]) / root[:, None]
    return SpectralDecomposition(lam[keep], vectors, op.grid, *_accuracy(op, lam[keep], vectors), k)


# ------------------------------------------------------------ Mourre check

@dataclass
class MourreReport:
    n_states: int
    min_quotient: float
    eta: float  # ‖P_I (C − 𝟙) P_I‖, the compact-correction magnitude
    passed: bool
    # the eigensolve behind P_I: pairs requested, largest W-norm residual
    # and W-Gram defect of the pairs it returned
    requested: int
    max_residual: float
    orthonormality_defect: float


def mourre_check(
    op: ChannelOperator,
    interval: Tuple[float, float],
    decomposition: Optional[SpectralDecomposition] = None,
) -> MourreReport:
    """Minimum of the localized commutator on the spectral window.

    P_I is spanned by the eigenpairs in [a, b]: those of ``decomposition``
    when given, otherwise those of ``eigendecompose`` on the window.  The
    quotient matrix ⟨v_i, C v_j⟩_W is a Rayleigh–Ritz restriction, so its
    smallest eigenvalue is the true minimum over the computed subspace.
    PASS means that minimum is at least 1 − ``MOURRE_EPS``; η = ‖P_I(C − 𝟙)P_I‖ is
    reported, not credited.  The interval must hold at least ten levels —
    a thinner window is below the discrete resolution — counted from the
    window's pairs, which ``eigendecompose`` has matched against the
    inertia count.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ConfigurationError("empty interval")
    dec = decomposition if decomposition is not None else eigendecompose(op, (a, b))
    sel = (dec.eigenvalues >= a) & (dec.eigenvalues <= b)
    k = int(sel.sum())
    if k < 10:
        raise ConfigurationError(
            f"interval [{a}, {b}] holds only {k} levels; need ≥ 10 spacings"
        )
    vi = dec.vectors[:, sel]
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
        passed=bool(min_q >= 1.0 - MOURRE_EPS),
        requested=dec.requested,
        max_residual=dec.max_residual,
        orthonormality_defect=dec.orthonormality_defect,
    )


def mourre_refinement_study(
    coarse: ChannelOperator,
    fine: ChannelOperator,
    interval: Tuple[float, float],
) -> dict:
    """Run the check at two resolutions and map the pair to a verdict.

    The continuous estimate has no level-spacing artifacts; its discrete
    shadow does.  A window whose PASS flips under refinement, or whose
    quotient moves more than ``MOURRE_STABILITY``, is "inconclusive"
    rather than failed.
    """
    rep_c = mourre_check(coarse, interval)
    rep_f = mourre_check(fine, interval)
    drift = abs(rep_f.min_quotient - rep_c.min_quotient)
    if drift > MOURRE_STABILITY or rep_c.passed != rep_f.passed:
        verdict = "inconclusive"
    else:
        verdict = "pass" if rep_f.passed else "fail"
    return {"coarse": rep_c, "fine": rep_f, "quotient_drift": drift, "verdict": verdict}


# ------------------------------------------------------ no-eigenvalue test

@dataclass
class NoEigenvalueReport:
    propagation: np.ndarray  # Φ(−X → x₀)
    depth_difference: float  # ‖Φ_X − Φ_{2X}‖₂
    condition: float  # cond₂ Φ_X
    integral_tail: float  # ∫_{−2X}^{−X} ‖W‖ dx
    invertible_limit: bool
    # max|Φ†Γ¹Φ − Γ¹| over Φ_X and Φ_{2X}: the flow conserves the current
    current_defect: float
    steps: int  # Magnus steps of the sweep over [−2X, x₀]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_k·b_k of two stacks of 4×4 matrices laid out (4, 4, n),
    as four broadcast products over n instead of n small matrix products."""
    return sum(a[:, j, None] * b[None, j] for j in range(4))


def _expm(omega: np.ndarray) -> np.ndarray:
    """e^Ω for a (4, 4, n) stack: every Ω scaled by the same 2^−s to
    ‖Ω‖₁ ≤ 1/2, the Taylor series (Horner) up to the first degree whose
    next term is below 1e-17, then s squarings."""
    theta = float(np.abs(omega).sum(axis=0).max())
    s = math.ceil(math.log2(2.0 * theta)) if theta > 0.5 else 0
    omega = omega / 2.0**s
    theta /= 2.0**s
    degree, term = 1, 0.5 * theta * theta
    while term > 1e-17:
        degree += 1
        term *= theta / (degree + 1)
    flow = omega / degree
    flow[_DIAG] += 1.0
    for k in range(degree - 1, 0, -1):
        flow = _mul(omega, flow) / k
        flow[_DIAG] += 1.0
    for _ in range(s):
        flow = _mul(flow, flow)
    return flow


def _ordered_product(flows: np.ndarray) -> np.ndarray:
    """F_{n−1}⋯F_1·F_0 of a (4, 4, n) stack, by rounds of pairwise products."""
    while flows.shape[2] > 1:
        if flows.shape[2] % 2:
            flows = np.concatenate([flows, np.eye(4)[:, :, None]], axis=2)
        flows = _mul(flows[:, :, 1::2], flows[:, :, 0::2])
    return flows[:, :, 0]


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
    (A(x), B(x)); the matching point is x₀ = ``_X0`` = −1.

    One sweep of the fourth-order Gauss–Magnus integrator (Iserles &
    Nørsett 1999; Blanes et al. 2009) over [−2X, x₀] gives both depths:
    Ω = h/2·(W₁ + W₂) + (√3/12)·h²·[W₂, W₁] from the two Gauss points of
    each step, Φ the ordered product of the e^Ω, and −X a step edge, so
    Φ_{2X} = Φ_X·Φ(−2X → −X).  A probe at the Gauss points of cells of
    length ≤ ``_CELL`` grades the step: a cell where ‖W‖ ≤ ``_NEGLIGIBLE``
    at both points is one step, every other cell is split into steps of at
    most h = ``_STEP``/max(1, |λ|/2), which follows the e^{±2iλx} phases.
    The probe (with the 201 tail points) and the sweep are one potential
    evaluation each, whatever the depth.  W†Γ¹ + Γ¹W = 0, so the true flow
    keeps Φ†Γ¹Φ = Γ¹; the Magnus flow keeps it to rounding, and the report
    carries the defect.
    """
    if depth <= -_X0:
        raise ConfigurationError(f"need depth > {-_X0:g}")
    if potentials is None:
        if params is None:
            raise ConfigurationError("need params or potentials")
        potentials = CoordinateMap(params)._potentials_of_x
    m = params.m if params is not None else 0.0
    coupling = channel.coupling
    g01 = -np.diag(VELOCITY)  # γ⁰γ¹ = diag(−1, 1, 1, −1)

    def w_stack(x, a, b):
        """W at the points x as a (4, 4, n) stack."""
        e = np.exp(1j * lam * g01[:, None] * x)
        v = coupling * a * ANGULAR[:, :, None] - m * b * MASS[:, :, None]
        return 1j * g01[:, None, None] * e[:, None] * v * np.conj(e)[None]

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
        phi = np.eye(4, dtype=complex)
        for start in range(lo, hi, _CHUNK):
            k = slice(start, min(start + _CHUNK, hi))
            g = slice(2 * k.start, 2 * k.stop)
            w = w_stack(x[g], a[g], b[g])
            w1, w2 = w[:, :, 0::2], w[:, :, 1::2]
            omega = 0.5 * step[k] * (w1 + w2) + (math.sqrt(3.0) / 12.0) * step[k] ** 2 * (
                _mul(w2, w1) - _mul(w1, w2)
            )
            phi = _ordered_product(_expm(omega)) @ phi
        return phi

    split = int(per_cell[:n_deep].sum())
    phi = propagate(split, cell.size)
    phi_deep = phi @ propagate(0, split)

    difference = float(np.linalg.norm(phi - phi_deep, 2))
    condition = float(np.linalg.cond(phi, 2))
    defect = max(
        float(np.max(np.abs(f.conj().T @ VELOCITY @ f - VELOCITY))) for f in (phi, phi_deep)
    )
    return NoEigenvalueReport(
        propagation=phi,
        depth_difference=difference,
        condition=condition,
        integral_tail=tail,
        invertible_limit=bool(difference <= _CONVERGE_TOL and condition <= _COND_LIMIT),
        current_defect=defect,
        steps=int(cell.size),
    )


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
    """Resolvent probe of the wall behavior: solve (H − z)u = f at z = 2i
    and fit log‖u(x)‖ against log(−x) over the lowest decade of −x,
    excluding the last three nodes (the ghost rows contaminate them)."""
    z = 2j
    grid = op.grid
    if f is None:
        prof = np.exp(-((grid.nodes + 3.0) ** 2) / 0.5).astype(complex)
        vals = np.vstack([prof, prof, prof, prof])
        f = SpinorField(grid, vals)
    elif not np.array_equal(f.grid.nodes, grid.nodes):
        raise ConfigurationError("probe data lives on a different grid")
    shifted = (op.matrix - z * sp.identity(4 * grid.n, format="csc", dtype=complex)).tocsc()
    try:
        flat = spla.spsolve(shifted, f.values.flatten(order="F"))
    except Exception as exc:
        raise NumericError("resolvent solve failed", {"z": z}) from exc
    if not np.all(np.isfinite(flat)):
        raise NumericError("resolvent solve returned non-finite values", {"z": z})
    u = flat.reshape((4, grid.n), order="F")
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
