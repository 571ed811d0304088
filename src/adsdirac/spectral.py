"""Discrete spectral experiments.

Three numerical shadows of the channel operator's spectral theory:

* ``eigendecompose`` — the weighted symmetric eigenproblem.  The discrete
  operator H is self-adjoint in the quadrature inner product
  ⟨u, v⟩_W = Σ_j w_j u(x_j)†v(x_j), so S = W^{1/2} H W^{−1/2} is Hermitian
  and its eigenpairs give spectral projections by functional calculus.
  The whole spectrum comes from a dense solve of S (the ``spectrum``
  experiment and the test oracle); a window [a, b] from shift-invert
  Lanczos on the sparse S about the window centre, which only ever
  computes the levels near the window.
* ``mourre_check`` — positivity of the localized commutator: the minimum
  Rayleigh quotient of P_I C P_I on ran P_I, with C the closed-form
  commutator i[H, 𝒜].  PASS means min quotient ≥ 1 − ε; η =
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
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .algebra import ANGULAR, Channel, MASS, VELOCITY
from .channel import (
    ChannelOperator,
    ConfigurationError,
    PotentialPair,
    commutator_closed_form,
    potentials_sads,
)
from .dynamics import NumericError
from .geometry import CoordinateMap, Params
from .grids import Grid, SpinorField

__all__ = [
    "SpectralDecomposition",
    "eigendecompose",
    "MourreReport",
    "mourre_check",
    "mourre_refinement_study",
    "NoEigenvalueReport",
    "no_eigenvalue_test",
    "BoundaryFitReport",
    "boundary_exponent_fit",
]

#: largest dimension a dense (whole-spectrum) solve is attempted at
_MAX_DIM = 4 * 4096
#: first number of pairs asked of the shift-invert Lanczos solve; doubled
#: until the farthest returned level lies outside the window
_FIRST_K = 16
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
    operator; ``vectors[:, k]`` is the flattened (component-fastest)
    eigenvector for ``eigenvalues[k]``.

    ``requested`` is the number of pairs the solver was asked for: the final
    Lanczos k of a windowed solve, or the dimension for a dense one.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    grid: Grid
    max_residual: float
    orthonormality_defect: float
    requested: int

    def count_in(self, a: float, b: float) -> int:
        return int(np.sum((self.eigenvalues >= a) & (self.eigenvalues <= b)))


def _window_pairs(
    sym: sp.csc_matrix, a: float, b: float
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """Shift-invert Lanczos about the window centre σ.

    The k returned levels are the k nearest σ; k doubles until the farthest
    of them lies strictly outside [a, b], which guarantees that every level
    of the window is among them.  The returned basis is then orthonormalized
    by a Rayleigh–Ritz step in its span.  None when 2k would reach the
    dimension, i.e. when the window holds too much of the spectrum."""
    dim = sym.shape[0]
    sigma = 0.5 * (a + b)
    try:
        lu = spla.splu((sym - sigma * sp.identity(dim, format="csc")).tocsc())
    except RuntimeError as exc:
        raise NumericError("shift-invert factorization failed", {"sigma": sigma}) from exc
    opinv = spla.LinearOperator((dim, dim), matvec=lu.solve, dtype=complex)
    # a fixed start vector keeps the solve reproducible
    v0 = np.random.default_rng(0).standard_normal(dim).astype(complex)
    k = _FIRST_K
    while 2 * k < dim:
        try:
            lam, basis = spla.eigsh(sym, k=k, sigma=sigma, OPinv=opinv, v0=v0)
        except spla.ArpackError as exc:
            raise NumericError("shift-invert Lanczos failed", {"k": k}) from exc
        far = lam[np.argmax(np.abs(lam - sigma))]
        if far < a or far > b:
            q, _ = np.linalg.qr(basis)
            ritz = q.conj().T @ (sym @ q)
            theta, y = sla.eigh((ritz + ritz.conj().T) / 2.0)
            return theta, q @ y, k
        k *= 2
    return None


def _accuracy(
    op: ChannelOperator, lam: np.ndarray, vectors: np.ndarray
) -> Tuple[float, float]:
    """Largest W-norm residual ‖Hv − λv‖_W and W-Gram defect of the pairs;
    raises past 1e−10·max|λ| or 1e−10, since every downstream projection
    trusts them."""
    if lam.size == 0:
        return 0.0, 0.0
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


def eigendecompose(
    op: ChannelOperator, window: Optional[Tuple[float, float]] = None
) -> SpectralDecomposition:
    """Eigenpairs of H in the weighted inner product.

    Without a window: the full spectrum by a dense solve of the symmetrized
    operator, O(N³), capped at dimension ``_MAX_DIM``.  With a window
    [a, b]: only the levels inside it, by shift-invert Lanczos about the
    window centre (one sparse LU, reused as k grows), which is O(N·k) per
    iteration and has no cap; a window holding too much of the spectrum
    for that falls back to the dense solve.

    Either way the returned pairs pass one accuracy check: W-norm residual
    ≤ 1e−10·max|λ| and W-Gram defect ≤ 1e−10, or ``NumericError``.
    """
    sym, root = op.symmetrized()
    dim = sym.shape[0]
    found = None
    if window is not None:
        a, b = float(window[0]), float(window[1])
        if not b > a:
            raise ConfigurationError("empty window")
        found = _window_pairs(sym, a, b)
    if found is None:
        if dim > _MAX_DIM:
            raise ConfigurationError(
                f"matrix dimension {dim} exceeds the dense-solve cap {_MAX_DIM}"
            )
        try:
            lam, basis = sla.eigh(sym.toarray())
        except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericError("symmetric eigensolver failed", {"dim": dim}) from exc
        requested = dim
    else:
        lam, basis, requested = found
    if window is not None:
        keep = (lam >= a) & (lam <= b)
        lam, basis = lam[keep], basis[:, keep]
    vectors = basis / root[:, None]
    max_res, ortho = _accuracy(op, lam, vectors)
    return SpectralDecomposition(
        eigenvalues=lam,
        vectors=vectors,
        grid=op.grid,
        max_residual=max_res,
        orthonormality_defect=ortho,
        requested=requested,
    )


# ------------------------------------------------------------ Mourre check

@dataclass
class MourreReport:
    eps: float
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
    eps: float,
    decomposition: Optional[SpectralDecomposition] = None,
) -> MourreReport:
    """Minimum of the localized commutator on the spectral window.

    P_I is spanned by the eigenpairs in [a, b]: those of ``decomposition``
    when given, otherwise those of a windowed ``eigendecompose`` (sparse
    shift-invert, no dense solve).  The quotient matrix ⟨v_i, C v_j⟩_W is a
    Rayleigh–Ritz restriction, so its smallest eigenvalue is the true
    minimum over the computed subspace.  PASS means that minimum is at
    least 1 − ε; η = ‖P_I(C − 𝟙)P_I‖ is reported, not credited.  The
    interval must hold at least ten levels — a thinner window is below the
    discrete resolution.
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
        eps=float(eps),
        n_states=k,
        min_quotient=min_q,
        eta=eta,
        passed=bool(min_q >= 1.0 - eps),
        requested=dec.requested,
        max_residual=dec.max_residual,
        orthonormality_defect=dec.orthonormality_defect,
    )


def mourre_refinement_study(
    coarse: ChannelOperator,
    fine: ChannelOperator,
    interval: Tuple[float, float],
    eps: float,
    stability: float = 0.05,
) -> dict:
    """Run the check at two resolutions and map the pair to a verdict.

    The continuous estimate has no level-spacing artifacts; its discrete
    shadow does.  A window whose PASS flips under refinement, or whose
    quotient moves more than the stability budget, is "inconclusive"
    rather than failed.
    """
    rep_c = mourre_check(coarse, interval, eps)
    rep_f = mourre_check(fine, interval, eps)
    drift = abs(rep_f.min_quotient - rep_c.min_quotient)
    if drift > stability or rep_c.passed != rep_f.passed:
        verdict = "inconclusive"
    else:
        verdict = "pass" if rep_f.passed else "fail"
    return {
        "coarse": rep_c,
        "fine": rep_f,
        "quotient_drift": drift,
        "verdict": verdict,
    }


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


def _resolve_potentials(
    channel: Channel, params: Optional[Params], pair: Optional[PotentialPair]
):
    """(x ↦ (A(x), B(x)) on arrays, m, coupling).  The black-hole pair takes
    both potentials from one coordinate inverse; an override pair calls each
    of its functions once on the array."""
    if pair is None:
        if params is None:
            raise ConfigurationError("need params or an explicit potential pair")
        pair = potentials_sads(params)
    m = params.m if params is not None else 0.0
    if pair.mode == "sads" and pair.params is not None:
        both = CoordinateMap(pair.params)._potentials_of_x
    else:
        def both(x):
            return pair.a_ang(x), pair.b_mass(x)
    return both, m, channel.coupling


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
    params: Optional[Params] = None,
    pair: Optional[PotentialPair] = None,
    depth: float = 30.0,
    x0: float = -1.0,
) -> NoEigenvalueReport:
    """Propagation-matrix convergence for the eigenfunction ODE at energy λ.

    A solution of Hψ = λψ rotated by e^{iλγ⁰γ¹x} satisfies w′ = W(x)w with
    W(x) = iγ⁰γ¹ e^{iλγ⁰γ¹x} V(x) e^{−iλγ⁰γ¹x}.  The potentials die like
    e^{θx} toward the horizon, so Φ(−X → x₀) converges to an invertible
    matrix as X → ∞: every solution has a nonzero limit at −∞ and none is
    square-integrable, which is how the point spectrum stays empty.

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
    if x0 >= 0.0 or depth <= -x0:
        raise ConfigurationError("need x0 < 0 and depth > |x0|")
    potentials, m, coupling = _resolve_potentials(channel, params, pair)
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
        np.linspace(-depth, x0, math.ceil((depth + x0) / _CELL) + 1),
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
    two_ml = op.params.two_ml
    if two_ml > 1.0:
        return 0.5
    if two_ml < 1.0:
        return -op.params.m * op.params.l
    return None  # √(−x)·log correction: reported, not fitted against


def boundary_exponent_fit(
    op: ChannelOperator,
    z: complex = 2j,
    f: Optional[SpinorField] = None,
) -> BoundaryFitReport:
    """Resolvent probe of the wall behavior: solve (H − z)u = f and fit
    log‖u(x)‖ against log(−x) over the lowest decade of −x, excluding the
    last three nodes (the ghost rows contaminate them)."""
    if z.imag == 0.0:
        raise ConfigurationError("shift must have nonzero imaginary part")
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
        return BoundaryFitReport(
            slope=None, n_points=n_pts,
            fitted=False, reason="fit window holds fewer than 5 nodes",
            target=_slope_target(op),
        )
    if unorm[window].max() < 1e-10 * unorm.max():
        return BoundaryFitReport(
            slope=None, n_points=n_pts,
            fitted=False, reason="no boundary tail", target=_slope_target(op),
        )
    slope, _ = np.polyfit(np.log(t[window]), np.log(unorm[window]), 1)
    return BoundaryFitReport(
        slope=float(slope),
        n_points=n_pts,
        fitted=True,
        reason="",
        target=_slope_target(op),
    )
