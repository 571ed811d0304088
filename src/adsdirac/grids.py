"""Spatial grids on (x_min, 0) and discrete spinor fields.

Nodes are cell centers: the domain (x_min, 0) is split into cells and every
node sits strictly inside, so the last node lands at −(last cell width)/2 and
potentials that blow up at the wall (the mass term ~ 1/(−x)) stay finite on
the grid.  Inner-product weights come from mirrored ghost nodes,

    w_j = (x_{j+1} − x_{j−1})/2,   x_{−1} = 2·x_min − x_0,   x_N = −x_{N−1},

which makes the centered first-difference operator exactly skew-adjoint in
⟨u, v⟩ = Σ_j w_j ū_j v_j for *any* node distribution, and makes the weights
sum exactly to |x_min|.

Two spacings: uniform (``n`` cells) and ``BoundaryGraded`` (cells shrink
geometrically toward x = 0 with a mild ratio, for resolving boundary-layer
exponents).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "BoundaryGraded",
    "Grid",
    "make_grid",
    "SpinorField",
    "gaussian_packet",
]

_MIN_NODES = 16


@dataclass(frozen=True)
class BoundaryGraded:
    """Cells shrink geometrically toward x = 0.

    The first cell at the wall has width ``h_min``; widths grow by ``ratio``
    per cell moving left (clipped to ``h_max`` if given).  The ratio is kept
    close to 1 so the first-difference stencil stays second order.
    """

    h_min: float
    ratio: float = 1.05
    h_max: Optional[float] = None

    def __post_init__(self):
        if not (self.h_min > 0):
            raise ValueError("h_min must be positive")
        if not (1.0 <= self.ratio <= 1.2):
            raise ValueError(f"grading ratio must lie in [1, 1.2], got {self.ratio}")
        if self.h_max is not None and self.h_max < self.h_min:
            raise ValueError("h_max must be >= h_min")


@dataclass(frozen=True)
class Grid:
    """Strictly increasing nodes in (x_min, 0) with positive weights."""

    x_min: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (self.x_min < 0):
            raise ValueError("x_min must be negative")
        if self.nodes.ndim != 1 or self.nodes.size < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} nodes")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] <= self.x_min or self.nodes[-1] >= 0.0:
            raise ValueError("nodes must lie strictly inside (x_min, 0)")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def min_spacing(self) -> float:
        return float(np.min(np.diff(self.nodes)))

    @property
    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @property
    def resolves_wall_layer(self) -> bool:
        """True when the wall-side cells are much finer than the bulk.

        A boundary-graded grid exists to resolve power-law behavior at the
        wall; a uniform grid leaves that behavior sub-cell.  The 4× contrast
        threshold separates the two regimes without storing the policy.
        """
        return self.min_spacing <= 0.25 * self.max_spacing and (
            -self.nodes[-1] <= 0.5 * self.max_spacing
        )

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """⟨u, v⟩ = Σ_j w_j Σ_k ū_kj v_kj for (4, n) component arrays."""
        return complex(np.sum(self.weights * np.sum(np.conj(u) * v, axis=0)))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u).real, 0.0)))


def _nodes_and_weights(edges: np.ndarray):
    nodes = 0.5 * (edges[:-1] + edges[1:])
    extended = np.concatenate(
        [[2.0 * edges[0] - nodes[0]], nodes, [2.0 * edges[-1] - nodes[-1]]]
    )
    weights = 0.5 * (extended[2:] - extended[:-2])
    return nodes, weights


def make_grid(
    x_min: float, n: Optional[int] = None, policy: Optional[BoundaryGraded] = None
) -> Grid:
    """Build a grid on (x_min, 0): ``n`` equal cells, or the cells of a
    ``BoundaryGraded`` policy.

    A graded grid's node count follows from (h_min, ratio, h_max); the
    leftmost cell absorbs the remainder so the edges land exactly on x_min.
    """
    if not (x_min < 0):
        raise ValueError("x_min must be negative")
    length = -x_min

    if policy is None:
        if n is None:
            raise ValueError("a uniform grid needs n")
        count = int(n)
        if count < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} nodes, got {count}")
        edges = np.linspace(x_min, 0.0, count + 1)
    elif isinstance(policy, BoundaryGraded):
        widths = []
        covered, w = 0.0, policy.h_min
        cap = policy.h_max if policy.h_max is not None else np.inf
        while covered + w < length:
            widths.append(w)
            covered += w
            w = min(w * policy.ratio, cap)
            if len(widths) > 10_000_000:
                raise ValueError("grading parameters produce an absurd node count")
        if not widths:
            raise ValueError("x_min is too close to 0 for the requested h_min")
        # The leftmost cell absorbs the remainder; fold slivers into their
        # neighbour so the minimum spacing stays at the boundary end.
        remainder = length - covered
        if remainder >= 0.5 * widths[-1]:
            widths.append(remainder)
        else:
            widths[-1] += remainder
        if len(widths) < _MIN_NODES:
            raise ValueError(
                f"need at least {_MIN_NODES} nodes, got {len(widths)}; "
                "shrink h_min or move x_min left"
            )
        # widths[k] is the k-th cell counted from the wall at 0, so reverse
        # into left-to-right order before accumulating edges.
        steps = np.array(widths[::-1])
        edges = np.concatenate([[x_min], x_min + np.cumsum(steps)])
        edges[-1] = 0.0
    else:
        raise ValueError(f"unknown spacing policy: {policy!r}")
    nodes, weights = _nodes_and_weights(edges)
    return Grid(x_min=float(x_min), nodes=nodes, weights=weights)


@dataclass
class SpinorField:
    """Four complex amplitudes per node, shape (4, n)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (4, self.grid.n):
            raise ValueError(f"values must have shape (4, {self.grid.n})")
        self.values = v

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.values.copy())

    def norm(self) -> float:
        return self.grid.norm(self.values)

    def inner(self, other: "SpinorField") -> complex:
        return self.grid.inner(self.values, other.values)


def gaussian_packet(
    grid: Grid,
    center: float,
    width: float,
    components: Sequence[complex] = (1.0, 0.0, 0.0, 0.0),
) -> SpinorField:
    """Normalized Gaussian bump e^{−(x−c)²/2σ²} times a constant spinor."""
    x = grid.nodes
    profile = np.exp(-((x - center) ** 2) / (2.0 * width**2)).astype(complex)
    values = np.outer(np.asarray(components, dtype=complex), profile)
    psi = SpinorField(grid, values)
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero field")
    psi.values /= nrm
    return psi
