"""Shared test plumbing: the acceptance-line reporter, the Hamiltonian's
action on component arrays, the dense symmetric operator and the
eigensolve oracle built on it, the dense sector split, and a perturbed
operator and a lossy eigensolver for negative controls.

Acceptance tests register one human-readable verdict line each; the lines
are replayed in the terminal summary so the full pass/fail slate is visible
even when pytest captures per-test output.
"""

import dataclasses
from typing import List

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from adsdirac.channel import ChannelOperator
from adsdirac.spectral import SpectralDecomposition, _accuracy


def sqrt_weights(grid) -> np.ndarray:
    """√W on node-major flat fields: ``op.matrix`` = S acts on √W·ψ."""
    return np.sqrt(np.repeat(grid.weights, 4))


def apply(op: ChannelOperator, values: np.ndarray) -> np.ndarray:
    """H = W^{−1/2}SW^{1/2} acting on a (4, n) component array, through the
    node-major (component-fastest) flattening and ``op.matrix`` = S."""
    root = sqrt_weights(op.grid)
    h = op.matrix @ (root * values.flatten(order="F")) / root
    return h.reshape(values.shape, order="F")


def perturbed(op: ChannelOperator, row: int, col: int, size: float) -> ChannelOperator:
    """``op`` with ``size`` added to the entry (row, col) of S: the negative
    control of every self-adjointness record."""
    bump = sp.csc_matrix(([size], ([row], [col])), shape=op.matrix.shape)
    return dataclasses.replace(op, matrix=(op.matrix + bump).tocsc())


def dense_scaled(op: ChannelOperator):
    """(S, √W) with S = W^{1/2} H W^{−1/2} the assembled matrix, dense."""
    return op.matrix.toarray(), sqrt_weights(op.grid)


def dense_symmetric(op: ChannelOperator):
    """(S averaged with its adjoint, √W), dense: the reference the
    package's sector blocks and spectral solvers are tested against."""
    s, root = dense_scaled(op)
    return (s + s.conj().T) / 2.0, root


def dense_decomposition(op: ChannelOperator) -> SpectralDecomposition:
    """Every eigenpair of H by a dense O(N³) solve of ``dense_symmetric``,
    under the package's accuracy contract: the oracle the windowed solve
    and the inertia counts are tested against."""
    sym, root = dense_symmetric(op)
    lam, basis = sla.eigh(sym)
    vectors = basis / root[:, None]
    max_res, ortho = _accuracy(op, lam, vectors)
    return SpectralDecomposition(
        lam, vectors, op.grid, max_res, ortho, lam.size, op.hermiticity_defect()
    )


def drop_nearest_level(monkeypatch) -> None:
    """Make the first ``scipy.sparse.linalg.eigsh`` call lose the returned
    level nearest its shift: the negative control of the count-checked
    window solve, one level short in one sector block."""
    exact_eigsh = spla.eigsh
    calls = []

    def lossy_eigsh(a, k, sigma, **kw):
        lam, vec = exact_eigsh(a, k=k, sigma=sigma, **kw)
        calls.append(1)
        keep = np.arange(lam.size) != np.argmin(np.abs(lam - sigma))
        return (lam[keep], vec[:, keep]) if len(calls) == 1 else (lam, vec)

    monkeypatch.setattr(spla, "eigsh", lossy_eigsh)


def dense_levels(op: ChannelOperator) -> np.ndarray:
    """Every eigenvalue of H, sorted, by a dense solve without vectors."""
    return sla.eigvalsh(dense_symmetric(op)[0])


#: eigenvectors of γ³γ⁵ at one node, the two of eigenvalue +1 first
SECTOR_ROWS = np.array([[1, 0, 0, -1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, -1, 0]])


def dense_sector_blocks(a: np.ndarray):
    """(+1 block, −1 block, largest cross entry) of PAPᵀ/2 for a dense
    node-major 4n×4n matrix A, with P the per-node transform onto the
    eigenspaces of γ³γ⁵ in sector-major order, built here entry by entry:
    the oracle of ``ChannelOperator.sectors``."""
    n = a.shape[0] // 4
    p = np.zeros((4 * n, 4 * n))
    for j in range(n):
        p[2 * j : 2 * j + 2, 4 * j : 4 * j + 4] = SECTOR_ROWS[:2]
        p[2 * (n + j) : 2 * (n + j) + 2, 4 * j : 4 * j + 4] = SECTOR_ROWS[2:]
    b = p @ a @ p.T / 2.0
    half = 2 * n
    cross = max(np.max(np.abs(b[:half, half:])), np.max(np.abs(b[half:, :half])))
    return b[:half, :half], b[half:, half:], float(cross)

ACCEPTANCE_LINES: List[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
