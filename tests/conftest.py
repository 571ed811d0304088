"""Shared test plumbing: the acceptance-line reporter, the Hamiltonian's
action on component arrays, the dense symmetric operator and the
eigensolve oracle built on it, the dense sector split, and perturbed
operators and a lossy eigensolver for negative controls.

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
    control of every self-adjointness record.  An entry without its
    γ³γ⁵ partner (``paired``) crosses the sectors."""
    bump = sp.csc_matrix(([size], ([row], [col])), shape=op.matrix.shape)
    return dataclasses.replace(op, matrix=(op.matrix + bump).tocsc())


#: γ³γ⁵ maps component a of a node to ±component PARTNER[a], with sign SIGN[a]
PARTNER = np.array([3, 2, 1, 0])
SIGN = np.array([-1, 1, 1, -1])


def paired(op: ChannelOperator, row: int, col: int, size: float) -> ChannelOperator:
    """``perturbed`` at (row, col) and at its γ³γ⁵ partner (components
    0 ↔ 3 and 1 ↔ 2, with Q's signs), so S still commutes with Q and still
    splits into its two sector blocks."""
    a, c = row % 4, col % 4
    partner = (row - a + PARTNER[a], col - c + PARTNER[c], SIGN[a] * SIGN[c] * size)
    return perturbed(perturbed(op, row, col, size), *partner)


def dense_scaled(op: ChannelOperator):
    """(S, √W) with S = W^{1/2} H W^{−1/2} the assembled matrix, dense: the
    reference the package's sector blocks and solvers are tested against."""
    return op.matrix.toarray(), sqrt_weights(op.grid)


def dense_decomposition(op: ChannelOperator) -> SpectralDecomposition:
    """Every eigenpair of H by a dense O(N³) solve of ``dense_scaled``,
    under the package's accuracy contract: the oracle the windowed solve
    and the inertia counts are tested against."""
    s, root = dense_scaled(op)
    lam, basis = sla.eigh(s)
    max_res, ortho = _accuracy([(op.matrix, lam, basis)])
    return SpectralDecomposition(
        lam, basis / root[:, None], op.grid, max_res, ortho, lam.size
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
    return sla.eigvalsh(dense_scaled(op)[0])


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
