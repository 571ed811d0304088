"""Shared test plumbing: the acceptance-line reporter, the sector
transform P and the symmetric operator S = PᵀGP/2 recovered with it, the
Hamiltonian's action on component arrays, the dense eigensolve oracles per
sector block, and perturbed operators and a lossy eigensolver for
negative controls.

Acceptance tests register one human-readable verdict line each; the lines
are replayed in the terminal summary so the full pass/fail slate is visible
even when pytest captures per-test output.
"""

import dataclasses
import functools
from typing import List

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from adsdirac.channel import ChannelOperator, from_sectors
from adsdirac.spectral import SpectralDecomposition, _accuracy


#: eigenvectors of γ³γ⁵ at one node, the two of eigenvalue +1 first
SECTOR_ROWS = np.array([[1, 0, 0, -1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, -1, 0]])


@functools.cache
def sector_transform(n: int) -> sp.csr_matrix:
    """P on node-major flat fields of n nodes, built here entry by entry:
    row 2j + a holds SECTOR_ROWS[a] and row 2(n + j) + a SECTOR_ROWS[2 + a]
    at node j's four columns, so ``op.matrix`` = G = PSPᵀ/2 and
    S = PᵀGP/2.  Built once per n and shared: callers must not modify it."""
    rows, cols, vals = [], [], []
    for j in range(n):
        for r in range(4):
            row = 2 * j + r if r < 2 else 2 * (n + j) + r - 2
            for c in np.flatnonzero(SECTOR_ROWS[r]):
                rows.append(row)
                cols.append(4 * j + c)
                vals.append(float(SECTOR_ROWS[r, c]))
    return sp.csr_matrix((vals, (rows, cols)), shape=(4 * n, 4 * n))


def sqrt_weights(grid) -> np.ndarray:
    """√W on node-major flat fields: ``scaled(op)`` = S acts on √W·ψ."""
    return np.sqrt(np.repeat(grid.weights, 4))


def scaled(op: ChannelOperator) -> sp.csc_matrix:
    """S = W^{1/2}HW^{−1/2} = PᵀGP/2 on node-major flat fields, recovered
    from the assembled G: the reference the propagators are tested
    against."""
    p = sector_transform(op.grid.n)
    return (p.T @ op.matrix @ p * 0.5).tocsc()


def apply(op: ChannelOperator, values: np.ndarray) -> np.ndarray:
    """H = W^{−1/2}SW^{1/2} acting on a (4, n) component array, through the
    node-major (component-fastest) flattening and ``scaled``."""
    root = sqrt_weights(op.grid)
    h = scaled(op) @ (root * values.flatten(order="F")) / root
    return h.reshape(values.shape, order="F")


def perturbed(op: ChannelOperator, row: int, col: int, size: float) -> ChannelOperator:
    """``op`` with ``size`` added to the entry (row, col) of S, that is
    P·size·e_row e_colᵀ·Pᵀ/2 added to G: the negative control of every
    self-adjointness record.  An entry without its γ³γ⁵ partner
    (``paired``) crosses the sectors."""
    p = sector_transform(op.grid.n)
    bump = sp.csc_matrix(([size], ([row], [col])), shape=op.matrix.shape)
    return dataclasses.replace(op, matrix=(op.matrix + p @ bump @ p.T * 0.5).tocsc())


#: γ³γ⁵ maps component a of a node to ±component PARTNER[a], with sign SIGN[a]
PARTNER = np.array([3, 2, 1, 0])
SIGN = np.array([-1, 1, 1, -1])


def paired(op: ChannelOperator, row: int, col: int, size: float) -> ChannelOperator:
    """``perturbed`` at (row, col) and at its γ³γ⁵ partner (components
    0 ↔ 3 and 1 ↔ 2, with Q's signs), so S still commutes with Q and G has
    one entry of ``size`` in each sector block and none across them."""
    a, c = row % 4, col % 4
    partner = (row - a + PARTNER[a], col - c + PARTNER[c], SIGN[a] * SIGN[c] * size)
    return perturbed(perturbed(op, row, col, size), *partner)


def dense_scaled(op: ChannelOperator):
    """(S, √W) with S = ``scaled(op)``, dense."""
    return scaled(op).toarray(), sqrt_weights(op.grid)


def dense_blocks(op: ChannelOperator):
    """G's two diagonal blocks, + sector first, dense, after asserting
    that its two crossing blocks are exactly zero."""
    g, half = op.matrix, op.matrix.shape[0] // 2
    assert g[:half, half:].count_nonzero() == g[half:, :half].count_nonzero() == 0
    return [g[rows, rows].toarray() for rows in (slice(0, half), slice(half, None))]


def dense_decomposition(op: ChannelOperator) -> SpectralDecomposition:
    """Every eigenpair of H by a dense O(N³) solve of each sector block of
    G, its vectors lifted by √2·``from_sectors``, under the package's
    accuracy contract: the oracle the windowed solve and the inertia counts
    are tested against."""
    solved = [(g, *sla.eigh(g)) for g in dense_blocks(op)]
    max_res, ortho = _accuracy(solved)
    lam = np.concatenate([lam for _, lam, _ in solved])
    order = np.argsort(lam, kind="stable")
    u = sla.block_diag(*(x for _, _, x in solved))[:, order]
    vectors = np.sqrt(2.0) * from_sectors(u, op.grid)
    return SpectralDecomposition(lam[order], vectors, op.grid, max_res, ortho, lam.size)


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
    """Every eigenvalue of H, sorted, by a dense solve of each sector block
    of G without vectors."""
    return np.sort(np.concatenate([sla.eigvalsh(g) for g in dense_blocks(op)]))

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
