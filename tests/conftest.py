"""Shared test plumbing: the acceptance-line reporter, the dense
eigensolve oracle and a lossy eigensolver for negative controls.

Acceptance tests register one human-readable verdict line each; the lines
are replayed in the terminal summary so the full pass/fail slate is visible
even when pytest captures per-test output.
"""

from typing import List

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from adsdirac.channel import ChannelOperator
from adsdirac.spectral import SpectralDecomposition, _accuracy


def dense_decomposition(op: ChannelOperator) -> SpectralDecomposition:
    """Every eigenpair of H by a dense O(N³) solve of the symmetrized
    operator, under the package's accuracy contract: the oracle the
    windowed solve and the inertia counts are tested against."""
    sym, root = op.symmetrized()
    lam, basis = sla.eigh(sym.toarray())
    vectors = basis / root[:, None]
    max_res, ortho = _accuracy(op, lam, vectors)
    return SpectralDecomposition(lam, vectors, op.grid, max_res, ortho, requested=lam.size)


def drop_nearest_level(monkeypatch) -> None:
    """Make ``scipy.sparse.linalg.eigsh`` lose the returned level nearest
    its shift: the negative control of the count-checked window solve."""
    exact_eigsh = spla.eigsh

    def lossy_eigsh(a, k, sigma, **kw):
        lam, vec = exact_eigsh(a, k=k, sigma=sigma, **kw)
        keep = np.arange(lam.size) != np.argmin(np.abs(lam - sigma))
        return lam[keep], vec[:, keep]

    monkeypatch.setattr(spla, "eigsh", lossy_eigsh)


def dense_levels(op: ChannelOperator) -> np.ndarray:
    """Every eigenvalue of H, sorted, by a dense solve without vectors."""
    return sla.eigvalsh(op.symmetrized()[0].toarray())

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
