"""The ten acceptance criteria, one test each, at their stated tolerances.

The harness runners are the only definition of criteria 1 and 3–10: each
of those tests runs one experiment through ``harness.run`` on its pinned
config (the default config with a few keys set) and hands the record to
``verdict``, which asserts that the record has no error, that the check
lines deciding the criterion are there and pass, and the test's own
bounds, written here as literals, on the numbers the record carries — so
an edit in the package cannot loosen a criterion unseen.  Criterion 2 has
no runner, and criterion 7's free half is one closed-form report.

Every criterion emits a single pass/fail line (replayed in the terminal
summary by conftest), and each pinned config runs once per module.  The
file takes 50–55 s on a 2-core VM, two runs of criterion 6 of 19–26 s each
most of it; run it with ``pytest tests/test_acceptance.py -v``.
"""

import numpy as np
import pytest

from adsdirac import harness
from adsdirac.algebra import GAMMA, GAMMA5, GAMMA_ALT, transform_residual
from adsdirac.grids import gaussian_packet, make_grid
from adsdirac.scattering import velocity_report
from conftest import record_acceptance

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
#: the pinned config every criterion starts from
PINNED = {"M": 1.0, "l": 1.0, "m": 1.0, "channel": [0.5, 0.5],
          "grid": {"x_min": -32.0, "n": 2048}}
VELOCITY_GRID = {"x_min": -26.0, "n": 4096}
SCHEDULE = {"scatter": {"schedule": [1, 2, 4, 8, 16, 24]}}
GEOMETRY_LINES = ("horizon_root", "round_trip", "tortoise_quadrature")


def harness_record(out, experiment: str, **keys) -> harness.ExperimentResult:
    """The record of ``experiment`` run into ``out`` on ``PINNED`` with the
    top-level ``keys`` replaced."""
    cfg = harness.parse_config_dict({**PINNED, **keys})
    return harness.run(cfg, [experiment], out=str(out)).results[0]


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """``harness_record``, run once per module for each experiment and keys."""
    done = {}

    def get(experiment: str, **keys) -> harness.ExperimentResult:
        key = (experiment, repr(sorted(keys.items())))
        if key not in done:
            done[key] = harness_record(tmp_path_factory.mktemp(experiment), experiment, **keys)
        return done[key]

    return get


def last(result: harness.ExperimentResult, table: str, name: str, count: int = 1):
    """The last ``count`` values of column ``name`` of a record's table."""
    columns, rows = result.tables[table]
    return np.array([row[columns.index(name)] for row in rows[-count:]])


def verdict(num: int, title: str, result, names, bounds) -> None:
    """Record criterion ``num``'s line, then fail unless the harness record
    ``result`` has no error, carries a passing check line for each of
    ``names`` and meets ``bounds``, the test's own predicate on it (read
    only when the rest holds)."""
    lines = {c.name: c for c in result.checks}
    faults = [f"error: {result.error}"] if result.error else []
    faults += [f"no check line {result.name}.{n}" for n in names if n not in lines]
    shown = [lines[n] for n in names if n in lines]
    faults += [f"{result.name}.{c.name} FAILS" for c in shown if not c.passed]
    if not faults and not bounds(result):
        faults.append("the test's own bounds fail")
    detail = "; ".join([f"{result.name}.{c.name}: {c.detail}" for c in shown] + faults)
    record_acceptance(f"criterion {num:2d} [{'FAIL' if faults else 'pass'}] {title}: {detail}")
    assert not faults, detail


class TestAcceptance:

    def test_criterion_01_geometry(self, record):
        verdict(1, "geometry exactness", record("geometry"), GEOMETRY_LINES, lambda r: (
            abs(r.scalars["r_sads"] - 1.0) <= 1e-12 and r.scalars["horizon_root"] <= 1e-12
            and r.scalars["quadrature_gap"] <= 1e-8 and r.scalars["round_trip"] <= 1e-10
        ))

    def test_criterion_02_algebra(self):
        exact = True
        for rep in (GAMMA, GAMMA_ALT):
            for mu in range(4):
                for nu in range(4):
                    acomm = rep[mu] @ rep[nu] + rep[nu] @ rep[mu]
                    exact &= bool(
                        np.array_equal(acomm, 2.0 * ETA[mu, nu] * np.eye(4))
                    )
        for mu in range(4):
            exact &= bool(np.array_equal(GAMMA5 @ GAMMA[mu], -GAMMA[mu] @ GAMMA5))
        rng = np.random.default_rng(11)
        residual = max(
            transform_residual(*(2.0 * rng.normal(size=3))) for _ in range(25)
        )
        ok = exact and residual <= 1e-13
        record_acceptance(
            f"criterion  2 [{'pass' if ok else 'FAIL'}] algebra exactness: "
            f"anticommutation tables entrywise exact = {exact}, "
            f"representation-transform residual = {residual:.1e} (1e-13)"
        )
        assert ok

    @pytest.mark.parametrize("mass,regime", [(0.25, "bag"), (1.0, "natural")])
    def test_criterion_03_unitarity(self, record, mass, regime):
        verdict(
            3, f"unitarity ({regime} rows, 2ml = {2 * mass:g})", record("evolve", m=mass),
            ("hermiticity", "unitarity"),
            lambda r: r.scalars["hermiticity_defect"] <= 1e-10 and r.scalars["norm_drift"] <= 1e-8,
        )

    def test_criterion_04_free_oracle(self, record):
        verdict(
            4, "free-propagator oracle", record("evolve", m=1.0), ("free_oracle", "free_order"),
            lambda r: r.scalars["free_errors"][-1] <= 1e-3 and r.scalars["free_order"] >= 1.8,
        )

    def test_criterion_05_velocity_estimates(self, record):
        traces = "velocity_traces.csv"
        verdict(
            5, "minimal/maximal velocity", record("velocity", grid=VELOCITY_GRID),
            ("minimal", "maximal", "cone"),
            lambda r: (
                last(r, traces, "t") == 20.0 and last(r, traces, "minimal") <= 1e-2
                and abs(last(r, traces, "maximal")) <= 1e-2
                and last(r, traces, "cone") >= 0.98 and r.scalars["cone_delta"] == 0.25
            ),
        )

    @pytest.mark.parametrize("mass,regime", [(1.0, "natural"), (0.45, "bag")])
    def test_criterion_06_completeness(self, record, mass, regime):
        verdict(
            6, f"asymptotic completeness ({regime}, 2ml = {2 * mass:g})",
            record("scatter", m=mass, grid={"x_min": -32.0, "n": 8192}, options=SCHEDULE),
            ("forward", "backward", "adjoint", "trivial"),
            lambda r: (
                all(np.all(np.diff(last(r, "scatter_increments.csv", name, 3)) < 0)
                    for name in ("forward_increment", "backward_increment"))
                and r.scalars["forward_final"] <= 1e-2 and r.scalars["backward_final"] <= 1e-2
                and r.scalars["adjoint_gap"] <= 1e-2 and r.scalars["trivial_max"] <= 1e-10
            ),
        )

    def test_criterion_07_asymptotic_velocity(self, record):
        grid = make_grid(VELOCITY_GRID["x_min"], VELOCITY_GRID["n"])
        phi = gaussian_packet(grid, -2.5, 0.25, components=(1.0, 0.0, 0.0, 1.0))
        v_free = velocity_report(phi, (4.0, 8.0, 12.0, 16.0, 20.0), op=None).v_extrapolated
        verdict(
            7, f"asymptotic velocity = identity (free flow: {v_free:.4f})",
            record("velocity", grid=VELOCITY_GRID), ("asymptotic",),
            lambda r: abs(r.scalars["v_extrapolated"] - 1.0) <= 0.05 and abs(v_free - 1.0) <= 0.05,
        )

    def test_criterion_08_no_eigenvalues(self, record):
        verdict(
            8, "absence of eigenvalues", record("spectrum"),
            [f"no_eigenvalue[{lam}]" for lam in (-2, -1, 0, 1, 2)],
            lambda r: (
                max(r.scalars["depth_differences"]) <= 1e-8 and max(r.scalars["conditions"]) <= 1e3
            ),
        )

    def test_criterion_09_mourre(self, record):
        verdict(
            9, "commutator positivity", record("mourre"), ("window", "refinement", "free_quotient"),
            lambda r: (
                r.scalars["coarse_quotient"] >= 0.5 and r.scalars["verdict"] == "pass"
                and r.scalars["quotient_drift"] <= 0.05 and r.scalars["free_gap"] <= 1e-9
            ),
        )

    def test_criterion_10_domain_exponents(self, record):
        verdict(
            10, "domain boundary exponents", record("domain-exponent"),
            ("slope[2ml=2]", "slope[2ml=0.5]"),
            lambda r: (
                r.scalars["masses"] == [1.0, 0.25] and r.scalars["slopes"][0] >= 0.45
                and abs(r.scalars["slopes"][1] + 0.25) <= 0.05
            ),
        )


class TestVerdictControls:
    """``verdict`` fails, and records a FAIL line, on an errored record, a
    FAIL check line, a missing check line and a failing bound of its own."""

    @staticmethod
    def assert_fails(monkeypatch, result, names, bounds=lambda r: True) -> str:
        lines = []
        monkeypatch.setitem(globals(), "record_acceptance", lines.append)
        with pytest.raises(AssertionError):
            verdict(0, "control", result, names, bounds)
        assert len(lines) == 1 and "[FAIL]" in lines[0]
        return lines[0]

    def test_errored_record(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise RuntimeError("runner broke")

        monkeypatch.setitem(harness._RUNNERS, "geometry", broken)
        result = harness_record(tmp_path, "geometry")
        line = self.assert_fails(monkeypatch, result, GEOMETRY_LINES)
        assert "error: RuntimeError: runner broke" in line

    def test_fail_line(self, tmp_path, monkeypatch):
        # a domain too short for the schedule FAILS all but the trivial oracle
        result = harness_record(tmp_path, "scatter", grid={"x_min": -16.0}, options=SCHEDULE)
        assert [c.passed for c in result.checks] == [False, False, False, True]
        self.assert_fails(monkeypatch, result, ("forward", "backward", "adjoint", "trivial"))

    def test_missing_check_line(self, record, monkeypatch):
        self.assert_fails(monkeypatch, record("geometry"), GEOMETRY_LINES + ("no_such_line",))

    def test_own_bound(self, record, monkeypatch):
        self.assert_fails(monkeypatch, record("geometry"), GEOMETRY_LINES, lambda r: False)
