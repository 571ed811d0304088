"""The ten acceptance criteria, one test each, at their stated tolerances.

The harness runners are the only definition of criteria 1 and 3–10: each
of those tests runs one experiment through ``harness.run`` on its pinned
config (the default config with a few keys set) and hands the record to
``verdict``, which asserts that the record has no error, that the check
lines deciding the criterion are there and pass, and that each line's
value meets the test's own bound, written here as a literal — so an edit
in the package cannot loosen a criterion unseen.  A few numbers no line
carries get a predicate of their own: the horizon radius (criterion 1),
the trace times and cone width (5), the strict fall of the increments
(6), the free half (7) and the masses and target (10).  Criterion 2 has
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


def at_most(bound):
    return lambda value: value <= bound


def at_least(bound):
    return lambda value: value >= bound


#: criterion 1's lines and the test's own bound on each line's value
GEOMETRY = {
    "horizon_root": at_most(1e-12), "round_trip": at_most(1e-10),
    "tortoise_quadrature": at_most(1e-8),
}


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


def verdict(num: int, title: str, result, bounds, extra=lambda r: True) -> None:
    """Record criterion ``num``'s line, then fail unless the harness record
    ``result`` has no error and carries a passing check line for each name
    in ``bounds`` whose value meets the test's own predicate there, and
    ``extra``, the test's predicate on what no line carries, holds (read
    only when the rest holds)."""
    lines = {c.name: c for c in result.checks}
    faults = [f"error: {result.error}"] if result.error else []
    faults += [f"no check line {result.name}.{n}" for n in bounds if n not in lines]
    shown = [lines[n] for n in bounds if n in lines]
    faults += [f"{result.name}.{c.name} FAILS" for c in shown if not c.passed]
    faults += [
        f"{result.name}.{c.name} fails the test's own bound" for c in shown
        if not bounds[c.name](c.value)
    ]
    if not faults and not extra(result):
        faults.append("the test's own bounds fail")
    detail = "; ".join([f"{result.name}.{c.name}: {c.detail}" for c in shown] + faults)
    record_acceptance(f"criterion {num:2d} [{'FAIL' if faults else 'pass'}] {title}: {detail}")
    assert not faults, detail


class TestAcceptance:

    def test_criterion_01_geometry(self, record):
        verdict(
            1, "geometry exactness", record("geometry"), GEOMETRY,
            lambda r: abs(r.scalars["r_sads"] - 1.0) <= 1e-12,
        )

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
            {"hermiticity": at_most(1e-10), "unitarity": at_most(1e-8)},
        )

    def test_criterion_04_free_oracle(self, record):
        verdict(
            4, "free-propagator oracle", record("evolve", m=1.0),
            {"free_oracle": at_most(1e-3), "free_order": at_least(1.8)},
        )

    def test_criterion_05_velocity_estimates(self, record):
        traces = "velocity_traces.csv"
        verdict(
            5, "minimal/maximal velocity", record("velocity", grid=VELOCITY_GRID),
            {"minimal": at_most(1e-2), "maximal": at_most(1e-2), "cone": at_least(0.98)},
            lambda r: last(r, traces, "t") == 20.0 and r.scalars["cone_delta"] == 0.25,
        )

    @pytest.mark.parametrize("mass,regime", [(1.0, "natural"), (0.45, "bag")])
    def test_criterion_06_completeness(self, record, mass, regime):
        verdict(
            6, f"asymptotic completeness ({regime}, 2ml = {2 * mass:g})",
            record("scatter", m=mass, grid={"x_min": -32.0, "n": 8192}, options=SCHEDULE),
            {"forward": at_most(1e-2), "forward_tail": at_most(0),
             "backward": at_most(1e-2), "backward_tail": at_most(0),
             "adjoint": at_most(1e-2), "trivial": at_most(1e-10)},
            lambda r: all(
                np.all(np.diff(last(r, "scatter_increments.csv", name, 3)) < 0)
                for name in ("forward_increment", "backward_increment")
            ),
        )

    def test_criterion_07_asymptotic_velocity(self, record):
        grid = make_grid(VELOCITY_GRID["x_min"], VELOCITY_GRID["n"])
        phi = gaussian_packet(grid, -2.5, 0.25, components=(1.0, 0.0, 0.0, 1.0))
        v_free = velocity_report(phi, (4.0, 8.0, 12.0, 16.0, 20.0), op=None).v_extrapolated
        verdict(
            7, f"asymptotic velocity = identity (free flow: {v_free:.4f})",
            record("velocity", grid=VELOCITY_GRID), {"asymptotic": at_most(0.05)},
            lambda r: abs(v_free - 1.0) <= 0.05,
        )

    def test_criterion_08_no_eigenvalues(self, record):
        lambdas = (-2, -1, 0, 1, 2)
        verdict(
            8, "absence of eigenvalues", record("spectrum"),
            {**{f"no_eigenvalue[{lam}]": at_most(1e-8) for lam in lambdas},
             **{f"condition[{lam}]": at_most(1e3) for lam in lambdas}},
        )

    def test_criterion_09_mourre(self, record):
        verdict(
            9, "commutator positivity", record("mourre"),
            {"window": at_least(0.5), "fine_window": at_least(0.5),
             "refinement": at_most(0.05), "free_quotient": at_most(1e-9)},
        )

    def test_criterion_10_domain_exponents(self, record):
        verdict(
            10, "domain boundary exponents", record("domain-exponent"),
            {"slope[2ml=2]": at_least(0.45), "slope[2ml=0.5]": at_most(0.05)},
            lambda r: r.scalars["masses"] == [1.0, 0.25] and r.scalars["targets"][1] == -0.25,
        )


class TestVerdictControls:
    """``verdict`` fails, and records a FAIL line, on an errored record, a
    FAIL check line, a missing check line and a failing bound of its own."""

    @staticmethod
    def assert_fails(monkeypatch, result, bounds, extra=lambda r: True) -> str:
        lines = []
        monkeypatch.setitem(globals(), "record_acceptance", lines.append)
        with pytest.raises(AssertionError):
            verdict(0, "control", result, bounds, extra)
        assert len(lines) == 1 and "[FAIL]" in lines[0]
        return lines[0]

    def test_errored_record(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise RuntimeError("runner broke")

        monkeypatch.setitem(harness._RUNNERS, "geometry", broken)
        result = harness_record(tmp_path, "geometry")
        line = self.assert_fails(monkeypatch, result, GEOMETRY)
        assert "error: RuntimeError: runner broke" in line

    def test_fail_line(self, tmp_path, monkeypatch):
        # a domain too short for the schedule FAILS all but the trivial oracle
        result = harness_record(tmp_path, "scatter", grid={"x_min": -16.0}, options=SCHEDULE)
        assert [c.passed for c in result.checks] == [False] * 5 + [True]
        names = ("forward", "forward_tail", "backward", "backward_tail", "adjoint", "trivial")
        self.assert_fails(monkeypatch, result, dict.fromkeys(names, lambda value: True))

    def test_missing_check_line(self, record, monkeypatch):
        self.assert_fails(monkeypatch, record("geometry"), {**GEOMETRY, "no_such_line": at_most(1)})

    def test_own_bound(self, record, monkeypatch):
        # the test's bound on a passing line's value, and its predicate on the record
        line = self.assert_fails(
            monkeypatch, record("geometry"), {**GEOMETRY, "round_trip": at_most(0.0)}
        )
        assert "geometry.round_trip fails the test's own bound" in line
        self.assert_fails(monkeypatch, record("geometry"), GEOMETRY, lambda r: False)
