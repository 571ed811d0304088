"""Config validation, run orchestration, report files, and the CLI."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import dense_blocks, drop_nearest_level
from hypothesis import HealthCheck, example, given, note, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from adsdirac.channel import BoundaryCondition, assemble_hamiltonian, free_operator
import adsdirac.cli as cli
from adsdirac.cli import build_parser, main
from adsdirac.geometry import CoordinateMap, Regime, inverse_memo, make_params, metric_factor
from adsdirac.grids import BoundaryGraded, make_grid
from adsdirac import __version__ as VERSION
from adsdirac import harness
from adsdirac.harness import (
    _SCHEMA,
    EXPERIMENTS,
    CheckLine,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    _packet,
    _tortoise_quadrature,
    parse_config,
    parse_config_dict,
    run,
)
from adsdirac.scattering import _check_schedule, velocity_report
from adsdirac.spectral import level_count

MINIMAL = {"M": 1, "l": 1, "m": 1, "channel": [0.5, 0.5]}
#: the scatter lines of the two wave operators and their pairing
_WAVE_LINES = ("forward", "forward_tail", "backward", "backward_tail", "adjoint")
#: keys the config no longer has: the Mourre and velocity verdict bounds,
#: the main grid's graded triple, and every value that only unit tests set
#: (now a constant of ``harness``)
_REMOVED_KEYS = (
    "options.mourre.eps", "options.mourre.stability", "options.velocity.delta",
    "options.velocity.eps", "options.velocity.cone_delta",
    "grid.h_min", "grid.ratio", "grid.h_max",
    "evolution",  # the whole block: dt, t_final and snapshots
    *(f"options.{name}.{key}" for name in ("evolve", "scatter", "velocity")
      for key in ("center", "width")),
    "options.evolve.components", "options.scatter.target_center", "options.scatter.target_width",
    "options.velocity.times", "options.mourre.fine_factor", "options.mourre.interval",
    "options.spectrum.lambdas", "options.spectrum.depth",
    *(f"options.domain-exponent.{key}" for key in ("masses", "h_min", "ratio", "h_max", "x_min")),
)


def small_config(**extra):
    """A config whose experiments finish in well under a second."""
    data = dict(MINIMAL)
    data["grid"] = {"x_min": -16.0, "n": 64}
    data.update(extra)
    return parse_config_dict(data)


class TestConfigValidation:

    def test_minimal_is_valid(self):
        cfg = parse_config_dict(MINIMAL)
        assert cfg.params.regime == Regime.SUPERCRITICAL
        assert cfg.operator().bc == BoundaryCondition.NATURAL
        assert cfg.channel.coupling == 1.0

    def test_keeps_the_grid_it_built(self):
        cfg = parse_config_dict(MINIMAL)
        assert cfg.grid.n == 2048 and cfg.grid.x_min == -32.0
        assert cfg.grid is cfg.operator().grid

    def test_subcritical_selects_bag_rows(self):
        cfg = parse_config_dict({**MINIMAL, "m": 0.25})
        assert cfg.params.regime == Regime.SUBCRITICAL
        assert cfg.operator().bc == BoundaryCondition.MIT

    def test_index_rule_rejects_bad_channel(self):
        with pytest.raises(ConfigError, match="channel"):
            parse_config_dict({**MINIMAL, "channel": [0.5, 1.5]})

    def test_bc_key_is_unknown(self):
        # the regime fixes the wall condition; there is nothing to choose
        for bc in ("natural", "mit"):
            with pytest.raises(ConfigError, match="unknown key 'bc'"):
                parse_config_dict({**MINIMAL, "bc": bc})

    def test_scatter_tol_key_is_unknown(self):
        # convergence has one bound, scattering.CONVERGED_FRACTION
        with pytest.raises(ConfigError, match="options.scatter: unknown key 'tol'"):
            parse_config_dict({**MINIMAL, "options": {"scatter": {"tol": 0.01}}})

    @pytest.mark.parametrize("path", _REMOVED_KEYS)
    def test_removed_keys_are_unknown(self, path):
        # the verdict bounds and the values only unit tests set are
        # constants, and only domain-exponent grades
        *blocks, key = path.split(".")
        data = {**MINIMAL}
        node = data
        for name in blocks:
            node = node.setdefault(name, {})
        node[key] = 0.2
        where = f"{'.'.join(blocks)}: " if blocks else ""
        with pytest.raises(ConfigError, match=f"{where}unknown key '{key}'"):
            parse_config_dict(data)

    def test_errors_aggregate(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(
                {
                    "M": 1,
                    "l": 1,
                    "m": -2,
                    "channel": [0.5],
                    "typo": 1,
                    "grid": {"x_min": 3.0},
                }
            )
        messages = err.value.errors
        assert len(messages) >= 4
        assert any("typo" in msg for msg in messages)
        assert any("x_min" in msg for msg in messages)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config_dict({"M": 1})

    @pytest.mark.parametrize(
        "grid",
        [
            {"x_min": -10.0, "n": 64, "h_min": 0.01, "ratio": 1.1, "h_max": 0.1},
            {"x_min": -10.0, "h_min": 0.01, "ratio": 1.1},
            {"x_min": -10.0, "h_min": 0.1, "ratio": 0.9, "h_max": 0.2},
            {"x_min": -10.0, "n": 4},
            {"spacing": 0.1},
            {"x_min": -10.0, "n": 8},
            {"x_min": -10.0, "h_min": 0.01, "ratio": 1.5, "h_max": 0.1},
        ],
    )
    def test_bad_grid_blocks(self, grid):
        with pytest.raises(ConfigError, match="grid"):
            parse_config_dict({**MINIMAL, "grid": grid})

    @pytest.mark.parametrize(
        "options",
        [
            {"mourre": {"n": "abc"}},
            {"mourre": {"n": 8}},
            {"mourre": {"n": 320.0}},
            {"mourre": {"interval": [1.5, 0.5]}},
            {"mourre": {"interval": [0.5]}},
            {"mourre": {"interval": [0.5, "1.5"]}},
            {"mourre": {"fine_factor": 1}},
            {"mourre": {"eps": 0.0}},
            {"mourre": {"eps": 1.0}},
            {"mourre": {"stability": 0.0}},
            {"domain-exponent": {"ratio": 1.5}},
            {"domain-exponent": {"h_min": -1e-3}},
            {"domain-exponent": {"h_max": 1e-4}},
            {"domain-exponent": {"x_min": 1.0}},
            {"domain-exponent": {"h_min": "small"}},
            {"domain-exponent": {"masses": []}},
            {"scatter": {"schedule": [1]}},
            {"scatter": {"schedule": "abc"}},
            {"scatter": {"target_width": 0}},
            {"scatter": {"width": -1}},
            {"velocity": {"times": [40]}},
            {"velocity": {"delta": 0.7}},
            {"spectrum": {"n": 8}},
            {"spectrum": {"lambdas": "x"}},
            {"spectrum": {"depth": -1}},
            {"evolve": {"components": [1, 0]}},
            {"evolve": {"width": 0}},
        ],
    )
    def test_bad_option_values(self, options):
        with pytest.raises(ConfigError, match="options"):
            parse_config_dict({**MINIMAL, "options": options})

    def test_option_values_accepted(self):
        cfg = parse_config_dict(
            {
                **MINIMAL,
                "options": {
                    "scatter": {"schedule": [1, 2, 4]},
                    "mourre": {"n": 320},
                    "spectrum": {"n": 160},
                },
            }
        )
        assert cfg.option("scatter", "schedule") == [1.0, 2.0, 4.0]
        assert cfg.option("mourre", "n") == 320 and cfg.option("spectrum", "n") == 160

    def test_packets_that_underflow_are_rejected(self):
        """On (−1e6, 0) with 16 cells no node comes near any fixed packet,
        so each one is zero and cannot be normalized: the parser says so
        for every packet, before anything runs."""
        with pytest.raises(ConfigError) as err:
            parse_config_dict({**MINIMAL, "grid": {"x_min": -1e6, "n": 16}})
        assert err.value.errors == [
            f"grid: {name} packet: cannot normalize the zero field"
            for name in ("evolve", "scatter", "scatter target", "velocity")
        ]

    def test_unknown_experiment_name(self):
        # the subcommand names the experiments; the config has no say
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resonance", "--config", "x.json"])
        with pytest.raises(ConfigError, match="unknown key 'experiments'"):
            parse_config_dict({**MINIMAL, "experiments": ["geometry"]})

    def test_experiment_selection_keeps_canonical_order(self, tmp_path, monkeypatch):
        for name in EXPERIMENTS:
            monkeypatch.setitem(harness._RUNNERS, name, lambda cfg, name=name: (
                ExperimentResult(name)
            ))
        selected = list(reversed(EXPERIMENTS))
        manifest = run(small_config(), experiments=selected, out=str(tmp_path))
        assert tuple(r.name for r in manifest.results) == EXPERIMENTS

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            parse_config_dict({**MINIMAL, "m": True})
        with pytest.raises(ConfigError, match="seed"):
            parse_config_dict({**MINIMAL, "seed": True})

    def test_option_whitelists(self):
        with pytest.raises(ConfigError, match="options"):
            parse_config_dict({**MINIMAL, "options": {"resonance": {}}})
        with pytest.raises(ConfigError, match="schedule_times"):
            parse_config_dict(
                {**MINIMAL, "options": {"scatter": {"schedule_times": [1, 2]}}}
            )

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = parse_config(path)
        assert cfg.params.two_ml == 2.0

    def test_parse_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)


class TestDigest:

    def test_stable_across_equivalent_inputs(self):
        a = parse_config_dict(MINIMAL)
        b = parse_config_dict({**MINIMAL, "seed": 0, "grid": {"n": 2048}, "options": None})
        assert a.digest == b.digest

    def test_sensitive_to_physics(self):
        a = parse_config_dict(MINIMAL)
        b = parse_config_dict({**MINIMAL, "m": 0.25})
        assert a.digest != b.digest

    def test_canonical_fills_defaults(self):
        cfg = parse_config_dict(MINIMAL)
        assert cfg.canonical["grid"] == {"x_min": -32.0, "n": 2048}
        assert cfg.canonical["options"]["scatter"] == {"schedule": [1.0, 2.0, 4.0, 8.0, 16.0]}
        assert cfg.canonical["options"]["velocity"] == {}
        assert cfg.canonical["seed"] == 0


    def test_canonical_is_a_fixed_point(self):
        given = {
            **MINIMAL, "m": 0.25,
            "grid": {"x_min": -10, "n": 128},
            "options": {"mourre": {"n": 320}, "scatter": {"schedule": [1, 2, 3]}, "evolve": None},
        }
        for data in (MINIMAL, given):
            cfg = parse_config_dict(data)
            again = parse_config_dict(cfg.canonical)
            assert again.digest == cfg.digest
            assert again.canonical == cfg.canonical

    def test_manifest_carries_the_hashed_config(self, tmp_path):
        """The digest stamped into every report is checked from the outputs
        alone: it is the SHA-256 of the manifest's canonical config."""
        cfg = small_config(m=0.25)
        run(cfg, experiments=["geometry"], out=str(tmp_path))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        text = json.dumps(doc["canonical"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == doc["config"] == cfg.digest
        assert (tmp_path / "geometry_map.csv").read_text().startswith(f"# config {doc['config']}")

    def test_spelled_out_defaults_keep_the_digest(self):
        spelled = {
            **MINIMAL,
            "grid": {"x_min": -32, "n": 2048},
            "seed": 0,
            "options": {
                "scatter": {"schedule": [1, 2, 4, 8, 16]},
                "mourre": {"n": 640},
                "geometry": {},
            },
        }
        assert parse_config_dict(spelled).digest == parse_config_dict(MINIMAL).digest
        assert parse_config_dict({**MINIMAL, "seed": 1}).digest != (
            parse_config_dict(MINIMAL).digest
        )

    def test_readme_reference_lists_the_schema_defaults(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("### Config reference", 1)[1]
        block = block.split("```jsonc", 1)[1].split("```", 1)[0]
        data = json.loads(re.sub(r"//.*", "", block))

        def keys(tree, prefix=""):
            out = set()
            for key, value in tree.items():
                out.add(prefix + key)
                if isinstance(value, dict):
                    out |= keys(value, f"{prefix}{key}.")
            return out

        assert keys(data) == keys(_SCHEMA)
        assert parse_config_dict(data).digest == parse_config_dict(MINIMAL).digest


#: key path → (valid values, type and range violations); grids stay at
#: n <= 256; a removed key has no valid value
_VALUES = {
    "M": ((1, 1.0, 2.5), (0, "x", True)),
    "l": ((1, 0.5), (-1.0, float("nan"))),
    "m": ((1, 0.25, 0.0), (-2, True)),
    "channel": (([0.5, 0.5], [1.5, -0.5]), ([0.5, 1.5], [0.5], "x")),
    "bc": ((), ("natural", "mit")),
    "typo": ((), (1,)),
    "grid.x_min": ((-16.0, -8, -40.0), (0, 3.0, "x")),
    "grid.n": ((16, 64, 256), (8, 100.0, "x")),
    "grid.h_min": ((), (0.05, -1)),
    "grid.ratio": ((), (1.1, 1.5)),
    "grid.h_max": ((), (0.2, 0.01)),
    "experiments": ((), (["all"], ["geometry", "mourre"])),
    "out": (("runs", "elsewhere"), ("", 3)),
    "seed": ((0, 7), (-1, True)),
    "options.geometry.typo": ((), (1,)),
    "options.scatter.schedule": (([1, 2, 4], [0.5, 1, 2, 3]), ([1], [3, 2, 1], [0, 1, 2], "abc")),
    "options.velocity.delta": ((), (0.2, 0.7)),
    "options.velocity.eps": ((), (0.2, -0.1)),
    "options.velocity.cone_delta": ((), (0.25, 1.0)),
    "options.mourre.n": ((16, 64), (8, 320.0, "abc")),
    "options.mourre.eps": ((), (0.5, 1.0)),
    "options.mourre.stability": ((), (0.05, -1)),
    "options.spectrum.n": ((16, 64), (8, "x")),
}


@st.composite
def _configs(draw):
    """A config of valid values with up to two keys given a violation, and
    whether it has one.

    The physics keys, ``grid.x_min`` and ``grid.n`` are always given; any
    other key only sometimes.  Rules that tie keys together (index rule,
    the packets on the grid) can still reject such a config."""
    faults = draw(st.sets(st.sampled_from(sorted(_VALUES)), max_size=2))
    data: dict = {}
    for path, (good, bad) in _VALUES.items():
        if path in faults:
            value = draw(st.sampled_from(bad))
        elif not good:
            continue
        elif path in ("M", "l", "m", "channel", "grid.x_min", "grid.n") or draw(st.booleans()):
            value = draw(st.sampled_from(good))
        else:
            continue
        *blocks, key = path.split(".")
        node = data
        for name in blocks:
            node = node.setdefault(name, {})
        node[key] = value
    return data, bool(faults)


def _build_inputs(cfg):
    """Every input the experiments build from the config before they
    compute, through the consuming modules' own constructors and checks."""
    opts = cfg.options
    for name in harness._PACKETS:
        _packet(cfg.grid, name)
    _check_schedule(opts["scatter"]["schedule"])
    make_grid(cfg.grid.x_min, opts["mourre"]["n"])
    make_grid(cfg.grid.x_min, harness._MOURRE_FINE_FACTOR * opts["mourre"]["n"])
    make_grid(cfg.grid.x_min, opts["spectrum"]["n"])
    for mass in harness._DOMAIN_MASSES:
        make_params(cfg.params.M, cfg.params.l, mass)


class TestSchemaProperty:

    @seed(20261018)
    @settings(
        max_examples=300, deadline=None, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_configs())
    def test_accepted_configs_build_every_input(self, case):
        """A config either raises ConfigError alone, or every input its
        experiments need builds without ValueError or ConfigurationError
        and its canonical form parses back to the same digest.  A config
        with a violation is always rejected."""
        data, faulty = case
        note(repr(data))
        try:
            cfg = parse_config_dict(data)
        except ConfigError as exc:
            assert exc.errors
            return
        assert not faulty
        _build_inputs(cfg)
        assert parse_config_dict(cfg.canonical).digest == cfg.digest


class TestTortoiseQuadrature:
    """The rule behind ``geometry``'s ``tortoise_quadrature`` line."""

    @settings(max_examples=30, deadline=None)
    @given(M=st.floats(0.1, 2.0), l=st.floats(0.1, 2.0))
    def test_matches_adaptive_quadrature(self, M, l):
        """Against ``quad`` of 1/F in r, on the check's probe intervals.
        Both read F from ``metric_factor``, whose rounding at δ = 1e−3
        (F ≈ 2κδ out of 1 − 2M/r + r²/l²) grows with M and l: past 2 it
        moves either integral by more than 1e−13 relative."""
        p = make_params(M, l, 1.0)
        r = p.r_sads + np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
        ref = [
            quad(lambda rr: 1.0 / metric_factor(rr, M, l), a, b,
                 epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for a, b in zip(r[:-1], r[1:])
        ]
        np.testing.assert_allclose(_tortoise_quadrature(p, r), ref, rtol=1e-13, atol=0.0)

    def test_perturbed_tortoise_fails_the_check(self, tmp_path, monkeypatch):
        """Negative control: a smooth 1e−6·(r − r_sads) error in the closed
        form moves each probe difference by 9e−9 to 9e−6, and the line must
        FAIL while the others pass."""
        exact = CoordinateMap.tortoise
        monkeypatch.setattr(
            CoordinateMap, "tortoise",
            lambda self, r: exact(self, r) + 1e-6 * (r - self.params.r_sads),
        )
        manifest = run(small_config(), experiments=["geometry"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None and result.status == "fail"
        checks = {c.name: c.passed for c in result.checks}
        assert checks == {"horizon_root": True, "round_trip": True, "tortoise_quadrature": False}
        gap = json.loads((tmp_path / "geometry.json").read_text())["scalars"]["quadrature_gap"]
        assert 1e-6 < gap < 1e-5


class TestCheckLine:
    """A check line is one value held to one bound; its verdict and its
    text derive from those."""

    @settings(max_examples=100, deadline=None, database=None)
    @example(value=float("nan"), bound=1.0, relation="<=", note="")
    @example(value=float("nan"), bound=1.0, relation=">=", note="")
    @example(value=1.0, bound=float("nan"), relation="<=", note="")
    @example(value=1.0, bound=float("nan"), relation=">=", note="")
    @given(
        value=st.floats(allow_infinity=False) | st.integers(-3, 3),
        bound=st.floats(allow_infinity=False),
        relation=st.sampled_from(["<=", ">="]),
        note=st.text(max_size=12),
    )
    def test_passed_is_the_stated_comparison(self, value, bound, relation, note):
        line = CheckLine("x", "the value", value, relation, bound, note)
        if np.isnan(value) or np.isnan(bound):
            assert not line.passed
        else:
            assert line.passed == (value <= bound if relation == "<=" else value >= bound)
        shown = f"{value:.3e}" if isinstance(value, float) else str(value)
        assert line.detail.startswith(f"the value = {shown} ({relation} {bound:g})")
        assert line.detail.endswith(f"; {note}" if note else ")")


class TestRun:

    def test_geometry_only_writes_one_csv_one_json(self, tmp_path):
        cfg = small_config()
        manifest = run(cfg, experiments=["geometry"], out=str(tmp_path))
        assert manifest.all_passed
        assert [r.name for r in manifest.results] == ["geometry"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "geometry.json",
            "geometry_map.csv",
            "manifest.json",
        ]

    def test_headers_carry_config_hash(self, tmp_path):
        cfg = small_config()
        run(cfg, experiments=["geometry"], out=str(tmp_path))
        first = (tmp_path / "geometry_map.csv").read_text().splitlines()[0]
        assert first == f"# config {cfg.digest}"
        doc = json.loads((tmp_path / "geometry.json").read_text())
        assert doc["config"] == cfg.digest

    def test_identical_reruns_byte_identical(self, tmp_path):
        cfg = small_config()
        run(cfg, experiments=["geometry"], out=str(tmp_path / "a"))
        run(cfg, experiments=["geometry"], out=str(tmp_path / "b"))
        for name in ("geometry_map.csv", "geometry.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_module_error_aborts_only_that_experiment(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(harness._RUNNERS, "evolve", boom)
        cfg = small_config()
        manifest = run(
            cfg, experiments=["geometry", "evolve"], out=str(tmp_path)
        )
        by_name = {r.name: r for r in manifest.results}
        assert by_name["geometry"].status == "pass"
        assert by_name["evolve"].status == "error"
        assert "synthetic failure" in by_name["evolve"].error
        assert not manifest.all_passed
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["experiments"]["evolve"]["status"] == "error"
        assert doc["all_passed"] is False

    def test_pool_collection_is_order_deterministic(self, tmp_path):
        cfg = small_config(options={"spectrum": {"n": 64}})
        manifest = run(
            cfg,
            experiments=["spectrum", "geometry"],
            out=str(tmp_path),
            threads=2,
        )
        assert [r.name for r in manifest.results] == ["geometry", "spectrum"]

    def test_width_changes_no_report(self, tmp_path, monkeypatch):
        """Every file but the manifest is byte-identical at widths 1 and 2,
        width 1 starts no process, and width 2 leaves none behind."""
        cfg = small_config()
        with monkeypatch.context() as m:
            m.setattr(os, "fork", None)
            one = run(cfg, experiments=EXPERIMENTS, out=str(tmp_path / "one"))
        two = run(cfg, experiments=EXPERIMENTS, out=str(tmp_path / "two"), threads=2)
        assert multiprocessing.active_children() == []
        assert [r.status for r in one.results] == [r.status for r in two.results]
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
        assert len(names) > len(EXPERIMENTS) + 1
        for name in names:
            if name != "manifest.json":
                assert (tmp_path / "one" / name).read_bytes() == (
                    tmp_path / "two" / name
                ).read_bytes(), name

    @pytest.mark.parametrize("threads", [1, 2])
    def test_experiments_run_on_one_blas_thread(self, tmp_path, monkeypatch, threads):
        """In this process and in the workers every OpenBLAS runs one thread
        during the run, and gets its count back after."""
        controls = harness._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS found in this process")

        def probe(cfg):
            counts = [get() for get, _ in harness._openblas_thread_controls()]
            return ExperimentResult("geometry", scalars={"counts": counts})

        monkeypatch.setitem(harness._RUNNERS, "geometry", probe)
        before = [get() for get, _ in controls]
        try:
            for _, put in controls:
                put(2)
            run(small_config(), experiments=["geometry", "evolve"], out=str(tmp_path),
                threads=threads)
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, put), count in zip(controls, before):
                put(count)
        report = json.loads((tmp_path / "geometry.json").read_text())
        assert report["scalars"]["counts"] == [1] * len(controls)

    def test_manifest_records_cpu_time_and_peak_memory(self, tmp_path):
        """Besides the times and the memory, the manifest says whether the
        propagators flushed subnormals to zero: they do on x86-64 Linux."""
        run(small_config(), experiments=["geometry", "evolve"], out=str(tmp_path), threads=2)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["peak_rss_mb"] > 10.0
        assert doc["subnormals_flushed"] is (
            sys.platform == "linux" and os.uname().machine == "x86_64"
        )
        assert set(doc["experiments"]) == {"geometry", "evolve"}
        for entry in doc["experiments"].values():
            assert entry["status"] == "pass"
            assert entry["wall_clock"] > 0.0 and entry["cpu_s"] > 0.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_manifest_records_the_coordinate_inverses(self, tmp_path, threads):
        """Each experiment counts the node sets it solved the coordinate
        inverse on and the reads it took from the memo, in the process that
        ran it: ``evolve`` assembles once from two calls on one node set;
        ``geometry`` solves each round trip's nodes once, reads the horizon
        fit's nodes twice and the map table's three times."""
        inverse_memo.cache_clear()
        run(small_config(), experiments=["geometry", "evolve"], out=str(tmp_path),
            threads=threads)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        counts = {k: v["coordinate_inverses"] for k, v in doc["experiments"].items()}
        assert counts == {
            "geometry": {"solved": 4, "reused": 3},
            "evolve": {"solved": 1, "reused": 1},
        }

    def test_dead_worker_errors_only_its_experiments(self, tmp_path, monkeypatch):
        """``mourre``'s worker exits once ``geometry`` is done; ``spectrum``,
        running on the other worker when the pool breaks, errors too, and
        ``geometry`` keeps its result."""
        def die(cfg):
            deadline = time.monotonic() + 30.0
            while not (tmp_path / "geometry.json").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(3)

        monkeypatch.setitem(harness._RUNNERS, "mourre", die)
        monkeypatch.setitem(harness._RUNNERS, "spectrum", lambda cfg: time.sleep(60))
        manifest = run(
            small_config(),
            experiments=["geometry", "mourre", "spectrum"],
            out=str(tmp_path),
            threads=2,
        )
        assert multiprocessing.active_children() == []
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["experiments"]["geometry"]["status"] == "pass"
        for name in ("mourre", "spectrum"):
            assert doc["experiments"][name]["status"] == "error"
            assert doc["experiments"][name]["error"].startswith("BrokenProcessPool: ")
        assert [r.status for r in manifest.results] == ["pass", "error", "error"]

    def test_spectrum_records_the_sweep_counters(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_SPECTRUM_LAMBDAS", (-1.0, 0.0, 4.0))
        cfg = small_config(options={"spectrum": {"n": 64}})
        manifest = run(cfg, experiments=["spectrum"], out=str(tmp_path))
        assert manifest.all_passed
        scalars = json.loads((tmp_path / "spectrum.json").read_text())["scalars"]
        # the counts are inertia differences, and the CSV holds the window's levels
        op = cfg.operator(make_grid(cfg.grid.x_min, 64))
        for k, count in scalars["counts"].items():
            lo, hi = level_count(op, (-float(k), float(k)))
            assert count == hi - lo
        rows = (tmp_path / "spectrum_eigenvalues.csv").read_text().splitlines()[3:]
        assert len(rows) == scalars["counts"]["1"] > 0
        assert scalars["window"] == [-1.0, 1.0]
        assert scalars["requested"] > scalars["counts"]["1"]
        assert len(scalars["current_defects"]) == len(scalars["steps"]) == 3
        assert max(scalars["current_defects"]) <= 1e-12
        # ∫‖W‖ over [−2X, −X] does not depend on λ, and e^{−κX} makes it tiny
        tails = scalars["integral_tails"]
        assert len(tails) == 3 and len(set(tails)) == 1 and 0.0 < tails[0] <= 1e-12
        assert all(isinstance(k, int) and k > 0 for k in scalars["steps"])
        # the step shrinks with |λ| past 2
        assert scalars["steps"][0] == scalars["steps"][1] < scalars["steps"][2]

    def test_domain_exponent_records_each_wall_row(self, tmp_path):
        """One wall exponent per mass: none at 2ml = 2 (the natural wall),
        ml at 2ml = 0.5 (the graded grid resolves the bag wall's layer)."""
        run(small_config(), experiments=["domain-exponent"], out=str(tmp_path))
        scalars = json.loads((tmp_path / "domain_exponent.json").read_text())["scalars"]
        assert scalars["masses"] == [1.0, 0.25]
        assert scalars["wall_exponents"] == [None, 0.25]

    def test_mourre_records_its_eigensolves(self, tmp_path):
        cfg = small_config(options={"mourre": {"n": 160}})
        manifest = run(cfg, experiments=["mourre"], out=str(tmp_path))
        assert manifest.all_passed
        scalars = json.loads((tmp_path / "mourre.json").read_text())["scalars"]
        solves = scalars["solves"]
        assert sorted(solves) == ["coarse", "fine", "free"]
        assert solves["coarse"]["found"] == scalars["coarse_states"]
        assert solves["fine"]["found"] == scalars["fine_states"]
        for solve in solves.values():
            assert solve["found"] <= solve["requested"] < 4 * 320
            assert solve["max_residual"] <= 1e-10 * 1.5
            assert solve["orthonormality_defect"] <= 1e-10

    def test_thin_mourre_window_fails_with_its_level_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_MOURRE_WINDOW", (100.0, 101.0))
        cfg = small_config(options={"mourre": {"n": 64}})
        manifest = run(cfg, experiments=["mourre"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None and result.status == "fail"
        checks = {c.name: c for c in result.checks}
        assert sorted(checks) == ["fine_window", "free_quotient", "refinement", "window"]
        for name in ("window", "fine_window", "refinement"):
            assert not checks[name].passed and np.isnan(checks[name].value)
            assert "holds only 0 levels" in checks[name].detail
        assert result.files == ["mourre.json"]
        scalars = json.loads((tmp_path / "mourre.json").read_text())["scalars"]
        assert scalars["interval"] == [100, 101]

    def test_mourre_window_centred_on_a_level_fails_its_checks(self, tmp_path, monkeypatch):
        # the free operator has levels at 0, the centre of [-0.5, 0.5]
        monkeypatch.setattr(harness, "_MOURRE_WINDOW", (-0.5, 0.5))
        cfg = small_config(options={"mourre": {"n": 64}})
        manifest = run(cfg, experiments=["mourre"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None and result.status == "fail"
        free = {c.name: c for c in result.checks}["free_quotient"]
        assert not free.passed
        assert "centred on a level: 4 levels" in free.detail

    def test_short_velocity_domain_fails_its_checks(self, tmp_path):
        # traces to t = 20 need x_min <= -26: four FAIL lines saying so, the
        # scalars file, and the trace file with its header only
        cfg = parse_config_dict({**MINIMAL, "grid": {"x_min": -16, "n": 64}})
        manifest = run(cfg, experiments=["velocity"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None and result.status == "fail"
        checks = {c.name: c for c in result.checks}
        assert sorted(checks) == ["asymptotic", "cone", "maximal", "minimal"]
        for check in checks.values():
            assert not check.passed and np.isnan(check.value)
            assert check.detail.endswith("; velocity traces to t = 20 need x_min <= -26")
        assert sorted(result.files) == ["velocity.json", "velocity_traces.csv"]
        rows = (tmp_path / "velocity_traces.csv").read_text().splitlines()
        assert rows[-1] == "t,minimal,maximal,unit,cone,v"
        doc = json.loads((tmp_path / "velocity.json").read_text())
        assert doc["scalars"] == {"bc": "natural"}

    def test_short_scatter_domain_fails_its_checks(self, tmp_path):
        # the forward packet at -4 (width 0.5) moves left for t = 16, so the
        # default schedule needs x_min <= -23: the forward, backward and
        # adjoint lines unmeasured and saying so, where the free flow once
        # raised, the trivial oracle on its own grid, and the increments
        # file with its header only
        cfg = parse_config_dict({**MINIMAL, "grid": {"x_min": -16, "n": 256}})
        manifest = run(cfg, experiments=["scatter"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None and result.status == "fail"
        checks = {c.name: c for c in result.checks}
        assert list(checks) == [*_WAVE_LINES, "trivial"]
        for name in _WAVE_LINES:
            assert not checks[name].passed and np.isnan(checks[name].value)
            assert checks[name].detail.endswith("; scatter to t = 16 needs x_min <= -23")
        assert checks["trivial"].passed
        assert sorted(result.files) == ["scatter.json", "scatter_increments.csv"]
        rows = (tmp_path / "scatter_increments.csv").read_text().splitlines()
        assert rows[-1] == "t,forward_increment,backward_increment"
        doc = json.loads((tmp_path / "scatter.json").read_text())
        assert sorted(doc["scalars"]) == ["bc", "schedule", "trivial_max"]

    def test_free_mourre_window_on_the_configured_domain(self, tmp_path, monkeypatch):
        # on x_min = -32 the free window [0.5, 0.9] holds as many levels as
        # the interacting one; on a fixed (-16, 0) it held half, too few
        monkeypatch.setattr(harness, "_MOURRE_WINDOW", (0.5, 0.9))
        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": -32, "n": 256},
            "options": {"mourre": {"n": 320}},
        })
        manifest = run(cfg, experiments=["mourre"], out=str(tmp_path))
        (result,) = manifest.results
        checks = {c.name: c for c in result.checks}
        assert checks["window"].passed and checks["free_quotient"].passed
        solves = json.loads((tmp_path / "mourre.json").read_text())["scalars"]["solves"]
        assert solves["free"]["found"] == solves["coarse"]["found"] == 16

    def test_scatter_schedule_times_on_one_step(self, tmp_path):
        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": -16, "n": 256},
            "options": {"scatter": {"schedule": [1, 1.001, 2]}},
        })
        manifest = run(cfg, experiments=["scatter"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None
        rows = (tmp_path / "scatter_increments.csv").read_text().splitlines()
        assert rows[-3] == "t,forward_increment,backward_increment"
        assert [float(r.split(",")[0]) for r in rows[-2:]] == pytest.approx([1.001, 2])

    def test_scatter_and_velocity_record_propagator_counters(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_VELOCITY_TIMES", (1.0, 2.0, 4.0))
        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": -16, "n": 128},
            "options": {"scatter": {"schedule": [1, 2, 3]}},
        })
        manifest = run(cfg, experiments=["scatter", "velocity"], out=str(tmp_path))
        assert all(r.error is None for r in manifest.results)
        # R is the largest Gershgorin bound of the two sector blocks
        blocks = dense_blocks(cfg.operator())
        gershgorin = max(float(np.abs(b).sum(axis=1).max()) for b in blocks)
        # W's increments span t_3 − t_1 = 2, and its last increment run goes
        # on from Δ_2 = 1 to the limit at t_3 = 3, 2 more; Ω runs Cayley
        for name, least_time in (("scatter", 2 + 2), ("velocity", 4)):
            scalars = json.loads((tmp_path / f"{name}.json").read_text())["scalars"]
            assert scalars["bound"] == pytest.approx(gershgorin, rel=1e-15)
            # at least t·R terms over every interacting run
            assert scalars["matvecs"] >= least_time * scalars["bound"]
            assert 0.0 <= scalars["norm_drift"] <= 1e-12
        # the velocity run's largest mass next to x_min, as its report reads it
        velocity = json.loads((tmp_path / "velocity.json").read_text())["scalars"]
        phi = _packet(cfg.grid, "velocity")
        assert velocity["wall_mass"] == velocity_report(phi, [1, 2, 4], cfg.operator()).wall_mass

    def test_trivial_oracle_fails_on_a_lagging_pullback(self, tmp_path, monkeypatch):
        """Negative control for the trivial oracle, the identity by algebra:
        a discrete pullback by the previous schedule time (the first
        snapshot keeps its own) leaves Ω₂φ = e^{−iH}φ against Ω₁φ = φ, and
        the line must FAIL where the same run passes unpatched."""
        import adsdirac.scattering as scattering
        from adsdirac.dynamics import Direction

        times = [1.0, 2.0, 3.0]
        exact_evolve = scattering.evolve

        def lagging(op, psi, config, direction=Direction.FORWARD):
            if direction is Direction.BACKWARD:
                k = int(np.argmin(np.abs(np.subtract(times, config.t_final))))
                config = dataclasses.replace(config, t_final=times[max(k - 1, 0)])
            return exact_evolve(op, psi, config, direction)

        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": -16, "n": 64},
            "options": {"scatter": {"schedule": times}},
        })
        lines = []
        for patch in (exact_evolve, lagging):
            monkeypatch.setattr(scattering, "evolve", patch)
            (result,) = run(cfg, experiments=["scatter"], out=str(tmp_path)).results
            (line,) = [c for c in result.checks if c.name == "trivial"]
            assert "the identity by algebra" in line.detail
            lines.append(line)
        assert lines[0].passed and not lines[1].passed

    def test_evolve_records_solver_residuals(self, tmp_path):
        cfg = small_config()
        manifest = run(cfg, experiments=["evolve"], out=str(tmp_path))
        assert manifest.all_passed
        scalars = json.loads((tmp_path / "evolve.json").read_text())["scalars"]
        assert scalars["refinements"] == 0
        assert 0.0 < scalars["max_residual"] <= 1e-10

    def test_free_oracle_records_its_counters_and_takes_no_cayley_step(
        self, tmp_path, monkeypatch
    ):
        """The oracle's Chebyshev counters read back from ``evolve.json``,
        and every Cayley step of the run belongs to the configured flow,
        whose ``steps`` the report records."""
        from adsdirac.dynamics import CayleyStepper

        calls = []
        step = CayleyStepper.step

        def counted(self, psi):
            calls.append(1)
            return step(self, psi)

        monkeypatch.setattr(CayleyStepper, "step", counted)
        manifest = run(small_config(), experiments=["evolve"], out=str(tmp_path))
        assert manifest.all_passed
        scalars = json.loads((tmp_path / "evolve.json").read_text())["scalars"]
        assert len(calls) == scalars["steps"] > 0
        assert len(scalars["free_errors"]) == 3
        for n, matvecs, bound, drift in zip(
            (512, 1024, 2048), scalars["free_matvecs"], scalars["free_bounds"],
            scalars["free_drifts"],
        ):
            blocks = dense_blocks(free_operator(make_grid(-8.0, n)))
            assert bound == max(float(np.abs(b).sum(axis=1).max()) for b in blocks)
            # at least t·R terms for the run to t = 5
            assert isinstance(matvecs, int) and matvecs >= 5 * bound
            assert 0.0 <= drift <= 1e-12

    @pytest.mark.parametrize(
        "grid, low, high",
        [({"x_min": -32.0, "n": 2048}, 0.0, 1e-30), ({"x_min": -8.0, "n": 256}, 0.5, 1.0)],
        ids=["desk", "short"],
    )
    def test_evolve_records_the_mass_at_the_wall(self, tmp_path, grid, low, high):
        """The default packet, reflected at x = 0, runs left for 6 time
        units: on the desk grid no mass comes within 2 of x_min = −32; on
        x_min = −8 most of it does, and the flow's checks still pass."""
        cfg = parse_config_dict({**MINIMAL, "grid": grid})
        manifest = run(cfg, experiments=["evolve"], out=str(tmp_path))
        assert manifest.all_passed
        scalars = json.loads((tmp_path / "evolve.json").read_text())["scalars"]
        assert low <= scalars["wall_mass"] <= high

    def test_open_right_wall_fails_the_free_oracle(self, tmp_path, monkeypatch):
        """Negative control for criterion 4: the free operator without its
        right-wall closure block (a zero ghost at x = 0) reflects the packet
        into the wrong components, and both oracle lines must FAIL."""
        def open_wall(grid):
            op = free_operator(grid)
            matrix = op.matrix.tolil()
            # the last node's 2×2 block in each sector: the free closure
            last = np.ix_(*[[2 * grid.n - 2, 2 * grid.n - 1, 4 * grid.n - 2, 4 * grid.n - 1]] * 2)
            assert matrix[last].count_nonzero() == 4
            matrix[last] = 0.0
            return dataclasses.replace(op, matrix=matrix.tocsc())

        monkeypatch.setattr(harness, "free_operator", open_wall)
        manifest = run(small_config(), experiments=["evolve"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None and result.status == "fail"
        checks = {c.name: c for c in result.checks}
        assert checks["unitarity"].passed
        assert not checks["free_oracle"].passed and not checks["free_order"].passed
        errors = json.loads((tmp_path / "evolve.json").read_text())["scalars"]["free_errors"]
        assert min(errors) > 1.0

    def test_rejected_eigensolve_fails_its_checks(self, tmp_path, monkeypatch):
        """Negative control for the spectrum contract lines: eigenvalues
        shifted by 1e-6 and vectors scaled by 1 + 1e-6 make the solver's
        own accuracy check reject the solve; the two lines must FAIL with
        its numbers while the sweep still runs."""
        import scipy.linalg as sla

        exact_eigh = sla.eigh

        def bad_eigh(a):
            lam, vec = exact_eigh(a)
            return lam + 1e-6, vec * (1.0 + 1e-6)

        monkeypatch.setattr(sla, "eigh", bad_eigh)
        monkeypatch.setattr(harness, "_SPECTRUM_LAMBDAS", (0.0,))
        monkeypatch.setattr(harness, "_SPECTRUM_DEPTH", 5.0)
        cfg = small_config(options={"spectrum": {"n": 64}})
        manifest = run(cfg, experiments=["spectrum"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.status == "fail"
        checks = {c.name: c for c in result.checks}
        assert not checks["eigen_residual"].passed
        assert not checks["orthonormality"].passed
        assert "rejected" in checks["eigen_residual"].detail
        assert "1.000e-06" in checks["eigen_residual"].detail
        assert "2.000e-06" in checks["orthonormality"].detail
        assert "no_eigenvalue[0]" in checks  # the sweep still ran
        assert sorted(result.files) == ["spectrum.json", "spectrum_eigenvalues.csv"]
        rows = (tmp_path / "spectrum_eigenvalues.csv").read_text().splitlines()
        assert rows[-1] == "k,lambda"
        assert json.loads((tmp_path / "spectrum.json").read_text())["scalars"]["requested"] is None

    def test_dropped_level_fails_its_checks(self, tmp_path, monkeypatch):
        """Negative control for the count-checked window solve: an ``eigsh``
        that loses the level nearest its shift returns one level fewer than
        inertia counts in [−1, 1]; both lines must FAIL carrying the two
        numbers while the sweep still runs."""
        drop_nearest_level(monkeypatch)
        monkeypatch.setattr(harness, "_SPECTRUM_LAMBDAS", (0.0,))
        monkeypatch.setattr(harness, "_SPECTRUM_DEPTH", 5.0)
        cfg = small_config(options={"spectrum": {"n": 64}})
        manifest = run(cfg, experiments=["spectrum"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.status == "fail"
        checks = {c.name: c for c in result.checks}
        counted = json.loads((tmp_path / "spectrum.json").read_text())["scalars"]["counts"]["1"]
        for name in ("eigen_residual", "orthonormality"):
            assert not checks[name].passed
            assert f"found {counted - 1} levels" in checks[name].detail
            assert f"inertia counts {counted}" in checks[name].detail
        assert "no_eigenvalue[0]" in checks  # the sweep still ran

    def test_empty_selection_rejected(self, tmp_path):
        cfg = small_config()
        with pytest.raises(Exception, match="no experiments"):
            run(cfg, experiments=["nothing"], out=str(tmp_path))

    def test_verdict_lines_echoed(self, tmp_path, capsys, monkeypatch):
        """``run`` prints nothing; ``main`` prints an [ERROR] line per
        errored experiment and a line per check of the manifest it gets
        back, then the summary line."""
        def stub(name):
            if name == "evolve":
                raise RuntimeError("synthetic failure")
            checks = [
                CheckLine("a", "one", 0.0, "<=", 1.0),
                CheckLine("b", "two", 2.0 if name == "mourre" else 0.5, "<=", 1.0),
            ]
            return ExperimentResult(name, checks=checks)

        for name in EXPERIMENTS:
            monkeypatch.setitem(harness._RUNNERS, name, lambda cfg, name=name: stub(name))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        manifest = run(parse_config(path), experiments=EXPERIMENTS, out=str(tmp_path / "a"))
        assert capsys.readouterr().out == ""
        assert main(["all", "--config", str(path), "--out", str(tmp_path / "b")]) == 1
        lines = capsys.readouterr().out.splitlines()
        expected = []
        for r in manifest.results:
            expected += [f"[ERROR] {r.name}: {r.error}"] if r.error else []
            expected += [c.line(r.name) for c in r.checks]
        assert lines[:-1] == expected
        assert "[ERROR] evolve: RuntimeError: synthetic failure" in lines
        assert "[pass] geometry.a: one = 0.000e+00 (<= 1)" in lines
        assert "[FAIL] mourre.b: two = 2.000e+00 (<= 1)" in lines
        assert re.fullmatch(r"FAILURES present \(7 experiment\(s\), \d+\.\d s\)", lines[-1])

    def test_tables_are_written_before_the_json(self, tmp_path, monkeypatch):
        """A runner only returns its tables; one writer stamps each as CSV,
        then writes ``<name>.json`` (dashes as underscores) with each
        check's value, relation, bound, verdict and text, and the manifest
        lists the files in that order and keeps one verdict per check."""
        written = []
        for writer in ("write_csv", "write_json"):
            real = getattr(harness, writer)
            monkeypatch.setattr(
                harness, writer, lambda path, *rest, real=real: written.append(path.name) or real(path, *rest)
            )

        def stub(cfg):
            checks = [
                CheckLine("a", "x", 0.5, "<=", 1.0, "why"),
                CheckLine("b", "y", float("nan"), ">=", 0.0, "not run"),
            ]
            res = ExperimentResult("domain-exponent", checks=checks, scalars={"k": 1.5})
            res.tables["second.csv"] = (("t", "v"), [(1.0, 0.25), (2.0, 0.5)])
            res.tables["first.csv"] = (("k",), [])
            return res

        monkeypatch.setitem(harness._RUNNERS, "domain-exponent", stub)
        cfg = small_config()
        manifest = run(cfg, experiments=["domain-exponent"], out=str(tmp_path))
        order = ["second.csv", "first.csv", "domain_exponent.json"]
        assert written == order
        assert manifest.results[0].files == order
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["experiments"]["domain-exponent"]["files"] == order
        assert doc["experiments"]["domain-exponent"]["checks"] == {"a": True, "b": False}
        stamp = [f"# config {cfg.digest}", f"# artifact {VERSION}"]
        assert (tmp_path / "second.csv").read_text().splitlines() == [
            *stamp, "t,v", "1,0.25", "2,0.5",
        ]
        assert (tmp_path / "first.csv").read_text().splitlines() == [*stamp, "k"]
        report = json.loads((tmp_path / "domain_exponent.json").read_text())
        assert report["config"] == cfg.digest and report["scalars"] == {"k": 1.5}
        checks = report["checks"]
        assert checks["a"] == {
            "value": 0.5, "relation": "<=", "bound": 1.0, "passed": True,
            "detail": "x = 5.000e-01 (<= 1); why",
        }
        assert np.isnan(checks["b"].pop("value"))
        assert checks["b"] == {
            "relation": ">=", "bound": 0.0, "passed": False, "detail": "y = nan (>= 0); not run",
        }

    def test_manifest_keeps_one_verdict_per_check(self, tmp_path):
        """On a real run of every experiment, unmeasured lines included,
        the manifest maps each check to its verdict, a bool, and each
        report's check records the same verdict next to its numbers."""
        manifest = run(small_config(), experiments=EXPERIMENTS, out=str(tmp_path))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        for result in manifest.results:
            flags = doc["experiments"][result.name]["checks"]
            assert flags == {c.name: c.passed for c in result.checks}
            assert all(type(flag) is bool for flag in flags.values())
            name = result.name.replace("-", "_") + ".json"
            report = json.loads((tmp_path / name).read_text())["checks"]
            assert sorted(report) == sorted(flags)
            for check, entry in report.items():
                assert sorted(entry) == ["bound", "detail", "passed", "relation", "value"]
                assert entry["passed"] is flags[check]
        assert not doc["experiments"]["scatter"]["checks"]["forward"]  # short domain


class TestControls:
    """Negative controls run through the harness lines: an input on which
    a line must FAIL, next to one on which it passes."""

    def test_short_schedule_fails_the_wave_lines(self, tmp_path):
        """On (−32, 512) the schedule [1, 2, 3] stops while the increments
        still rise, forward 0.085 → 0.508 and backward 0.984 → 1.493: both
        final increments and both tails FAIL, each rule on its own line,
        while the trivial oracle passes."""
        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": -32, "n": 512},
            "options": {"scatter": {"schedule": [1, 2, 3]}},
        })
        (result,) = run(cfg, experiments=["scatter"], out=str(tmp_path)).results
        checks = {c.name: c for c in result.checks}
        for name in ("forward", "backward"):
            assert not checks[name].passed and checks[name].value > 1e-2
            assert not checks[f"{name}_tail"].passed and checks[f"{name}_tail"].value == 1
        assert checks["trivial"].passed

    @pytest.mark.parametrize("x_min,n", [(-12, 16), (-16, 16), (-12, 24)])
    def test_free_flow_left_of_x_min_fails_the_wave_lines(self, tmp_path, x_min, n):
        """The domain passes the reach guard, but on so coarse a grid the
        free flow still samples data left of x_min: the wave lines are
        unmeasured, with the mass outside in their note, and the
        experiment records no error."""
        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": x_min, "n": n},
            "options": {"scatter": {"schedule": [1, 2, 4]}},
        })
        (result,) = run(cfg, experiments=["scatter"], out=str(tmp_path)).results
        assert result.error is None and result.status == "fail"
        checks = {c.name: c for c in result.checks}
        assert list(checks) == [*_WAVE_LINES, "trivial"]
        for name in _WAVE_LINES:
            assert not checks[name].passed and np.isnan(checks[name].value)
            assert "free flow samples data left of x_min" in checks[name].detail
            assert "mass_outside = " in checks[name].detail
        assert checks["trivial"].passed
        rows = (tmp_path / "scatter_increments.csv").read_text().splitlines()
        assert rows[-1] == "t,forward_increment,backward_increment"

    @pytest.mark.parametrize("speed,passes", [(1.0, True), (1.3, False)])
    def test_faster_operator_fails_the_velocity_lines(self, tmp_path, monkeypatch, speed, passes):
        """G scaled by 1.3 on (−26, 1024) carries content faster than light
        and into the wall (W-mass 0.56 there): all four lines FAIL, where
        the unscaled operator passes all four."""
        exact = ExperimentConfig.operator

        def scaled(self, grid=None):
            op = exact(self, grid)
            return dataclasses.replace(op, matrix=speed * op.matrix)

        monkeypatch.setattr(ExperimentConfig, "operator", scaled)
        cfg = parse_config_dict({**MINIMAL, "grid": {"x_min": -26, "n": 1024}})
        (result,) = run(cfg, experiments=["velocity"], out=str(tmp_path)).results
        assert {c.name: c.passed for c in result.checks} == dict.fromkeys(
            ("minimal", "maximal", "cone", "asymptotic"), passes
        )

    def test_kink_fails_every_no_eigenvalue_line(self, tmp_path, monkeypatch):
        """The Jackiw–Rebbi kink A = 2·tanh(x + 10), B ≡ 0, as the sweep's
        potentials: A does not decay toward the horizon, so Φ(−X → x₀) has
        no limit and all five no_eigenvalue lines FAIL (depth differences
        2.0e2, 1.8e28 and 1.8e18 at |λ| = 2, 1, 0).  condition[±2] (4.4e3)
        and condition[±1] (2.1e16) FAIL too.  condition[0] passes (60; A
        integrates to about −2 over [−20, −1], so the exact cond₂ Φ_X is
        e⁴ ≈ 55): at λ = 0 only Φ_{2X} blows up."""
        def kink(x):
            return 2.0 * np.tanh(x + 10.0), np.zeros_like(x)

        exact = harness.no_eigenvalue_test
        monkeypatch.setattr(
            harness, "no_eigenvalue_test",
            lambda lam, channel, params, depth: exact(lam, channel, params, depth, kink),
        )
        cfg = small_config(options={"spectrum": {"n": 64}})
        (result,) = run(cfg, experiments=["spectrum"], out=str(tmp_path)).results
        checks = {c.name: c for c in result.checks}
        for lam in (-2, -1, 0, 1, 2):
            assert not checks[f"no_eigenvalue[{lam}]"].passed
            assert checks[f"no_eigenvalue[{lam}]"].value > 1e2
            assert checks[f"condition[{lam}]"].passed == (lam == 0)
        assert checks["condition[0]"].value < 1e2

    def test_angular_well_fails_both_window_lines(self, tmp_path, monkeypatch):
        """A Gaussian well of depth 40 added to A drives the localized
        commutator negative on both grids: window and fine_window FAIL,
        while the free operator's line passes."""
        cm = CoordinateMap(make_params(1.0, 1.0, 1.0))

        def well(x):
            return cm.angular_factor_of_x(x) + 40.0 * np.exp(-((x + 3.0) ** 2)), cm.sqrtF_of_x(x)

        monkeypatch.setattr(
            ExperimentConfig, "operator",
            lambda self, grid=None: assemble_hamiltonian(self.channel, self.params, grid, well),
        )
        cfg = parse_config_dict({**MINIMAL, "options": {"mourre": {"n": 320}}})
        (result,) = run(cfg, experiments=["mourre"], out=str(tmp_path)).results
        checks = {c.name: c for c in result.checks}
        for name in ("window", "fine_window"):
            assert not checks[name].passed and checks[name].value < 0.0
        assert checks["free_quotient"].passed


class TestCli:

    def write(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_geometry_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, MINIMAL)
        code = main(["geometry", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "[pass] geometry.horizon_root" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, {**MINIMAL, "channel": [0.5, 1.5], "typo": 1})
        code = main(["geometry", "--config", path])
        assert code == 2
        err = capsys.readouterr().err
        assert "config rejected" in err
        assert "typo" in err

    def test_missing_config_exit_two(self, tmp_path, capsys):
        code = main(["geometry", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_failing_check_exit_one(self, tmp_path, capsys, monkeypatch):
        # sub-cell grading cannot see the wall exponent; the fit misses
        # its target and the exit code must say so
        monkeypatch.setattr(harness, "_DOMAIN_GRADING", BoundaryGraded(0.02, 1.1, 0.05))
        path = self.write(tmp_path, MINIMAL)
        code = main(
            ["domain-exponent", "--config", path, "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_dump_matrix(self, tmp_path, capsys):
        path = self.write(
            tmp_path, {**MINIMAL, "grid": {"x_min": -16.0, "n": 64}}
        )
        code = main(
            [
                "geometry",
                "--config",
                path,
                "--out",
                str(tmp_path / "out"),
                "--dump-matrix",
            ]
        )
        assert code == 0
        rows = (tmp_path / "out" / "matrix.csv").read_text().splitlines()
        assert rows[2] == "row,col,re,im"
        k, j, re, im = rows[3].split(",")
        # the first stored entry of row 0; the wall block has no diagonal
        matrix = parse_config_dict({**MINIMAL, "grid": {"x_min": -16.0, "n": 64}}).operator().matrix
        first = int(matrix.tocsr()[0].nonzero()[1].min())
        assert (int(k), int(j)) == (0, first)
        assert complex(float(re), float(im)) == matrix[0, first]

    def threads_passed(self, tmp_path, monkeypatch, *flags):
        """The pool width ``main`` hands the harness for these flags."""
        seen = []

        def fake_run(cfg, **kwargs):
            seen.append(kwargs["threads"])
            return SimpleNamespace(all_passed=True, results=[], wall_clock=0.0)

        monkeypatch.setattr(cli, "run", fake_run)
        path = self.write(tmp_path, MINIMAL)
        assert main(["geometry", "--config", path, *flags]) == 0
        return seen[0]

    def test_thread_count_resolution(self, tmp_path, monkeypatch):
        # --threads is the one setting of the pool width; ADSDIRAC_THREADS
        # is not read
        monkeypatch.setenv("ADSDIRAC_THREADS", "4")
        assert self.threads_passed(tmp_path, monkeypatch) == 1
        assert self.threads_passed(tmp_path, monkeypatch, "--threads", "3") == 3
        assert self.threads_passed(tmp_path, monkeypatch, "--threads", "0") == 1

    def test_parser_covers_all_experiments(self):
        parser = build_parser()
        for name in (*EXPERIMENTS, "all"):
            args = parser.parse_args([name, "--config", "x.json"])
            assert args.experiment == name

    def test_status_property(self):
        # a run that wrote no check line has shown nothing, so it fails
        r = ExperimentResult("x")
        assert r.status == "fail"
        r.checks.append(CheckLine("a", "one", 0.0, "<=", 1.0))
        assert r.status == "pass"
        r.checks.append(CheckLine("b", "two", 2.0, "<=", 1.0))
        assert r.status == "fail"
        r.error = "boom"
        assert r.status == "error"
