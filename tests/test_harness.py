"""Config validation, run orchestration, report files, and the CLI."""

import dataclasses
import json
import multiprocessing
import os
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import dense_sector_blocks, dense_symmetric, drop_nearest_level
from hypothesis import HealthCheck, given, note, seed, settings
from hypothesis import strategies as st

from adsdirac.channel import BoundaryCondition, free_operator
import adsdirac.cli as cli
from adsdirac.cli import build_parser, main
from adsdirac.dynamics import check_step
from adsdirac.geometry import Regime, make_params
from adsdirac.grids import BoundaryGraded, gaussian_packet, make_grid
from adsdirac import __version__ as VERSION
from adsdirac.harness import (
    _SCHEMA,
    EXPERIMENTS,
    CheckLine,
    ConfigError,
    ExperimentResult,
    _packet,
    parse_config,
    parse_config_dict,
    run,
)
from adsdirac.scattering import _check_schedule, velocity_report
from adsdirac.spectral import level_count

MINIMAL = {"M": 1, "l": 1, "m": 1, "channel": [0.5, 0.5]}
#: keys the config no longer has: the Mourre and velocity verdict bounds
#: and the main grid's graded triple
_REMOVED_KEYS = (
    "options.mourre.eps", "options.mourre.stability", "options.velocity.delta",
    "options.velocity.eps", "options.velocity.cone_delta",
    "grid.h_min", "grid.ratio", "grid.h_max",
)


def small_config(**extra):
    """A config whose experiments finish in well under a second."""
    data = dict(MINIMAL)
    data.update(
        {
            "grid": {"x_min": -16.0, "n": 64},
            "evolution": {"t_final": 1.0, "snapshots": 2},
        }
    )
    data.update(extra)
    return parse_config_dict(data)


class TestConfigValidation:

    def test_minimal_is_valid(self):
        cfg = parse_config_dict(MINIMAL)
        assert cfg.params.regime == Regime.SUPERCRITICAL
        assert cfg.operator().bc == BoundaryCondition.NATURAL
        assert cfg.channel.coupling == 1.0

    def test_keeps_the_grid_and_evolution_it_built(self):
        cfg = parse_config_dict({**MINIMAL, "evolution": {"t_final": 2.0, "snapshots": 4}})
        assert cfg.grid.n == 2048 and cfg.grid.x_min == -32.0
        assert cfg.evolution.dt == 0.5 * cfg.grid.min_spacing
        assert cfg.evolution.t_final == 2.0
        assert cfg.evolution.snapshot_times == (0.5, 1.0, 1.5, 2.0)

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
        # the verdict bounds are constants, and only domain-exponent grades
        *blocks, key = path.split(".")
        data = {**MINIMAL}
        node = data
        for name in blocks:
            node = node.setdefault(name, {})
        node[key] = 0.2
        where = ".".join(blocks)
        with pytest.raises(ConfigError, match=f"{where}: unknown key '{key}'"):
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
                    "mourre": {"n": 320, "fine_factor": 3, "interval": [0.5, 1.5]},
                    "domain-exponent": {"h_min": 1e-2, "ratio": 1.2, "x_min": -12.0},
                },
            }
        )
        assert cfg.option("mourre", "fine_factor", 2) == 3

    def test_bad_evolution_block(self):
        # dt = 1.0 is more than half the default grid's spacing
        for evolution in ({"dt": -0.1, "steps": 3}, {"dt": 1.0}):
            with pytest.raises(ConfigError, match="evolution"):
                parse_config_dict({**MINIMAL, "evolution": evolution})

    def test_unknown_experiment_name(self):
        # the subcommand names the experiments; the config has no say
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resonance", "--config", "x.json"])
        with pytest.raises(ConfigError, match="unknown key 'experiments'"):
            parse_config_dict({**MINIMAL, "experiments": ["geometry"]})

    def test_experiment_selection_keeps_canonical_order(self, tmp_path, monkeypatch):
        import adsdirac.harness as hn

        for name in EXPERIMENTS:
            monkeypatch.setitem(hn._RUNNERS, name, lambda cfg, name=name: (
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
        assert cfg.canonical["evolution"]["t_final"] == 10.0
        assert cfg.canonical["seed"] == 0


    def test_canonical_is_a_fixed_point(self):
        given = {
            **MINIMAL, "m": 0.25,
            "grid": {"x_min": -10, "n": 128},
            "evolution": {"t_final": 2, "snapshots": 1},
            "options": {"mourre": {"n": 320, "interval": [1, 2]}, "evolve": None},
        }
        for data in (MINIMAL, given):
            cfg = parse_config_dict(data)
            again = parse_config_dict(cfg.canonical)
            assert again.digest == cfg.digest
            assert again.canonical == cfg.canonical

    def test_spelled_out_defaults_keep_the_digest(self):
        spelled = {
            **MINIMAL,
            "grid": {"x_min": -32, "n": 2048},
            "evolution": {"dt": None, "t_final": 10},
            "seed": 0,
            "options": {
                "scatter": {"schedule": [1, 2, 4, 8, 16]},
                "mourre": {"n": 640, "interval": [0.5, 1.5]},
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


_PACKET = {
    "center": ((-4.0, -2, -12.0, 5.0), (1e6, "x")),  # 1e6: the packet underflows
    "width": ((0.5, 0.25, 1e-2), (0, -1)),
}

#: key path → (valid values, type and range violations); grids stay at
#: n <= 256, the domain-exponent one at a few thousand nodes at most; a
#: removed key has no valid value
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
    "evolution.dt": ((None, 0.01, 1e-4), (100.0, -0.1, "x")),  # 100 > any h/2
    "evolution.t_final": ((1.0, 5), (0, float("inf"), "x")),
    "evolution.snapshots": ((1, 3), (0, 2.5)),
    "experiments": ((), (["all"], ["geometry", "mourre"])),
    "out": (("runs", "elsewhere"), ("", 3)),
    "seed": ((0, 7), (-1, True)),
    "options.geometry.typo": ((), (1,)),
    "options.evolve.components": (([1, 0, 0, 1], [0, 1, 0, 0]), ([0, 0, 0, 0], [1, 0], "x")),
    **{f"options.{name}.{key}": values
       for name in ("evolve", "scatter", "velocity") for key, values in _PACKET.items()},
    "options.scatter.target_center": _PACKET["center"],
    "options.scatter.target_width": _PACKET["width"],
    "options.scatter.schedule": (([1, 2, 4], [0.5, 1, 2, 3]), ([1], [3, 2, 1], [0, 1, 2], "abc")),
    "options.velocity.times": (([4, 8], [1, 2, 3]), ([40], [2, 1], [-1, 2])),
    "options.velocity.delta": ((), (0.2, 0.7)),
    "options.velocity.eps": ((), (0.2, -0.1)),
    "options.velocity.cone_delta": ((), (0.25, 1.0)),
    "options.mourre.n": ((16, 64), (8, 320.0, "abc")),
    "options.mourre.fine_factor": ((2, 3), (1, 2.0)),
    "options.mourre.interval": (([0.5, 1.5], [-1, 1]), ([1.5, 0.5], [0.5], [0.5, "1.5"])),
    "options.mourre.eps": ((), (0.5, 1.0)),
    "options.mourre.stability": ((), (0.05, -1)),
    "options.spectrum.n": ((16, 64), (8, "x")),
    "options.spectrum.lambdas": (([0.0], [-1, 1]), ([], "x")),
    "options.spectrum.depth": ((5.0, 20), (1, -1)),
    "options.domain-exponent.masses": (([1.0, 0.25], [0]), ([], [-1], "x")),
    "options.domain-exponent.h_min": ((0.05, 0.02), (-1e-3, "x")),
    "options.domain-exponent.ratio": ((1.0, 1.1), (1.5,)),
    "options.domain-exponent.h_max": ((0.2, 0.5), (1e-4,)),
    "options.domain-exponent.x_min": ((-8.0, -24.0), (1.0,)),
}


@st.composite
def _configs(draw):
    """A config of valid values with up to two keys given a violation, and
    whether it has one.

    The physics keys, ``grid.x_min`` and ``grid.n`` are always given; any
    other key only sometimes.  Rules that tie keys together (index rule,
    dt against the spacing) can still reject such a config."""
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
    """Every input the selected experiments build before they compute,
    through the consuming modules' own constructors and checks."""
    opts = cfg.options
    grid = cfg.grid
    check_step(cfg.evolution.dt, grid)
    assert len(cfg.evolution.snapshot_times) == cfg.canonical["evolution"]["snapshots"]
    for name, prefix, components in (
        ("evolve", "", opts["evolve"]["components"]),
        ("scatter", "", (1, 0, 0, 1)),
        ("scatter", "target_", (1, 0, 0, 1)),
        ("velocity", "", (1, 0, 0, 1)),
    ):
        block = opts[name]
        gaussian_packet(
            grid, block[prefix + "center"], block[prefix + "width"], components=components
        )
    _check_schedule(opts["scatter"]["schedule"])
    times = np.asarray(opts["velocity"]["times"])
    assert times.size >= 2 and times[0] > 0 and np.all(np.diff(times) > 0)
    mourre = opts["mourre"]
    make_grid(cfg.grid.x_min, mourre["n"])
    make_grid(cfg.grid.x_min, mourre["fine_factor"] * mourre["n"])
    assert mourre["interval"][0] < mourre["interval"][1]
    spectrum = opts["spectrum"]
    make_grid(cfg.grid.x_min, spectrum["n"])
    assert spectrum["depth"] > 1
    graded = opts["domain-exponent"]
    make_grid(
        graded["x_min"],
        policy=BoundaryGraded(graded["h_min"], graded["ratio"], graded["h_max"]),
    )
    for mass in graded["masses"]:
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
        import adsdirac.harness as hn

        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(hn._RUNNERS, "evolve", boom)
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
        cfg = small_config(
            options={"spectrum": {"n": 64, "lambdas": [0.0], "depth": 5.0}}
        )
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
        import adsdirac.harness as hn

        controls = hn._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS found in this process")

        def probe(cfg):
            counts = [get() for get, _ in hn._openblas_thread_controls()]
            return ExperimentResult("geometry", scalars={"counts": counts})

        monkeypatch.setitem(hn._RUNNERS, "geometry", probe)
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
        run(small_config(), experiments=["geometry", "evolve"], out=str(tmp_path), threads=2)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["peak_rss_mb"] > 10.0
        assert set(doc["experiments"]) == {"geometry", "evolve"}
        for entry in doc["experiments"].values():
            assert entry["status"] == "pass"
            assert entry["wall_clock"] > 0.0 and entry["cpu_s"] > 0.0

    def test_dead_worker_errors_only_its_experiments(self, tmp_path, monkeypatch):
        """``mourre``'s worker exits once ``geometry`` is done; ``spectrum``,
        running on the other worker when the pool breaks, errors too, and
        ``geometry`` keeps its result."""
        import adsdirac.harness as hn

        def die(cfg):
            deadline = time.monotonic() + 30.0
            while not (tmp_path / "geometry.json").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(3)

        monkeypatch.setitem(hn._RUNNERS, "mourre", die)
        monkeypatch.setitem(hn._RUNNERS, "spectrum", lambda cfg: time.sleep(60))
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

    def test_spectrum_records_the_sweep_counters(self, tmp_path):
        cfg = small_config(
            options={"spectrum": {"n": 64, "lambdas": [-1.0, 0.0, 4.0], "depth": 20.0}}
        )
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
        assert all(isinstance(k, int) and k > 0 for k in scalars["steps"])
        # the step shrinks with |λ| past 2
        assert scalars["steps"][0] == scalars["steps"][1] < scalars["steps"][2]

    def test_mourre_records_its_eigensolves(self, tmp_path):
        cfg = small_config(options={"mourre": {"n": 160}})
        manifest = run(cfg, experiments=["mourre"], out=str(tmp_path))
        assert manifest.all_passed
        scalars = json.loads((tmp_path / "mourre.json").read_text())["scalars"]
        solves = scalars["solves"]
        assert sorted(solves) == ["coarse", "fine", "free"]
        assert solves["coarse"]["found"] == scalars["coarse_states"]
        assert solves["fine"]["found"] == scalars["fine_states"]
        coarse = cfg.operator(make_grid(cfg.grid.x_min, 160))
        assert solves["coarse"]["asymmetry"] == coarse.hermiticity_defect()
        for solve in solves.values():
            assert 0.0 <= solve["asymmetry"] <= 1e-12
            assert solve["found"] <= solve["requested"] < 4 * 320
            assert solve["max_residual"] <= 1e-10 * 1.5
            assert solve["orthonormality_defect"] <= 1e-10

    def test_thin_mourre_window_fails_with_its_level_count(self, tmp_path):
        cfg = small_config(options={"mourre": {"n": 64, "interval": [100, 101]}})
        manifest = run(cfg, experiments=["mourre"], out=str(tmp_path))
        (result,) = manifest.results
        assert result.error is None and result.status == "fail"
        checks = {c.name: c for c in result.checks}
        assert sorted(checks) == ["free_quotient", "refinement", "window"]
        for name in ("window", "refinement"):
            assert not checks[name].passed
            assert "holds only 0 levels" in checks[name].detail
        assert result.files == ["mourre.json"]
        scalars = json.loads((tmp_path / "mourre.json").read_text())["scalars"]
        assert scalars["interval"] == [100, 101]

    def test_mourre_window_centred_on_a_level_fails_its_checks(self, tmp_path):
        # the free operator has levels at 0, the centre of [-0.5, 0.5]
        cfg = small_config(options={"mourre": {"n": 64, "interval": [-0.5, 0.5]}})
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
            assert not check.passed
            assert check.detail == "velocity traces to t = 20 need x_min <= -26"
        assert sorted(result.files) == ["velocity.json", "velocity_traces.csv"]
        rows = (tmp_path / "velocity_traces.csv").read_text().splitlines()
        assert rows[-1] == "t,minimal,maximal,unit,cone,v"
        doc = json.loads((tmp_path / "velocity.json").read_text())
        assert doc["scalars"] == {"bc": "natural"}

    def test_free_mourre_window_on_the_configured_domain(self, tmp_path):
        # on x_min = -32 the free window [0.5, 0.9] holds as many levels as
        # the interacting one; on a fixed (-16, 0) it held half, too few
        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": -32, "n": 256},
            "options": {"mourre": {"n": 320, "interval": [0.5, 0.9]}},
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

    def test_scatter_and_velocity_record_propagator_counters(self, tmp_path):
        cfg = parse_config_dict({
            **MINIMAL, "grid": {"x_min": -16, "n": 128},
            "options": {"scatter": {"schedule": [1, 2, 3]},
                        "velocity": {"times": [1, 2, 4]}},
        })
        manifest = run(cfg, experiments=["scatter", "velocity"], out=str(tmp_path))
        assert all(r.error is None for r in manifest.results)
        # R is the largest Gershgorin bound of the two sector blocks
        blocks = dense_sector_blocks(dense_symmetric(cfg.operator())[0])[:2]
        gershgorin = max(float(np.abs(b).sum(axis=1).max()) for b in blocks)
        # W's increments span t_3 − t_1 = 2, and its last increment run goes
        # on from Δ_2 = 1 to the limit at t_3 = 3, 2 more; Ω runs Cayley
        for name, least_time in (("scatter", 2 + 2), ("velocity", 4)):
            scalars = json.loads((tmp_path / f"{name}.json").read_text())["scalars"]
            assert scalars["bound"] == pytest.approx(gershgorin, rel=1e-15)
            # at least t·R terms over every interacting run
            assert scalars["matvecs"] >= least_time * scalars["bound"]
            assert 0.0 <= scalars["norm_drift"] <= 1e-12
            assert scalars["asymmetry"] == cfg.operator().hermiticity_defect() <= 1e-12
        # the velocity run's largest mass next to x_min, as its report reads it
        velocity = json.loads((tmp_path / "velocity.json").read_text())["scalars"]
        phi = _packet(cfg.options["velocity"], cfg.grid)
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
            sym = dense_symmetric(free_operator(make_grid(-8.0, n)))[0]
            assert bound == float(np.max(np.abs(sym).sum(axis=1)))
            # at least t·R terms for the run to t = 5
            assert isinstance(matvecs, int) and matvecs >= 5 * bound
            assert 0.0 <= drift <= 1e-12

    def test_open_right_wall_fails_the_free_oracle(self, tmp_path, monkeypatch):
        """Negative control for criterion 4: the free operator without its
        right-wall closure block (a zero ghost at x = 0) reflects the packet
        into the wrong components, and both oracle lines must FAIL."""
        import adsdirac.harness as hn

        def open_wall(grid):
            op = free_operator(grid)
            matrix = op.matrix.tolil()
            assert matrix[-4:, -4:].count_nonzero() > 0  # the free closure
            matrix[-4:, -4:] = 0.0
            return dataclasses.replace(op, matrix=matrix.tocsc())

        monkeypatch.setattr(hn, "free_operator", open_wall)
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
        cfg = small_config(
            options={"spectrum": {"n": 64, "lambdas": [0.0], "depth": 5.0}}
        )
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
        cfg = small_config(
            options={"spectrum": {"n": 64, "lambdas": [0.0], "depth": 5.0}}
        )
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
        import adsdirac.harness as hn

        def stub(name):
            if name == "evolve":
                raise RuntimeError("synthetic failure")
            checks = [CheckLine("a", True, "one"), CheckLine("b", name != "mourre", "two")]
            return ExperimentResult(name, checks=checks)

        for name in EXPERIMENTS:
            monkeypatch.setitem(hn._RUNNERS, name, lambda cfg, name=name: stub(name))
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
        assert "[pass] geometry.a: one" in lines and "[FAIL] mourre.b: two" in lines
        assert re.fullmatch(r"FAILURES present \(7 experiment\(s\), \d+\.\d s\)", lines[-1])

    def test_tables_are_written_before_the_json(self, tmp_path, monkeypatch):
        """A runner only returns its tables; one writer stamps each as CSV,
        then writes ``<name>.json`` (dashes as underscores), and the
        manifest lists the files in that order."""
        import adsdirac.harness as hn

        written = []
        for writer in ("write_csv", "write_json"):
            real = getattr(hn, writer)
            monkeypatch.setattr(
                hn, writer, lambda path, *rest, real=real: written.append(path.name) or real(path, *rest)
            )

        def stub(cfg):
            res = ExperimentResult(
                "domain-exponent", checks=[CheckLine("a", True, "x")], scalars={"k": 1.5}
            )
            res.tables["second.csv"] = (("t", "v"), [(1.0, 0.25), (2.0, 0.5)])
            res.tables["first.csv"] = (("k",), [])
            return res

        monkeypatch.setitem(hn._RUNNERS, "domain-exponent", stub)
        cfg = small_config()
        manifest = run(cfg, experiments=["domain-exponent"], out=str(tmp_path))
        order = ["second.csv", "first.csv", "domain_exponent.json"]
        assert written == order
        assert manifest.results[0].files == order
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["experiments"]["domain-exponent"]["files"] == order
        stamp = [f"# config {cfg.digest}", f"# artifact {VERSION}"]
        assert (tmp_path / "second.csv").read_text().splitlines() == [
            *stamp, "t,v", "1,0.25", "2,0.5",
        ]
        assert (tmp_path / "first.csv").read_text().splitlines() == [*stamp, "k"]
        report = json.loads((tmp_path / "domain_exponent.json").read_text())
        assert report["config"] == cfg.digest and report["scalars"] == {"k": 1.5}
        assert report["checks"] == {"a": {"passed": True, "detail": "x"}}


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

    def test_failing_check_exit_one(self, tmp_path, capsys):
        # sub-cell grading cannot see the wall exponent; the fit misses
        # its target and the exit code must say so
        path = self.write(
            tmp_path,
            {**MINIMAL, "options": {"domain-exponent": {"h_min": 0.02}}},
        )
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
        r = ExperimentResult("x")
        assert r.status == "pass"
        r.error = "boom"
        assert r.status == "error"
