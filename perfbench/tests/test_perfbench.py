"""Tests of the benchmark's own code: metric names, probe scaling, span
arithmetic, from-import coverage of the tracer, and correctness gates that
can fail."""

import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from adsdirac import channel, dynamics, geometry, grids, harness, scattering  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert end_to_end == [n for n, _ in run.END_TO_END]
    assert per_layer == [n for n, _ in tracing.LAYER_METRICS]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == dict(run.END_TO_END + tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_probe_scales_a_pass_by_the_median_run():
    ref = probe.REFERENCE_S
    # 13 s while the probe ran 1.3 times slower than its reference count 10 s;
    # one stray run does not move the median
    assert probe.scaled(13.0, [1.3 * ref, 1.3 * ref, 0.5 * ref]) == pytest.approx(10.0)
    assert probe.scaled(4.0, [ref]) == pytest.approx(4.0)
    # one leg gets its runs from two gaps; many legs get three in each gap
    assert probe.runs_per_gap(1) * 2 >= probe.PASS_RUNS
    assert probe.runs_per_gap(40) == 3
    assert all(t > 0.0 for t in probe.Probe().runs(2))


def test_self_time_subtracts_nested_children_on_each_thread():
    tr = tracing.Tracer()
    inner = tr.wrap(lambda d: time.sleep(d), "inner")
    outer = tr.wrap(lambda d: (time.sleep(d), inner(2 * d), inner(d)), "outer")
    threads = [threading.Thread(target=outer, args=(d,)) for d in (0.02, 0.03)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    assert len(tr.spans) == 6
    by_id = {s.sid: s for s in tr.spans}
    self_s = tr.self_times()
    for span in tr.spans:
        if span.name == "inner":
            parent = by_id[span.parent]
            assert parent.name == "outer" and parent.thread == span.thread
            assert self_s[span.sid] == pytest.approx(span.duration, abs=1e-12)
    for span in (s for s in tr.spans if s.name == "outer"):
        assert span.parent is None
        kids = [s for s in tr.spans if s.parent == span.sid]
        assert len(kids) == 2
        expected = span.duration - sum(k.duration for k in kids)
        assert self_s[span.sid] == pytest.approx(expected, abs=1e-12)
        assert self_s[span.sid] >= 0.0
    assert tr.root_time(threads[0].ident) == pytest.approx(
        next(s.duration for s in tr.spans if s.name == "outer" and s.thread == threads[0].ident)
    )


def test_from_imported_evolve_is_counted_and_uninstall_restores():
    originals = (dynamics.evolve, scattering.evolve, harness.evolve,
                 geometry.CoordinateMap.__dict__["sqrtF_of_x"])
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        assert scattering.evolve is dynamics.evolve is harness.evolve
        grid = grids.make_grid(-8.0, 64)
        phi = grids.gaussian_packet(grid, -3.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
        op = channel.assemble_hamiltonian(
            workloads.HALF, geometry.make_params(1.0, 1.0, 1.0), grid
        )
        scattering.wave_operator_forward(phi, op, (0.5, 1.0, 1.5))
    finally:
        tr.uninstall()
    assert (dynamics.evolve, scattering.evolve, harness.evolve,
            geometry.CoordinateMap.__dict__["sqrtF_of_x"]) == originals

    names = [s.name for s in tr.spans]
    assert names.count("scattering.wave") == 1
    assert names.count("dynamics.evolve") == 1
    assert names.count("dynamics.free") == 3
    by_id = {s.sid: s for s in tr.spans}
    evolve_span = next(s for s in tr.spans if s.name == "dynamics.evolve")
    assert by_id[evolve_span.parent].name == "scattering.wave"
    m = tracing.layer_metrics(tr)
    assert m["dynamics.step.calls"] == 24  # t = 1.5 at dt = h/2 = 1/16
    assert m["geometry.vector.calls"] == 2 and m["geometry.vector.nodes"] == 128
    assert m["channel.assemble.calls"] == 1


def test_short_wave_operator_schedule_fails_the_gate():
    """Negative control: a schedule too short to converge must FAIL."""
    grid = grids.make_grid(-32.0, 512)
    phi = grids.gaussian_packet(grid, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0))
    psi = grids.gaussian_packet(grid, -2.5, 0.4, components=(1.0, 0.0, 0.0, 1.0))
    f_grid = grids.make_grid(-16.0, 64)
    trivial = (f_grid, grids.gaussian_packet(f_grid, -4.0, 0.5, components=(1.0, 0.0, 0.0, 1.0)))
    res = workloads.Outcome()
    workloads.completeness_leg(res, 1.0, grid, phi, psi, (1.0, 2.0, 3.0), trivial)
    attempted, failed = workloads.tally(res.checks)
    assert attempted == 5 and failed > 0
    failed_names = {c.name.split(".")[-1] for c in res.checks if not c.passed}
    assert {"forward", "backward"} <= failed_names


def _fake_desk_outputs(out: Path, digest: str) -> None:
    out.mkdir()
    for name in workloads.DESK_FILES:
        if name.endswith(".csv"):
            (out / name).write_text(f"# config {digest}\nx\n1\n")
        elif name != "manifest.json":
            (out / name).write_text(json.dumps({"config": digest}))
    (out / "evolve.json").write_text(json.dumps(
        {"config": digest, "scalars": {"free_errors": [1e-3, 5e-4, 1.5e-4]}}
    ))
    experiments = {e: {"status": "pass", "checks": {"a": True}} for e in harness.EXPERIMENTS}
    (out / "manifest.json").write_text(json.dumps({"config": digest, "experiments": experiments}))


def test_desk_verifier_counts_failed_flags_and_missing_files(tmp_path):
    out = tmp_path / "out"
    _fake_desk_outputs(out, "abc")
    ok = workloads.verify_desk_outputs(out, "abc", 0)
    assert workloads.tally(ok.checks)[1] == 0 and ok.oracle_err == 1.5e-4

    manifest = json.loads((out / "manifest.json").read_text())
    manifest["experiments"]["mourre"]["checks"]["a"] = False
    manifest["experiments"]["spectrum"] = {"status": "error", "error": "boom", "checks": {}}
    (out / "manifest.json").write_text(json.dumps(manifest))
    (out / "velocity_traces.csv").unlink()
    (out / "geometry_map.csv").write_text("# config other\n")
    bad = workloads.verify_desk_outputs(out, "abc", 1)
    failed = {c.name for c in bad.checks if not c.passed}
    assert failed == {
        "cli.exit_code", "mourre.a", "spectrum.run",
        "file.velocity_traces.csv", "file.geometry_map.csv",
    }


def test_desk_config_is_accepted_by_the_parser():
    cfg = harness.parse_config_dict(run.desk_config(7))
    assert cfg.seed == 7 and cfg.grid.n == 2048
    assert cfg.option("mourre", "n", None) == 320 and cfg.option("spectrum", "n", None) == 320


def test_seed_fixes_the_channel_scan_order(tmp_path):
    def order(seed):
        return [leg.__defaults__ for leg in workloads.scan_setup(seed, tmp_path)]

    assert order(3) == order(3)
    assert order(3) != order(4)
    assert len(order(3)) == 4 * 3 + 2 * 5 + 2


def test_runner_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "scatter", "--seed", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / ".perfbench").exists()
