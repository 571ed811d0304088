"""Outside-in tracing of adsdirac's public calls.

The tracer wraps public functions and methods from outside the package and
records one span per call: name, start, end, parent span and thread.  Spans
stay in memory until the run ends.  A layer's self time is its busy time
minus the time its child spans cover; each thread keeps its own span stack,
so calls made on pool threads nest correctly.

Two rules make the wrappers see every call:

* methods are replaced once, on the class, so instances built later (and
  the bound methods ``potentials_sads`` captures when it builds a pair)
  go through the wrapper;
* a module-level function is replaced in every loaded module that holds
  it, because ``from .dynamics import evolve`` gives ``scattering`` and
  ``harness`` their own names for ``evolve``.

Install the tracer before any operator is built.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: hook(args, kwargs, result) -> attributes recorded on the span
Hook = Callable[[tuple, dict, object], Dict]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, hook: Optional[Hook] = None) -> Callable:
        """``fn`` wrapped in a span.  ``name`` is a string or a function of
        the call's arguments (geometry spans split vector from scalar calls)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                sid=next(tracer._ids),
                parent=stack[-1].sid if stack else None,
                name=name if isinstance(name, str) else name(args, kwargs),
                thread=threading.get_ident(),
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

        return traced

    # -- installation -----------------------------------------------------

    def patch_method(self, cls, attr: str, name, hook: Optional[Hook] = None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, hook))

    def patch_function(self, module, attr: str, name, hook: Optional[Hook] = None) -> None:
        """Replace ``module.attr`` in every loaded adsdirac module that holds
        the same object."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "adsdirac" or mod_name.startswith("adsdirac.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children.

        Children run on their parent's thread and inside its interval, so
        their summed durations are the time they cover."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        return {s.sid: s.duration - covered.get(s.sid, 0.0) for s in self.spans}

    def root_time(self, thread: int, since: float = float("-inf")) -> float:
        """Summed duration of the spans with no parent that ran on ``thread``
        and started at or after ``since``."""
        return sum(
            s.duration for s in self.spans
            if s.parent is None and s.thread == thread and s.start >= since
        )

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines, ordered by start time."""
        with gzip.open(path, "wt") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "thread": s.thread,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }, default=float) + "\n")


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds to a plain call, measured on a no-op
    (best of three loops of ``calls`` calls each)."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    plain = min(loop(noop) for _ in range(3))
    traced = min(loop(wrapped) for _ in range(3))
    return max(0.0, (traced - plain) / calls)


# ------------------------------------------------ the adsdirac instrumentation


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _geometry_name(args, kwargs) -> str:
    scalar = np.ndim(_arg(args, kwargs, 1, "x")) == 0
    return "geometry.scalar" if scalar else "geometry.vector"


def _geometry_hook(args, kwargs, result) -> Dict:
    return {"nodes": int(np.size(_arg(args, kwargs, 1, "x")))}


def install(tracer: Tracer) -> None:
    """Wrap every public call the benchmark attributes to a layer."""
    import adsdirac.cli  # noqa: F401  (its from-imports of harness are rebound too)
    from adsdirac import channel, dynamics, geometry, harness, scattering, spectral

    for attr in ("sqrtF_of_x", "angular_factor_of_x", "delta_of_x", "r_of_x"):
        tracer.patch_method(geometry.CoordinateMap, attr, _geometry_name, _geometry_hook)

    tracer.patch_function(
        channel, "assemble_hamiltonian", "channel.assemble",
        lambda a, k, r: {"nnz": int(r.matrix.nnz)},
    )
    tracer.patch_method(channel.ChannelOperator, "hermiticity_defect", "channel.verify")
    tracer.patch_function(channel, "commutator_closed_form", "channel.verify")

    tracer.patch_method(dynamics.CayleyStepper, "__init__", "dynamics.factor")
    tracer.patch_method(dynamics.CayleyStepper, "step", "dynamics.step")
    tracer.patch_function(
        dynamics, "evolve", "dynamics.evolve",
        lambda a, k, r: {"sim_time": float(_arg(a, k, 2, "cfg").t_final),
                         "norm_drift": float(r.norm_drift)},
    )
    tracer.patch_function(dynamics, "free_propagate", "dynamics.free")

    tracer.patch_function(scattering, "wave_operator_forward", "scattering.wave")
    tracer.patch_function(scattering, "wave_operator_backward", "scattering.wave")
    tracer.patch_function(scattering, "velocity_report", "scattering.velocity")

    tracer.patch_function(
        spectral, "eigendecompose", "spectral.eigen",
        lambda a, k, r: {"pairs": int(r.eigenvalues.size)},
    )
    tracer.patch_function(
        spectral, "mourre_check", "spectral.mourre",
        lambda a, k, r: {"states": int(r.n_states)},
    )
    tracer.patch_function(spectral, "no_eigenvalue_test", "spectral.ode")
    tracer.patch_function(spectral, "boundary_exponent_fit", "spectral.resolvent")

    tracer.patch_function(harness, "parse_config", "harness.parse")

    def written(args, kwargs, result) -> Dict:
        return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}

    tracer.patch_function(harness, "write_csv", "harness.write", written)
    tracer.patch_function(harness, "write_json", "harness.write", written)
    tracer.patch_function(harness, "run", "harness.run")


#: per-layer metric names in the order they are reported, with their units
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("geometry.vector.calls", "count"),
    ("geometry.vector.nodes", "count"),
    ("geometry.vector.busy_s", "s"),
    ("geometry.scalar.calls", "count"),
    ("geometry.scalar.busy_s", "s"),
    ("channel.assemble.calls", "count"),
    ("channel.assemble.nnz", "count"),
    ("channel.assemble.self_s", "s"),
    ("channel.verify.busy_s", "s"),
    ("dynamics.factor.calls", "count"),
    ("dynamics.factor.busy_s", "s"),
    ("dynamics.step.calls", "count"),
    ("dynamics.step.busy_s", "s"),
    ("dynamics.step.us_per_step", "us"),
    ("dynamics.evolve.calls", "count"),
    ("dynamics.evolve.sim_time", "t"),
    ("dynamics.evolve.self_s", "s"),
    ("dynamics.free.calls", "count"),
    ("dynamics.free.busy_s", "s"),
    ("dynamics.norm_drift_max", "1"),
    ("scattering.wave.calls", "count"),
    ("scattering.wave.self_s", "s"),
    ("scattering.velocity.self_s", "s"),
    ("spectral.eigen.calls", "count"),
    ("spectral.eigen.dim_max", "count"),
    ("spectral.eigen.busy_s", "s"),
    ("spectral.eigen.pairs_computed", "count"),
    ("spectral.mourre.states_used", "count"),
    ("spectral.eigen.useful_ratio", "1"),
    ("spectral.mourre.self_s", "s"),
    ("spectral.ode.calls", "count"),
    ("spectral.ode.self_s", "s"),
    ("spectral.resolvent.calls", "count"),
    ("spectral.resolvent.busy_s", "s"),
    ("harness.parse.busy_s", "s"),
    ("harness.write.calls", "count"),
    ("harness.write.bytes", "B"),
    ("harness.write.busy_s", "s"),
    ("harness.exp.geometry.wall_s", "s"),
    ("harness.exp.evolve.wall_s", "s"),
    ("harness.exp.scatter.wall_s", "s"),
    ("harness.exp.velocity.wall_s", "s"),
    ("harness.exp.mourre.wall_s", "s"),
    ("harness.exp.spectrum.wall_s", "s"),
    ("harness.exp.domain-exponent.wall_s", "s"),
    ("harness.pool.cpu_util", "1"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "1"),
)


def layer_metrics(tracer: Tracer, passes: int = 1) -> Dict[str, float]:
    """Per-layer figures for one pass of a workload (totals over ``passes``
    divided by ``passes``; maxima and ratios are taken over all passes)."""
    self_s = tracer.self_times()
    by_id = {s.sid: s for s in tracer.spans}
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0.0) + self_s[s.sid]
        # busy time counts a span only when no ancestor has the same name
        outer, p = True, s.parent
        while p is not None:
            if by_id[p].name == s.name:
                outer = False
                break
            p = by_id[p].parent
        if outer:
            busy[s.name] = busy.get(s.name, 0.0) + s.duration

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in tracer.spans if s.name == name)

    def attr_max(name: str, key: str) -> float:
        return max((s.attrs.get(key, 0) for s in tracer.spans if s.name == name), default=0)

    mourre_ids = {s.sid for s in tracer.spans if s.name == "spectral.mourre"}
    mourre_pairs = sum(
        s.attrs.get("pairs", 0) for s in tracer.spans
        if s.name == "spectral.eigen" and s.parent in mourre_ids
    )
    states = attr_sum("spectral.mourre", "states")
    steps = calls.get("dynamics.step", 0)
    dims = [s.attrs.get("pairs", 0) for s in tracer.spans if s.name == "spectral.eigen"]

    per_pass = {
        "geometry.vector.calls": calls.get("geometry.vector", 0),
        "geometry.vector.nodes": attr_sum("geometry.vector", "nodes"),
        "geometry.vector.busy_s": busy.get("geometry.vector", 0.0),
        "geometry.scalar.calls": calls.get("geometry.scalar", 0),
        "geometry.scalar.busy_s": busy.get("geometry.scalar", 0.0),
        "channel.assemble.calls": calls.get("channel.assemble", 0),
        "channel.assemble.nnz": attr_sum("channel.assemble", "nnz"),
        "channel.assemble.self_s": own.get("channel.assemble", 0.0),
        "channel.verify.busy_s": busy.get("channel.verify", 0.0),
        "dynamics.factor.calls": calls.get("dynamics.factor", 0),
        "dynamics.factor.busy_s": busy.get("dynamics.factor", 0.0),
        "dynamics.step.calls": steps,
        "dynamics.step.busy_s": busy.get("dynamics.step", 0.0),
        "dynamics.evolve.calls": calls.get("dynamics.evolve", 0),
        "dynamics.evolve.sim_time": attr_sum("dynamics.evolve", "sim_time"),
        "dynamics.evolve.self_s": own.get("dynamics.evolve", 0.0),
        "dynamics.free.calls": calls.get("dynamics.free", 0),
        "dynamics.free.busy_s": busy.get("dynamics.free", 0.0),
        "scattering.wave.calls": calls.get("scattering.wave", 0),
        "scattering.wave.self_s": own.get("scattering.wave", 0.0),
        "scattering.velocity.self_s": own.get("scattering.velocity", 0.0),
        "spectral.eigen.calls": calls.get("spectral.eigen", 0),
        "spectral.eigen.busy_s": busy.get("spectral.eigen", 0.0),
        "spectral.eigen.pairs_computed": sum(dims),
        "spectral.mourre.states_used": states,
        "spectral.mourre.self_s": own.get("spectral.mourre", 0.0),
        "spectral.ode.calls": calls.get("spectral.ode", 0),
        "spectral.ode.self_s": own.get("spectral.ode", 0.0),
        "spectral.resolvent.calls": calls.get("spectral.resolvent", 0),
        "spectral.resolvent.busy_s": busy.get("spectral.resolvent", 0.0),
        "harness.parse.busy_s": busy.get("harness.parse", 0.0),
        "harness.write.calls": calls.get("harness.write", 0),
        "harness.write.bytes": attr_sum("harness.write", "bytes"),
        "harness.write.busy_s": busy.get("harness.write", 0.0),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out["dynamics.step.us_per_step"] = (
        1e6 * busy.get("dynamics.step", 0.0) / steps if steps else 0.0
    )
    out["dynamics.norm_drift_max"] = attr_max("dynamics.evolve", "norm_drift")
    out["spectral.eigen.dim_max"] = max(dims, default=0)
    out["spectral.eigen.useful_ratio"] = states / mourre_pairs if mourre_pairs else 0.0
    return out
