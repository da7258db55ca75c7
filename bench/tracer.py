"""Span tracer that wraps uldplab's layer-boundary functions from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each function in ``TARGETS`` with a wrapper that records a span, in the
defining module and in every ``uldplab`` module that imported it by
name, and ``Tracer.uninstall`` puts the originals back.  Spans stay in
memory until ``layer_metrics`` turns them into per-layer numbers at the
end of a pass.

Each thread keeps its own span stack, so nesting inside one thread is
exact.  A span opened on a worker thread with an empty stack takes as
parent the innermost span open on the thread that installed the tracer
(the caller waiting on the pool).  A span's self time is its duration
minus the union of its children's intervals, which stays nonnegative
when children from two worker threads overlap.

A target that a later refactor renames or removes is listed in
``Tracer.absent``; the metrics derived from it are left out of the
result and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

from uldplab.scenarios import SCENARIO_NAMES

MODEL_FAMILIES = ("translated_bm", "perturbed_bm", "swapped_bm", "finite_sde", "galerkin_spde")
MARGIN_KINDS = ("ball", "union_of_balls", "distance_at_least")
ESTIMATORS = ("mc_probability", "is_probability", "laplace_functional")


def _arg(fn: Callable, name: str) -> Callable:
    """Getter for one named parameter of ``fn`` from a call's (args, kwargs)."""
    pos = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs[name]


def _noise_attrs(fn):
    grid, channels, seed, block, size = (
        _arg(fn, p) for p in ("grid", "channels", "master_seed", "block", "size")
    )

    def attrs(args, kwargs):
        g = grid(args, kwargs)
        key = (g.horizon, g.steps, channels(args, kwargs), seed(args, kwargs),
               block(args, kwargs), size(args, kwargs))
        return {"key": key, "sample_steps": key[1] * key[2] * key[5]}

    return attrs


def _step_attrs(fn):
    model, increments = _arg(fn, "model"), _arg(fn, "increments")

    def attrs(args, kwargs):
        inc = increments(args, kwargs)
        return {
            "family": model(args, kwargs).name.replace("-", "_"),
            "path_steps": inc.shape[0] * inc.shape[1],
        }

    return attrs


def _margin_attrs(fn):
    values = _arg(fn, "values")
    return lambda args, kwargs: {"paths": values(args, kwargs).shape[0]}


def _threads_attrs(fn):
    threads = _arg(fn, "threads")

    def attrs(args, kwargs):
        try:
            return {"threads": threads(args, kwargs)}
        except (IndexError, KeyError):  # left at its default
            return {"threads": inspect.signature(fn).parameters["threads"].default}

    return attrs


def _name_attrs(fn):
    name = _arg(fn, "name")
    return lambda args, kwargs: {"scenario": name(args, kwargs)}


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, defining module, attribute path."""

    span: str
    module: str
    attr: str
    attrs: Callable | None = None  # fn -> (args, kwargs) -> dict, built once per install
    cpu: bool = False  # also record process CPU time over the span


# Every wrap target, one row each.  Spans sit at the calls one module
# makes into the next: estimators -> models for noise and stepping,
# estimators/uldp -> pathspace for event margins, uldp -> rates for the
# rate side, scenarios/cli -> uldp for the checkers.
TARGETS = (
    Target("models.noise", "uldplab.models", "_noise_block", _noise_attrs),
    Target("models.step", "uldplab.models", "simulate_batch", _step_attrs),
    Target("rates.skeleton", "uldplab.models", "skeleton"),
    Target("pathspace.margins.ball", "uldplab.pathspace", "Ball.margins", _margin_attrs),
    Target("pathspace.margins.union_of_balls", "uldplab.pathspace", "UnionOfBalls.margins", _margin_attrs),
    Target("pathspace.margins.distance_at_least", "uldplab.pathspace", "DistanceAtLeast.margins", _margin_attrs),
    Target("estimators.mc_probability", "uldplab.estimators", "mc_probability"),
    Target("estimators.is_probability", "uldplab.estimators", "is_probability"),
    Target("estimators.laplace_functional", "uldplab.estimators", "laplace_functional"),
    Target("rates.sample_level_set", "uldplab.rates", "sample_level_set"),
    Target("rates.inf_h_plus_I", "uldplab.rates", "inf_h_plus_I"),
    Target("uldp.rate_search", "uldplab.uldp", "event_rate_bound"),
    Target("uldp.tilt_search", "uldplab.uldp", "_auto_constant_tilt"),
    Target("uldp.check", "uldplab.uldp", "fwuldp_gaps"),
    Target("uldp.check", "uldplab.uldp", "dzuldp_gaps"),
    Target("uldp.check", "uldplab.uldp", "ulp_gap"),
    Target("uldp.check", "uldplab.uldp", "eulp_gap"),
    Target("uldp.check", "uldplab.uldp", "luldp_gaps"),
    Target("uldp.assemble", "uldplab.uldp", "_assemble"),
    Target("convergence.control_conv", "uldplab.convergence", "control_conv", _threads_attrs, cpu=True),
    Target("scenarios.run", "uldplab.scenarios", "run", _name_attrs),
    Target("scenarios.serialize", "uldplab.scenarios", "ScenarioResult.save_json"),
    Target("cli.check", "uldplab.cli", "_cmd_check"),
)


class Span:
    __slots__ = ("name", "parent", "attrs", "start", "end", "cpu_start", "cpu_end")

    def __init__(self, name: str, parent: "Span | None", attrs: dict | None):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.cpu_start = self.cpu_end = 0.0

    def to_json(self, index: dict) -> dict:
        return {
            "name": self.name,
            "parent": index.get(id(self.parent)),
            "start_ns": self.start,
            "end_ns": self.end,
            "attrs": {k: (list(v) if isinstance(v, tuple) else v) for k, v in (self.attrs or {}).items()},
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        attrs_of = target.attrs(fn) if target.attrs else None
        name, cpu = target.span, target.cpu
        main_stack = self._main_stack
        finished = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = Span(name, parent, attrs_of(args, kwargs) if attrs_of else None)
            stack.append(span)
            if cpu:
                span.cpu_start = time.process_time()
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                if cpu:
                    span.cpu_end = time.process_time()
                stack.pop()
                finished.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == "uldplab" or n.startswith("uldplab.")]
        for target in TARGETS:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                traced = self._wrap(target, original)
            except (ImportError, AttributeError, ValueError):  # renamed or removed
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            if path:  # a method: patch the class
                self._patch(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Finished spans since the last call; the tracer keeps no reference."""
        spans, self.spans[:] = list(self.spans), []
        return spans


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """id(span) -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): (s.end - s.start) - _union_ns(children.get(id(s), [])) for s in spans}


def _absent_spans(absent: list[str]) -> set[str]:
    """Span names all of whose targets are absent."""
    missing = set(absent)
    return {
        t.span for t in TARGETS
        if all(f"{u.module}.{u.attr}" in missing for u in TARGETS if u.span == t.span)
    }


def layer_metrics(spans: list[Span], absent: list[str]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    A layer with no calls on this workload reports zero for its ratios.
    Metrics of targets listed in ``absent`` are left out.
    """
    own = self_times_ns(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(group):
        return sum(own[id(s)] for s in group) / 1e9

    def per(ns_total, count):
        return ns_total / count if count else 0.0

    out: dict[str, float] = {}

    noise = by_name.get("models.noise", [])
    keys = {s.attrs["key"] for s in noise}
    sample_steps = sum(s.attrs["sample_steps"] for s in noise)
    out["models.noise.calls"] = len(noise)
    out["models.noise.distinct_keys"] = len(keys)
    # draws whose (grid, channels, seed, block, size) key was already drawn
    # in this pass: noise generated again rather than reused
    out["models.noise.reuse_frac"] = 1.0 - len(keys) / len(noise) if noise else 0.0
    out["models.noise.self_s"] = self_s(noise)
    out["models.noise.sample_steps"] = sample_steps
    out["models.noise.ns_per_sample_step"] = per(self_s(noise) * 1e9, sample_steps)
    out["models.noise.mb_computed"] = sample_steps * 8 / 1e6

    steps = by_name.get("models.step", [])
    for fam in MODEL_FAMILIES:
        group = [s for s in steps if s.attrs["family"] == fam]
        out[f"models.step.{fam}.calls"] = len(group)
        out[f"models.step.{fam}.self_s"] = self_s(group)
        out[f"models.step.{fam}.ns_per_path_step"] = per(
            self_s(group) * 1e9, sum(s.attrs["path_steps"] for s in group)
        )

    for kind in MARGIN_KINDS:
        group = by_name.get(f"pathspace.margins.{kind}", [])
        out[f"pathspace.margins.{kind}.calls"] = len(group)
        out[f"pathspace.margins.{kind}.self_s"] = self_s(group)
        out[f"pathspace.margins.{kind}.ns_per_path"] = per(
            self_s(group) * 1e9, sum(s.attrs["paths"] for s in group)
        )

    for name in [f"estimators.{e}" for e in ESTIMATORS] + [
        "rates.sample_level_set", "rates.inf_h_plus_I",
        "uldp.rate_search", "uldp.tilt_search", "uldp.check", "convergence.control_conv",
    ]:
        group = by_name.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.self_s"] = self_s(group)
    out["rates.skeleton.calls"] = len(by_name.get("rates.skeleton", []))
    out["uldp.assemble.self_s"] = self_s(by_name.get("uldp.assemble", []))

    # busy time is process CPU time over the call, idle waits on the GIL excluded
    conv = by_name.get("convergence.control_conv", [])
    capacity = sum((s.end - s.start) / 1e9 * s.attrs["threads"] for s in conv)
    out["convergence.parallel_util"] = (
        sum(s.cpu_end - s.cpu_start for s in conv) / capacity if capacity else 0.0
    )

    runs = by_name.get("scenarios.run", [])
    for scen in SCENARIO_NAMES:
        out[f"scenarios.run.{scen}.total_s"] = sum(
            (s.end - s.start) / 1e9 for s in runs if s.attrs["scenario"] == scen
        )
    out["scenarios.serialize_s"] = sum((s.end - s.start) / 1e9 for s in by_name.get("scenarios.serialize", []))

    checks = by_name.get("cli.check", [])
    out["cli.check.total_s"] = sum((s.end - s.start) / 1e9 for s in checks)
    out["cli.check.self_s"] = self_s(checks)

    gone = _absent_spans(absent)
    return {k: v for k, v in out.items() if not any(k.startswith((p + ".", p + "_")) for p in gone)}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        ("_s", "s"),
        ("ns_per_sample_step", "ns/sample-step"),
        ("ns_per_path_step", "ns/path-step"),
        ("ns_per_path", "ns/path"),
        ("_frac", "ratio"),
        ("parallel_util", "ratio"),
        ("mb_computed", "MB"),
        ("sample_steps", "sample-steps"),
        ("path_steps", "path-steps"),
        ("min_ess", "samples"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over passes (counts repeat exactly, times do not)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
