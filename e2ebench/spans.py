"""Span recorder and trace summarizer for the end-to-end benchmark.

The recorder times calls into each pipeline layer's public functions
from outside the package: :meth:`SpanRecorder.install` replaces those
functions (wherever a ``repro`` module bound them by name) with thin
wrappers that keep one span per call in memory, and hooks
``gc.callbacks`` so collector pauses become spans of their own. Nothing
in ``src/`` changes, and an untraced run installs nothing.

:meth:`SpanRecorder.write` emits the spans as ``repro-trace-1`` JSONL
(the schema :func:`repro.obs.trace.validate_trace` checks), and
:func:`summarize` turns such a file back into per-layer metrics: self
time per layer (a span's duration minus its direct children's), call
and work counts from span attributes, and the untraced remainder (the
self time of the benchmark's own root spans, which no layer covers).

Summarize a trace written by a ``--trace 1`` run::

    python3 e2ebench/spans.py summarize .e2ebench/traces/<file>.jsonl
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Root span name: the benchmark's own unit of measured work. Its self
#: time is the part of the run no layer span accounts for.
ROOT = "bench.root"

#: Engine strategy labels reported as ``machines.strategy.<label>``.
STRATEGIES = (
    "uniform-table", "stateless-table", "speculative", "chunked",
    "events-table", "events-chunked", "probing", "objects", "batch",
    "serial",
)

#: Per-layer metric names and units, in report order (the service
#: metrics come from the load generator, not from spans).
LAYER_UNITS = {
    "kernels.build_s": "s",
    "kernels.build_calls": "count",
    "workloads.characterize_s": "s",
    "workloads.characterize_calls": "count",
    "partition.s": "s",
    "partition.calls": "count",
    "lowered.s": "s",
    "lowered.calls": "count",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "machines.simulate_s": "s",
    "machines.simulate_calls": "count",
    "machines.batch_s": "s",
    "machines.batch_calls": "count",
    "machines.batch_lanes": "count",
    "machines.batch_fallback_lanes": "count",
    "machines.sim_instructions": "count",
    "machines.host_us_per_kinstr": "us",
    "machines.skipped_share": "ratio",
    **{f"machines.strategy.{label}": "count" for label in STRATEGIES},
    "session.self_s": "s",
    "session.evaluated": "count",
    "session.memory_hits": "count",
    "session.disk_hits": "count",
    "session.store_hits": "count",
    "store.record_s": "s",
    "store.record_calls": "count",
    "store.load_s": "s",
    "store.load_calls": "count",
    "store.load_hits": "count",
    "report.emit_self_s": "s",
    "report.render_s": "s",
    "report.site_s": "s",
    "service.self_s": "s",
    "trace.untraced_share": "ratio",
}

_SESSION_STATS = ("evaluated", "memory_hits", "disk_hits", "store_hits")


class SpanRecorder:
    """In-memory span recorder over monkeypatched layer entry points."""

    def __init__(self) -> None:
        self._spans: list[tuple] = []  # (id, parent, layer, name, tid, t0, t1, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_open: dict[int, tuple[int, int | None, float]] = {}

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _layers(self) -> list[str]:
        layers = getattr(self._local, "layers", None)
        if layers is None:
            layers = self._local.layers = []
        return layers

    @contextmanager
    def span(self, layer: str, name: str, attrs: dict | None = None):
        """Record one span; yields the attrs dict to fill in on exit."""
        stack, layers = self._stack(), self._layers()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs = {} if attrs is None else attrs
        # Stamp before pushing: a collection that starts in between
        # would otherwise begin before its parent span.
        start = time.perf_counter()
        stack.append(span_id)
        layers.append(layer)
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            layers.pop()
            self._spans.append((
                span_id, parent, layer, name, threading.get_ident(),
                start, end, attrs,
            ))

    def root(self):
        """A root span: benchmark work whose uncovered time is untraced."""
        return self.span("bench", ROOT)

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def in_layer(self, layer: str) -> bool:
        """True when the calling thread is already inside ``layer``."""
        return layer in self._layers()

    def _gc(self, phase: str, info: dict) -> None:
        tid = threading.get_ident()
        if phase == "start":
            stack = self._stack()
            self._gc_open[tid] = (
                next(self._ids), stack[-1] if stack else None,
                time.perf_counter(),
            )
            return
        opened = self._gc_open.pop(tid, None)
        if opened is not None:
            span_id, parent, start = opened
            self._spans.append((
                span_id, parent, "gc", "collect", tid, start,
                time.perf_counter(),
                {"generation": info.get("generation")},
            ))

    # -- patching ----------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, name: str, layer: str, span: str,
                      describe=None) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it."""
        original = getattr(module, name)
        wrapper = self._wrapper(original, layer, span, describe)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(name) is original):
                self._set(mod, name, wrapper)

    def wrap_method(self, cls, name: str, layer: str, span: str,
                    describe=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(
                self._wrapper(raw.__func__, layer, span, describe)
            )
        else:
            wrapped = self._wrapper(raw, layer, span, describe)
        self._set(cls, name, wrapped)

    def _wrapper(self, fn, layer: str, span: str, describe):
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(layer, span) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    describe(attrs, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _session_wrapper(self, fn):
        """Session.run/evaluate: outermost calls carry the stats delta."""
        recorder = self

        def wrapper(session, *args, **kwargs):
            outer = not recorder.in_layer("session")
            before = dict(session.stats) if outer else None
            with recorder.span("session", fn.__name__) as attrs:
                try:
                    return fn(session, *args, **kwargs)
                finally:
                    if outer:
                        for key in _SESSION_STATS:
                            attrs[key] = session.stats[key] - before[key]

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer's entry points and start collecting GC pauses."""
        from repro.api.session import Session
        from repro.machines.swsm import SuperscalarMachine

        # Modules by dotted path: some packages re-export a function
        # under its module's name (repro.workloads.characterize).
        (kernels_base, batch, lowered, registry, strategies, emitters, site,
         store, text, jobs, characterize, grammar) = (
            importlib.import_module(f"repro.{name}") for name in (
                "kernels.base", "machines.batch", "machines.lowered",
                "machines.registry", "partition.strategies",
                "report.emitters", "report.site", "report.store",
                "report.text", "service.jobs", "workloads.characterize",
                "workloads.grammar",
            )
        )

        self.wrap_function(kernels_base, "build_kernel", "kernels", "build")
        self.wrap_function(grammar, "build_generated", "kernels", "build")
        self.wrap_function(
            characterize, "characterize", "workloads", "characterize"
        )
        self.wrap_function(
            strategies, "partition_with_strategy", "partition", "partition"
        )
        self.wrap_method(SuperscalarMachine, "compile", "partition", "lower_swsm")
        self.wrap_function(lowered, "lower_program", "lowered", "lower")
        for model in (registry.DecoupledModel, registry.SuperscalarModel,
                      registry.SerialModel):
            self.wrap_method(
                model, "simulate", "machines", "simulate", _describe_simulate
            )
        self.wrap_function(
            batch, "simulate_batch", "machines", "batch", _describe_batch
        )
        for name in ("run", "evaluate"):
            self._set(Session, name, self._session_wrapper(Session.__dict__[name]))
        self.wrap_method(store.ResultStore, "record", "store", "record")
        self.wrap_method(
            store.ResultStore, "load", "store", "load", _describe_load
        )
        for name in emitters.__all__:
            if name.startswith("emit_"):
                self.wrap_function(emitters, name, "report", "emit")
        self.wrap_function(text, "render_text", "report", "render")
        self.wrap_function(site, "write_site", "report", "site")
        self.wrap_method(jobs.JobScheduler, "submit", "service", "submit")
        self.wrap_function(jobs, "result_rows", "service", "rows")
        self.wrap_method(jobs.JobScheduler, "_execute", "bench", ROOT)
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        """Restore every patched attribute and stop collecting GC pauses."""
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path: str | Path) -> None:
        """Write the spans as ``repro-trace-1`` JSONL, in timestamp order."""
        records = []
        pid = os.getpid()
        for span_id, parent, layer, name, tid, start, end, attrs in self._spans:
            fields = {"layer": layer, **attrs}
            if parent is not None:
                fields["parent"] = parent
            records.append((start, 0, span_id, {
                "ts": start, "pid": pid, "tid": tid, "ph": "B",
                "name": name, "span": span_id, "attrs": fields,
            }))
            records.append((end, 1, span_id, {
                "ts": end, "pid": pid, "tid": tid, "ph": "E",
                "name": name, "span": span_id,
            }))
        records.sort(key=lambda item: item[:3])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "ts": records[0][0] if records else 0.0, "pid": pid,
                "tid": threading.get_ident(), "ph": "I",
                "name": "trace.open", "attrs": {"schema": "repro-trace-1"},
            }, sort_keys=True) + "\n")
            for *_, record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _describe_simulate(attrs: dict, args: tuple, result) -> None:
    telemetry = result.telemetry
    attrs["strategies"] = {telemetry.strategy: 1}
    if telemetry.strategy != "serial":
        attrs["instructions"] = result.instructions
        attrs["skipped"] = telemetry.counters.get("skipped_instructions", 0)


def _describe_batch(attrs: dict, args: tuple, results) -> None:
    strategies: dict[str, int] = {}
    for result in results:
        label = result.telemetry.strategy
        strategies[label] = strategies.get(label, 0) + 1
    attrs["strategies"] = strategies
    attrs["lanes"] = len(results)
    attrs["fallback_lanes"] = len(results) - strategies.get("batch", 0)
    attrs["instructions"] = sum(result.instructions for result in results)
    attrs["skipped"] = sum(
        result.telemetry.counters.get("skipped_instructions", 0)
        for result in results
    )


def _describe_load(attrs: dict, args: tuple, result) -> None:
    attrs["hit"] = result is not None


# -- summarizer ----------------------------------------------------------------


def load_spans(path: str | Path) -> list[dict]:
    """Pair the B/E records of a trace file back into span dicts."""
    begun: dict[int, dict] = {}
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["ph"] == "B":
                attrs = dict(record.get("attrs", {}))
                begun[record["span"]] = {
                    "id": record["span"],
                    "tid": record["tid"],
                    "name": record["name"],
                    "layer": attrs.pop("layer", ""),
                    "parent": attrs.pop("parent", None),
                    "start": record["ts"],
                    "attrs": attrs,
                }
            elif record["ph"] == "E":
                span = begun.pop(record["span"])
                span["end"] = record["ts"]
                span["dur"] = record["ts"] - span["start"]
                spans.append(span)
    return spans


def check_spans(path: str | Path, layers) -> list[str]:
    """Problems the recorder itself could cause, beyond the trace schema.

    Every layer in ``layers`` (the ones the workload exercises) must
    have recorded a span, so a wrapper that missed its call sites
    shows; and every span must lie inside its parent, on the parent's
    thread, so self time is well defined.
    """
    spans = load_spans(path)
    by_id = {span["id"]: span for span in spans}
    seen = {span["layer"] for span in spans}
    problems = [f"layer {layer}: no span recorded"
                for layer in layers if layer not in seen]
    for span in spans:
        parent = by_id.get(span["parent"])
        if span["parent"] is not None and (
            parent is None
            or parent["tid"] != span["tid"]
            or span["start"] < parent["start"]
            or span["end"] > parent["end"]
        ):
            problems.append(
                f"span {span['id']} ({span['layer']}.{span['name']}) is "
                f"not inside its parent {span['parent']}"
            )
    return problems


def summarize(path: str | Path) -> dict[str, float]:
    """Per-layer metrics of one trace file (see :data:`LAYER_UNITS`)."""
    spans = load_spans(path)
    by_id = {span["id"]: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["dur"]
            )
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    root_total = root_self = 0.0
    for span in spans:
        self_time = span["dur"] - child_time.get(span["id"], 0.0)
        layer, name, attrs = span["layer"], span["name"], span["attrs"]
        parent = by_id.get(span["parent"])
        outermost = parent is None or parent["layer"] != layer
        if name == ROOT:
            root_total += span["dur"]
            root_self += self_time
        elif layer == "gc":
            out["gc.pause_s"] += span["dur"]
            out["gc.collections"] += 1
        elif layer == "kernels":
            out["kernels.build_s"] += self_time
            out["kernels.build_calls"] += outermost
        elif layer == "workloads":
            out["workloads.characterize_s"] += self_time
            out["workloads.characterize_calls"] += outermost
        elif layer == "partition":
            out["partition.s"] += self_time
            out["partition.calls"] += outermost
        elif layer == "lowered":
            out["lowered.s"] += self_time
            out["lowered.calls"] += outermost
        elif layer == "machines":
            kind = "simulate" if name == "simulate" else "batch"
            out[f"machines.{kind}_s"] += self_time
            out[f"machines.{kind}_calls"] += 1
            out["machines.batch_lanes"] += attrs.get("lanes", 0)
            out["machines.batch_fallback_lanes"] += attrs.get(
                "fallback_lanes", 0
            )
            out["machines.sim_instructions"] += attrs.get("instructions", 0)
            out["machines.skipped_share"] += attrs.get("skipped", 0)
            for label, count in attrs.get("strategies", {}).items():
                key = f"machines.strategy.{label}"
                if key in out:
                    out[key] += count
        elif layer == "session":
            out["session.self_s"] += self_time
            for key in _SESSION_STATS:
                out[f"session.{key}"] += attrs.get(key, 0)
        elif layer == "store":
            out[f"store.{name}_s"] += self_time
            out[f"store.{name}_calls"] += 1
            out["store.load_hits"] += bool(attrs.get("hit"))
        elif layer == "report":
            key = {"emit": "report.emit_self_s", "render": "report.render_s",
                   "site": "report.site_s"}[name]
            out[key] += self_time
        elif layer == "service":
            out["service.self_s"] += self_time
    instructions = out["machines.sim_instructions"]
    sim_time = out["machines.simulate_s"] + out["machines.batch_s"]
    if instructions:
        out["machines.skipped_share"] /= instructions
        out["machines.host_us_per_kinstr"] = sim_time / instructions * 1e9
    out["trace.untraced_share"] = root_self / root_total if root_total else 0.0
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "summarize":
        print("usage: spans.py summarize TRACE.jsonl", file=sys.stderr)
        return 2
    for name, value in summarize(argv[1]).items():
        print(f"{name:36s} {value:14.6g} {LAYER_UNITS[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
