"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from this package only: :func:`install` replaces a
layer's public function or method, at the name its caller looks it up
under, with a wrapper that opens a span around the original call. The
program's own sources are untouched; :func:`uninstall` restores every
original.

Each span keeps ``(name, start, end, parent, op)``. Spans live in a
list until the run ends. A span's *self time* is its duration minus
the time its direct children cover; children of one span run on the
same thread, nested inside it, so they never overlap each other.

Cyclic-GC pauses come from ``gc.callbacks`` and are charged to the
span open on the collecting thread.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """Collects spans and GC pauses for one traced window."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id, attrs]
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.gc_pause_by_op: dict[object, float] = defaultdict(float)
        self.gc_gen2_by_op: dict[object, int] = defaultdict(int)
        self._gc_started: dict[int, float] = {}

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        return getattr(self._local, "op", None)

    def set_op(self, op) -> None:
        self._local.op = op

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, _clock(), 0.0, parent, self.current_op(), None]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        self.spans[index][2] = _clock()
        if attrs:
            self.spans[index][5] = attrs
        self._stack().pop()

    def annotate(self, index: int, **attrs) -> None:
        record = self.spans[index]
        record[5] = {**(record[5] or {}), **attrs}

    def wrap(self, name: str, func, count=None):
        """*func* wrapped in a span; *count(result, args)* may return a
        dict of attributes recorded on the span."""
        recorder = self

        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                recorder.close(index, error=True)
                raise
            recorder.close(index)
            if count is not None:
                # counted after the span closed, so counting is not
                # charged to the layer
                recorder.annotate(index, **count(result, args))
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        ident = threading.get_ident()
        if phase == "start":
            self._gc_started[ident] = _clock()
            return
        started = self._gc_started.pop(ident, None)
        if started is None:
            return
        op = self.current_op()
        self.gc_pause_by_op[op] += _clock() - started
        if info.get("generation") == 2:
            self.gc_gen2_by_op[op] += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- persistence (the served child writes its spans at exit) ----------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "gc_pause": {str(k): v for k, v in
                                    self.gc_pause_by_op.items()},
                       "gc_gen2": {str(k): v for k, v in
                                   self.gc_gen2_by_op.items()}}, handle)

    @classmethod
    def load(cls, path: str) -> "Recorder":
        with open(path) as handle:
            data = json.load(handle)
        recorder = cls()
        recorder.spans = data["spans"]
        recorder.gc_pause_by_op.update(data["gc_pause"])
        recorder.gc_gen2_by_op.update(data["gc_gen2"])
        return recorder


# -- analysis -------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the duration of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name, over the spans recorded inside ops: summed self
    time, summed duration and call count."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for span, self_s in zip(spans, own):
        if span[4] is None:
            continue
        entry = totals[span[0]]
        entry["self_s"] += self_s
        entry["total_s"] += span[2] - span[1]
        entry["calls"] += 1
    return dict(totals)


def attr_sum(spans: list[list], name: str, key: str) -> float:
    return sum((span[5] or {}).get(key, 0) for span in spans
               if span[0] == name)


# -- layer boundaries ---------------------------------------------------------

def _patch(patches: list, owner, attribute: str, replacement) -> None:
    patches.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


def _method(recorder: Recorder, patches: list, cls, attribute: str,
            name: str, count=None) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        wrapped = classmethod(recorder.wrap(name, raw.__func__, count))
    else:
        wrapped = recorder.wrap(name, raw, count)
    _patch(patches, cls, attribute, wrapped)


def _tokens(text: str, filename: str = "<model>"):
    from repro.sysml.lexer import Lexer
    return Lexer(text, filename).tokens()


def install(recorder: Recorder) -> list:
    """Wrap every layer boundary the workloads cross; returns the
    patch list :func:`uninstall` takes."""
    import repro.codegen.pipeline as pipeline
    import repro.service.server as server
    import repro.sysml.parser as parser
    from repro.codegen.incremental import IncrementalEngine
    from repro.isa95.topology import TopologyExtractor
    from repro.sysml.builder import ModelBuilder
    from repro.sysml.depgraph import NodeIndex
    from repro.sysml.incremental import ModelSession
    from repro.sysml.resolver import Resolver

    patches: list = []

    def lex(text, filename="<model>"):
        # the parser streams tokens; the traced run lexes the whole
        # file up front so lexing and parsing get separate spans
        index = recorder.open("sysml.lexer")
        tokens = _tokens(text, filename)
        recorder.close(index, tokens=len(tokens))
        return iter(tokens)

    _patch(patches, parser, "iter_tokens", lex)
    _patch(patches, parser, "parse",
           recorder.wrap("sysml.parser", parser.parse))
    _method(recorder, patches, ModelBuilder, "add", "sysml.builder")
    _method(recorder, patches, ModelBuilder, "build", "sysml.builder",
            count=lambda model, _a: {"elements": _count_elements(model)})
    _method(recorder, patches, Resolver, "resolve", "sysml.resolver",
            count=lambda _model, args: {
                "elements": _count_elements(args[0].model)})
    _method(recorder, patches, Resolver, "resolve_only", "sysml.resolver",
            count=lambda _r, args: {"elements": len(args[1])})
    _method(recorder, patches, NodeIndex, "of_model", "sysml.depgraph")
    _method(recorder, patches, NodeIndex, "changed_since",
            "sysml.depgraph")
    _method(recorder, patches, ModelSession, "__init__",
            "sysml.incremental")
    _method(recorder, patches, ModelSession, "update", "sysml.incremental",
            count=lambda update, _a: {
                "full_rebuild": bool(update.full_rebuild)})
    _method(recorder, patches, TopologyExtractor, "extract",
            "isa95.topology",
            count=lambda topology, _a: {
                "machines": len(topology.machines),
                "points": sum(m.point_count for m in topology.machines)})
    _method(recorder, patches, TopologyExtractor, "extract_machine_at",
            "isa95.topology")
    _patch(patches, pipeline, "validate_topology",
           recorder.wrap("isa95.validation", pipeline.validate_topology))
    _method(recorder, patches, pipeline.GenerationPipeline, "run_on_model",
            "codegen.pipeline", count=_result_counts)
    _method(recorder, patches, pipeline.GenerationPipeline,
            "run_on_topology", "codegen.pipeline", count=_result_counts)
    _method(recorder, patches, IncrementalEngine, "generate",
            "codegen.incremental", count=_provenance_counts)
    _patch(patches, server, "load_model",
           recorder.wrap("service.load", server.load_model))
    _patch(patches, server, "bundle_bytes",
           recorder.wrap("service.bundle", server.bundle_bytes))
    return patches


def uninstall(patches: list) -> None:
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
    patches.clear()


def _count_elements(model) -> int:
    count = 0
    stack = list(model.owned_elements)
    while stack:
        element = stack.pop()
        count += 1
        stack.extend(element.owned_elements)
    return count


def _result_counts(result, _args) -> dict:
    return {"manifests": len(result.manifests),
            "output_bytes": sum(len(text.encode("utf-8"))
                                for text in result.manifests.values()),
            "clients": len(result.client_configs)}


def _provenance_counts(result, _args) -> dict:
    states = list(result.provenance.values())
    return {"regenerated": states.count("regenerated"),
            "reused": states.count("reused")}
