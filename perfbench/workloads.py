"""The three workloads.

Each workload builds its inputs from the seed (:mod:`inputs`), sets
up, runs ops in a closed loop for the window, and then checks what the
program produced (:mod:`checks`). An *op* is one user-visible
operation:

* ``compile-x10`` — ``load_model`` + ``generate_configuration`` of the
  ×10 mega factory, the paper's cold sources-to-manifests path;
* ``edit-x10`` — one revision fed to a warm ``IncrementalEngine``, the
  ``repro watch`` loop;
* ``serve-mix`` — one ``POST /v1/generate`` to a ``repro serve`` child
  process from one of two closed-loop client threads.

The op loop times only the op itself: making the next input, digesting
an op's output and (for compile-x10) collecting the garbage earlier
ops left happen between ops. For the single-client workloads
the window is the summed op time, so that bookkeeping does not count
against throughput.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracing

clock = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Window:
    """What one timed window measured."""

    latencies: list[float] = field(default_factory=list)  # inf = failed
    kinds: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    #: op index -> timing-free digest of the op's output
    digests: dict[int, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def record(self, seconds: float, ok: bool, kind: str = "op") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.latencies.append(seconds if ok else float("inf"))
        self.kinds.append(kind)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Workload:
    name = ""
    #: how many times set-up runs; ``setup_s`` is their median
    setups = 3
    #: ops a window runs at least, however long they take
    min_ops = 1
    #: a window ends only after a whole number of input blocks, so each
    #: window holds the same mix of op kinds
    block = 1
    #: set before the traced window's set-up
    traced = False
    #: collect the garbage earlier ops left before each op (outside the
    #: window), so every op starts from the heap a fresh process has
    fresh_heap = False

    def __init__(self, seed: int, scale: int, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built, before it runs again."""

    def finish(self) -> list[str]:
        """Stop what the window used; returns errors."""
        return []

    def prepare(self, index: int):
        return None

    def op(self, index: int, prepared):
        raise NotImplementedError

    def after_op(self, index: int, prepared, output, window: Window
                 ) -> None:
        """Bookkeeping between ops (outside the timing)."""

    def run(self, seconds: float, recorder: tracing.Recorder | None
            ) -> Window:
        window = Window()
        index = 0
        while window.seconds < seconds or index < self.min_ops \
                or index % self.block:
            prepared = self.prepare(index)
            if self.fresh_heap:
                gc.collect()
            if recorder is not None:
                recorder.set_op(index)
                span = recorder.open("op")
            begun = clock()
            try:
                output = self.op(index, prepared)
                ok = True
            except Exception as exc:  # noqa: BLE001 - counted, reported
                output = None
                ok = False
                window.failures.append(f"op {index}: {exc!r}")
            ended = clock()
            if recorder is not None:
                recorder.close(span)
                recorder.set_op(None)
            window.record(ended - begun, ok)
            window.seconds += ended - begun
            if ok:
                self.after_op(index, prepared, output, window)
            index += 1
        return window

    def check(self, window: Window) -> list[str]:
        return []

    def layers(self, spans: list, window: Window) -> dict[str, float]:
        """Per-layer counts this workload adds to the generic ones."""
        return {}

    def close(self) -> None:
        pass


# -- compile-x10 ------------------------------------------------------------------

class Compile(Workload):
    """Each op stands for one ``repro generate`` run, a fresh process."""

    name = "compile-x10"
    setups = 5
    min_ops = 3
    fresh_heap = True

    def setup(self) -> None:
        from repro.codegen import PipelineOptions, generate_configuration
        from repro.sysml import load_model
        self.load_model = load_model
        self.generate = generate_configuration
        self.options = PipelineOptions()
        self.factory = inputs.mega_factory(self.seed, self.scale)
        self.last = None

    def prepare(self, index: int):
        self.last = None  # never hold two results during an op
        return None

    def op(self, index: int, prepared):
        model = self.load_model(*self.factory.sources)
        return self.generate(model, self.options)

    def after_op(self, index, prepared, output, window) -> None:
        value = checks.result_digest(output)
        first = window.digests.setdefault(0, value)
        if value != first:
            window.errors.append(f"op {index}: output differs from op 0")
        self.last = output

    def check(self, window: Window) -> list[str]:
        if self.last is None:
            return ["no op completed"]
        return checks.check_configuration(self.last, self.factory)

    def layers(self, spans, window) -> dict[str, float]:
        bound = checks.lower_bound(
            [s.point_count for s in self.factory.specs],
            self.factory.capacity)
        clients = [(span[5] or {}).get("clients") for span in spans
                   if span[0] == "codegen.pipeline"]
        return {"codegen.pipeline.clients_over_lower_bound":
                clients[-1] - bound if clients else 0}


# -- edit-x10 ---------------------------------------------------------------------

class Edit(Workload):
    name = "edit-x10"
    setups = 2
    min_ops = 10
    block = 5

    def setup(self) -> None:
        from repro.codegen import IncrementalEngine, PipelineOptions
        from repro.obs import METRICS
        self.full_runs = METRICS.counter("incremental.full_runs")
        self.factory = inputs.mega_factory(self.seed, self.scale)
        self.stream = inputs.EditStream(self.seed, self.factory)
        self.engine = IncrementalEngine(PipelineOptions())
        self.last = self.engine.generate(*self.factory.sources)
        self.regenerated = 0
        self.reused = 0
        self.param_edits = 0
        self.fallbacks = 0

    def prepare(self, index: int):
        edit = self.stream.next(index)
        return edit, list(self.factory.sources), self.full_runs.value

    def teardown(self) -> None:
        self.engine = self.last = None

    def op(self, index: int, prepared):
        return self.engine.generate(*prepared[1])

    def after_op(self, index, prepared, output, window) -> None:
        edit, _sources, full_runs = prepared
        self.last = output
        regenerated = sorted(artifact for artifact, state
                             in output.provenance.items()
                             if state == "regenerated")
        self.regenerated += len(regenerated)
        self.reused += len(output.provenance) - len(regenerated)
        if self.full_runs.value != full_runs:
            self.fallbacks += 1
        expected: list[str] = []
        if edit.kind == "param":
            self.param_edits += 1
            config = next((c for c in output.machine_configs.values()
                           if c["driver"]["name"] == edit.driver),
                          {"machine": edit.driver, "workcell": "?"})
            workcell = config["workcell"]
            expected = sorted([
                f"machine:{config['machine']}", f"server:{workcell}",
                f"manifest:{checks.dns_label(workcell)}-opcua-server.yaml"])
        if regenerated != expected:
            window.errors.append(
                f"edit {index} ({edit.kind} {edit.driver}): regenerated "
                f"{regenerated}, expected {expected}")
        window.digests[index] = checks.digest(
            edit.kind, len(output.provenance),
            [(a, checks.artifact_content(output, a)) for a in regenerated])

    def check(self, window: Window) -> list[str]:
        from repro.codegen import PipelineOptions, generate_configuration
        from repro.sysml import load_model
        errors = checks.check_configuration(self.last, self.factory)
        incremental = checks.result_digest(self.last)
        self.engine = self.last = None
        cold = generate_configuration(load_model(*self.factory.sources),
                                      PipelineOptions())
        if checks.result_digest(cold) != incremental:
            errors.append("incremental result differs from a cold "
                          "compile of the same sources")
        return errors

    def layers(self, spans, window) -> dict[str, float]:
        engine = sum(s[2] - s[1] for s in spans
                     if s[0] == "codegen.incremental")
        updates = sum(s[2] - s[1] for s in spans
                      if s[0] == "sysml.incremental")
        calls = sum(1 for s in spans if s[0] == "codegen.incremental")
        total = self.regenerated + self.reused
        return {
            "codegen.incremental.partial_s":
                (engine - updates) / calls if calls else 0.0,
            "edit.regenerated_per_edit":
                self.regenerated / self.param_edits
                if self.param_edits else 0.0,
            "edit.reuse_ratio": self.reused / total if total else 0.0,
            "edit.full_fallbacks": self.fallbacks,
        }


# -- serve-mix --------------------------------------------------------------------

class ServeMix(Workload):
    """Two closed-loop clients against a real ``repro serve`` child."""

    name = "serve-mix"
    setups = 3
    #: per client
    min_ops = 11
    block = 10

    def __init__(self, seed: int, scale: int, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.process: subprocess.Popen | None = None
        self.launch_count = 0

    # -- the child ---------------------------------------------------------

    def _launch(self) -> None:
        self.launch_count += 1
        tag = f"serve{self.launch_count}"
        self.port_file = self.workdir / f"{tag}.port"
        self.spans_file = self.workdir / f"{tag}.spans.json"
        self.port_file.unlink(missing_ok=True)
        self.log = open(self.workdir / f"{tag}.log", "w")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        serve = ["serve", "--port", "0", "--port-file", str(self.port_file)]
        if self.traced:
            command = [sys.executable, str(ROOT / "perfbench" /
                                           "serve_child.py"),
                       str(self.spans_file), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        self.process = subprocess.Popen(command, cwd=ROOT, env=env,
                                        stdout=self.log,
                                        stderr=subprocess.STDOUT)
        from repro.service import ServiceClient
        from repro.testkit.waiting import Deadline, wait_until
        deadline = Deadline(60)

        def port_written() -> bool:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.process.returncode}")
            # the port line is complete once its newline is written
            return self.port_file.is_file() and \
                self.port_file.read_text().endswith("\n")

        wait_until(port_written, deadline=deadline, interval=0.01,
                   message="the repro serve port file")
        self.port = int(self.port_file.read_text())
        with ServiceClient(self.port, timeout=10) as client:
            def healthy() -> bool:
                try:
                    return client.request("GET", "/healthz")[0] == 200
                except OSError:
                    return False

            wait_until(healthy, deadline=deadline, interval=0.01,
                       message="repro serve /healthz")

    def _drain(self) -> int:
        """SIGTERM the child and wait for its drain; returns the code."""
        process, self.process = self.process, None
        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            code = -9
        self.log.close()
        return code

    def setup(self) -> None:
        self.streams = [inputs.RequestStream(self.seed, client)
                        for client in range(inputs.CLIENTS)]
        self._launch()
        # each client's first request warms its tenant's engine
        from repro.service import ServiceClient
        self.warm: dict[int, bytes] = {}
        for op in range(inputs.CLIENTS):
            with ServiceClient(self.port, timeout=120) as client:
                ok, payload, problem = self._send(client, op, None)
            if not ok:
                raise RuntimeError(f"warm-up request {op}: {problem}")
            self.warm[op] = payload

    def teardown(self) -> None:
        if self.process is None:
            return
        code = self._drain()
        if code != 0:
            raise RuntimeError(f"repro serve drain exited {code}")

    def request(self, op: int) -> inputs.Request:
        """Op *op* is request ``op // CLIENTS`` of client
        ``op % CLIENTS``."""
        return self.streams[op % inputs.CLIENTS].get(op // inputs.CLIENTS)

    def origin(self, op: int) -> int:
        return self.request(op).origin * inputs.CLIENTS \
            + op % inputs.CLIENTS

    # -- the window --------------------------------------------------------

    def run(self, seconds: float, recorder) -> Window:
        from repro.service import ServiceClient
        window = Window()
        lock = threading.Lock()
        keep = self._kept_ops()
        self.payloads = {op: p for op, p in self.warm.items() if op in keep}
        window.digests.update({op: checks.digest(p)
                               for op, p in self.warm.items()})
        started = clock()
        ends: list[float] = []

        def client_loop(number: int) -> None:
            with ServiceClient(self.port, timeout=120,
                               client_id=f"bench-{number}") as client:
                for position in itertools.count(1):
                    # request 0 was the warm-up; whole blocks follow it
                    if clock() - started >= seconds and \
                            position >= self.min_ops and \
                            (position - 1) % self.block == 0:
                        return
                    op = position * inputs.CLIENTS + number
                    begun = clock()
                    ok, payload, problem = self._send(client, op, op)
                    ended = clock()
                    value = checks.digest(payload) if ok else None
                    with lock:
                        window.record(ended - begun, ok,
                                      self.request(op).kind)
                        ends.append(ended)
                        if ok:
                            window.digests[op] = value
                            if op in keep:
                                self.payloads[op] = payload
                        else:
                            window.failures.append(
                                f"request {op}: {problem}")

        threads = [threading.Thread(target=client_loop, args=(n,),
                                    name=f"bench-client-{n}")
                   for n in range(inputs.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.seconds = max(ends) - started if ends else 0.0
        with ServiceClient(self.port, timeout=30) as client:
            self.metrics = client.metrics()
        return window

    def _send(self, client, op: int, tag: int | None
              ) -> tuple[bool, bytes, str]:
        """POST request *op*; *tag* goes out as the ``X-Bench-Op``
        header the traced server files its spans under."""
        request = self.request(op)
        body = json.dumps({"sources": list(request.sources),
                           "options": request.options}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if tag is not None:
            headers["X-Bench-Op"] = str(tag)
        try:
            status, _, payload = client.request("POST", "/v1/generate",
                                                body, headers)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            return False, b"", repr(exc)
        return status == 200, payload, f"HTTP {status}"

    def _kept_ops(self) -> set[int]:
        """Requests whose payload the check re-derives on the direct
        path: client 0's base, first edit and first variant."""
        keep = {0}
        for kind in ("edit", "variant"):
            keep.add(next(op for op in range(0, 400, inputs.CLIENTS)
                          if self.request(op).kind == kind))
        return keep

    def finish(self) -> list[str]:
        """Drain the child; the drain must exit 0."""
        code = self._drain()
        return [] if code == 0 else [f"repro serve drain exited {code}"]

    def check(self, window: Window) -> list[str]:
        errors = []
        for op in sorted(self.payloads):
            request = self.request(op)
            if direct_payload(request) != self.payloads[op]:
                errors.append(f"request {op} ({request.kind}): served "
                              f"payload differs from the direct path")
            errors += [f"request {op}: {e}" for e in
                       checks.check_configuration(
                           json.loads(self.payloads[op]),
                           request.factory)]
        for op, value in window.digests.items():
            origin = self.origin(op)
            if window.digests.get(origin, value) != value:
                errors.append(f"request {op} repeats {origin} but its "
                              f"payload differs")
        return errors

    def layers(self, spans, window) -> dict[str, float]:
        def per_call(name: str) -> float:
            durations = [s[2] - s[1] for s in spans if s[0] == name]
            return sum(durations) / len(durations) if durations else 0.0

        def p50_ms(kind: str) -> float:
            values = [v for v, k in zip(window.latencies, window.kinds)
                      if k == kind]
            return percentile(values, 50) * 1e3 if values else 0.0

        executions = sum(1 for s in spans if s[0] == "codegen.incremental")
        parses = sum(1 for s in spans
                     if s[0] in ("service.load", "sysml.incremental"))
        requests = self.metrics.get("service.requests", 0)
        return {
            "service.load_s": per_call("service.load"),
            "service.engine_s": per_call("codegen.incremental"),
            "service.bundle_s": per_call("service.bundle"),
            "service.parses_per_execution":
                parses / executions if executions else 0.0,
            "service.memo_hit_ratio":
                self.metrics.get("service.memo_hits", 0) / requests
                if requests else 0.0,
            "service.executions":
                self.metrics.get("service.pipeline_executions", 0),
            "service.errors": self.metrics.get("service.errors", 0),
            "serve.repeat_p50_ms": p50_ms("repeat"),
            "serve.edit_p50_ms": p50_ms("edit"),
            "serve.variant_p50_ms": p50_ms("variant"),
        }

    def close(self) -> None:
        if self.process is not None:
            self.process.kill()
            self.process.wait()
            self.process = None
            self.log.close()


def direct_payload(request: inputs.Request) -> bytes:
    """The bytes the direct path produces for one served request."""
    from repro.codegen import PipelineOptions, generate_configuration
    from repro.service.server import bundle_bytes
    from repro.sysml import load_model
    options = PipelineOptions(**inputs.SERVER_OPTIONS).replace(
        **request.options)
    model = load_model(*request.sources)
    return bundle_bytes(generate_configuration(model, options),
                        model.content_fingerprint, options)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (inf stands for a failed op)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


WORKLOADS = {cls.name: cls for cls in (Compile, Edit, ServeMix)}
