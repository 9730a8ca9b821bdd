"""The sharded serving tier's front end: consistent-hash routing.

:class:`RouterService` sits in front of N workers (each one a full
single-node service stack, see :mod:`repro.service.worker`) and
forwards every ``/v1/generate`` request to the worker that *owns* it
on a consistent-hash ring (:mod:`repro.service.ring`). The routing
key is exactly the worker-side generation single-flight key::

    fingerprint(content_fingerprint_of_sources(sources),
                semantic_options, salt=SERVICE_GENERATE_SALT)

computed without parsing (the content fingerprint is a pure hash of
the source texts). Identical requests therefore always land on the
same shard, where the worker's result memo and single-flight
coalescing collapse them — sharding multiplies throughput without
multiplying pipeline executions.

Failure handling leans on :mod:`repro.resilience`:

* a background prober marks a worker down after
  ``failure_threshold`` consecutive failed ``/healthz`` probes and
  back up on the first success — ring rebalancing on both edges is
  deterministic (every router observing the same healthy set computes
  the same assignments);
* each worker has a :class:`~repro.resilience.CircuitBreaker`; a
  tripped breaker excludes the worker from candidate selection
  without a doomed round trip;
* a transport failure (or an injected crash at the
  ``router.dispatch`` fault site) marks the worker down and *fails
  over* to the next owner on the restricted ring — the caller sees
  the byte-identical payload from the surviving shard, or a typed
  retriable error, never a hang;
* an injectable monotonic ``clock`` bounds the whole failover loop by
  ``dispatch_deadline`` (typed retriable ``dispatch-deadline`` error
  past it).

``/metrics`` and ``/cache/stats`` aggregate across shards (exact for
process workers, which own their registries; see
:func:`repro.obs.aggregate_snapshots` for the histogram contract).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ..codegen.options import PipelineOptions
from ..faults import FaultInjected, InjectedCrash, fault_point
from ..fingerprint import SERVICE_GENERATE_SALT, fingerprint
from ..obs import METRICS, Summarizable, aggregate_snapshots, record_span
from ..resilience import CircuitBreaker, CircuitOpen
from ..sysml import content_fingerprint_of_sources
from .admission import AdmissionError
from .client import RetriableServiceError, ServiceClient
from .lifecycle import DrainReport, ServiceLifecycle
from .ring import DEFAULT_VNODES, HashRing, RingEmpty
from .server import (BadRequest, REQUEST_OPTION_KEYS, _STATUS_BY_CODE,
                     parse_generate_body, read_request_body)
from .worker import WorkerEndpoint

_REQUESTS = METRICS.counter("router.requests")
_RESPONSES = METRICS.counter("router.responses")
_ERRORS = METRICS.counter("router.errors")
_FORWARDED = METRICS.counter("router.forwarded")
_FAILOVERS = METRICS.counter("router.failovers")
_PROBES = METRICS.counter("router.probes")
_WORKERS_DOWN = METRICS.counter("router.workers_marked_down")
_WORKERS_UP = METRICS.counter("router.workers_marked_up")
_HEALTHY = METRICS.gauge("router.workers_healthy")
_LATENCY = METRICS.histogram("router.request_seconds")


@dataclass
class TopologyDrainReport(Summarizable):
    """Outcome of draining the whole sharded topology.

    ``completed`` only when the router finished its own in-flight work
    *and* every worker reported a clean drain — a worker that died
    without writing a report (``None``) fails the topology drain.
    """

    router: DrainReport
    workers: dict[str, DrainReport | None] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.router.completed and all(
            report is not None and report.completed
            for report in self.workers.values())

    def summary(self) -> dict[str, object]:
        return {
            "completed": self.completed,
            "router": self.router.summary(),
            "workers": {name: (report.summary() if report is not None
                               else None)
                        for name, report in sorted(self.workers.items())},
        }


class RouterService:
    """Consistent-hash request router over a set of workers."""

    def __init__(self, workers, options: PipelineOptions | None = None, *,
                 vnodes: int = DEFAULT_VNODES,
                 probe_interval: float = 0.5,
                 probe_timeout: float = 2.0,
                 failure_threshold: int = 3,
                 dispatch_deadline: float = 30.0,
                 worker_timeout: float = 60.0,
                 breaker_threshold: int = 3,
                 breaker_reset: float = 2.0,
                 clock=time.monotonic):
        """*workers*: :class:`~repro.service.worker.WorkerEndpoint`
        instances or worker objects exposing ``.endpoint`` (and then
        optionally ``.drain()`` for topology drains). *options* must
        mirror the workers' pipeline options so the routing key equals
        the worker-side single-flight key."""
        base = options if options is not None else PipelineOptions()
        self.options = base
        self.vnodes = vnodes
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.failure_threshold = failure_threshold
        self.dispatch_deadline = dispatch_deadline
        self.worker_timeout = worker_timeout
        self._clock = clock
        self.lifecycle = ServiceLifecycle()
        self._workers: dict[str, object] = {}
        self._endpoints: dict[str, WorkerEndpoint] = {}
        for worker in workers:
            endpoint = worker if isinstance(worker, WorkerEndpoint) \
                else worker.endpoint
            if endpoint.name in self._endpoints:
                raise ValueError(f"duplicate worker name "
                                 f"{endpoint.name!r}")
            self._endpoints[endpoint.name] = endpoint
            self._workers[endpoint.name] = worker
        self._lock = threading.Lock()
        self._healthy: set[str] = set(self._endpoints)
        self._misses: dict[str, int] = dict.fromkeys(self._endpoints, 0)
        self._ring = HashRing(self._endpoints, vnodes)
        self._healthy_ring = self._ring
        self._breakers = {
            name: CircuitBreaker(name=f"router.worker.{name}",
                                 failure_threshold=breaker_threshold,
                                 reset_timeout=breaker_reset,
                                 clock=clock)
            for name in self._endpoints}
        self._shard_counters = {
            name: METRICS.counter(f"router.shard.{name}.forwarded")
            for name in self._endpoints}
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        _HEALTHY.set(len(self._healthy))

    # -- routing ---------------------------------------------------------

    def _resolve_options(self, overrides: dict | None) -> PipelineOptions:
        if not overrides:
            return self.options
        unknown = set(overrides) - set(REQUEST_OPTION_KEYS)
        if unknown:
            raise BadRequest(
                f"unknown option(s): {', '.join(sorted(unknown))}; "
                f"requests may set {', '.join(REQUEST_OPTION_KEYS)}")
        return self.options.replace(**overrides)

    def routing_key(self, sources, overrides: dict | None = None) -> str:
        """The shard-affinity key for one request.

        Byte-for-byte the key the owning worker derives for its
        generation single-flight — computed here from a pure hash of
        the source texts, no parsing.
        """
        options = self._resolve_options(overrides)
        semantic = {key: getattr(options, key)
                    for key in REQUEST_OPTION_KEYS}
        return fingerprint(content_fingerprint_of_sources(list(sources)),
                           semantic, salt=SERVICE_GENERATE_SALT)

    def assign(self, sources, overrides: dict | None = None) -> str:
        """The healthy worker currently owning this request."""
        with self._lock:
            ring = self._healthy_ring
        return ring.assign(self.routing_key(sources, overrides))

    # -- health ----------------------------------------------------------

    @property
    def worker_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    def healthy_workers(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._healthy))

    def mark_down(self, name: str) -> None:
        """Exclude *name* from the ring (idempotent, deterministic)."""
        with self._lock:
            if name not in self._healthy:
                return
            self._healthy.discard(name)
            self._healthy_ring = self._ring.restrict(self._healthy)
            _WORKERS_DOWN.inc()
            _HEALTHY.set(len(self._healthy))

    def mark_up(self, name: str) -> None:
        """Re-admit *name* to the ring (idempotent)."""
        if name not in self._endpoints:
            raise KeyError(name)
        with self._lock:
            if name in self._healthy:
                return
            self._healthy.add(name)
            self._misses[name] = 0
            self._healthy_ring = self._ring.restrict(self._healthy)
            _WORKERS_UP.inc()
            _HEALTHY.set(len(self._healthy))

    def probe_once(self) -> dict[str, bool]:
        """One health sweep over every configured worker.

        A worker is marked down after ``failure_threshold``
        *consecutive* failed probes (a single dropped packet must not
        reshard traffic) and back up on the first success.
        """
        results: dict[str, bool] = {}
        for name, endpoint in self._endpoints.items():
            _PROBES.inc()
            ok = False
            try:
                with ServiceClient(endpoint.port, endpoint.host,
                                   timeout=self.probe_timeout) as client:
                    status, _, _ = client.request("GET", "/healthz")
                ok = status == 200
            except Exception:  # noqa: BLE001 - any transport failure
                ok = False
            results[name] = ok
            if ok:
                self._misses[name] = 0
                self.mark_up(name)  # idempotent when already healthy
            else:
                self._misses[name] += 1
                if self._misses[name] >= self.failure_threshold:
                    self.mark_down(name)
        return results

    def start_probes(self) -> None:
        if self._probe_thread is not None:
            return
        self._probe_stop.clear()

        def loop() -> None:
            while not self._probe_stop.wait(self.probe_interval):
                self.probe_once()

        self._probe_thread = threading.Thread(
            target=loop, name="router-probes", daemon=True)
        self._probe_thread.start()

    def stop_probes(self) -> None:
        if self._probe_thread is None:
            return
        self._probe_stop.set()
        self._probe_thread.join(timeout=5)
        self._probe_thread = None

    # -- dispatch --------------------------------------------------------

    def dispatch(self, sources, overrides: dict | None = None, *,
                 client_id: str | None = None,
                 raw_body: bytes | None = None,
                 content_type: str = "application/json"
                 ) -> tuple[int, dict[str, str], bytes, str]:
        """Route one generate request; returns
        ``(status, headers, payload, worker_name)``.

        The worker's response travels back verbatim (including typed
        admission errors — backpressure propagates to the caller, it
        is not the router's to absorb). Only *transport*-level
        failures fail over: a connection error or an injected crash at
        the ``router.dispatch`` site marks the worker down and retries
        on the next deterministic owner. With no healthy owner left
        (``no-workers``) or past ``dispatch_deadline``
        (``dispatch-deadline``) a typed retriable error surfaces
        instead.
        """
        _REQUESTS.inc()
        self.lifecycle.request_started()
        started = time.perf_counter()
        try:
            key = self.routing_key(sources, overrides)
            if raw_body is None:
                document: dict[str, object] = {"sources": list(sources)}
                if overrides:
                    document["options"] = overrides
                raw_body = json.dumps(document).encode("utf-8")
                content_type = "application/json"
            deadline = self._clock() + self.dispatch_deadline
            excluded: set[str] = set()
            attempts = 0
            while True:
                with self._lock:
                    ring = self._healthy_ring
                if excluded:
                    ring = ring.restrict(
                        set(ring.members) - excluded)
                try:
                    name = ring.assign(key)
                except RingEmpty:
                    raise RetriableServiceError(
                        503, "no-workers",
                        "no healthy worker owns this request",
                        retry_after=max(self.probe_interval, 0.1))
                if attempts and self._clock() >= deadline:
                    raise RetriableServiceError(
                        503, "dispatch-deadline",
                        f"failover exceeded the "
                        f"{self.dispatch_deadline}s dispatch deadline",
                        retry_after=max(self.probe_interval, 0.1))
                attempts += 1
                breaker = self._breakers[name]
                try:
                    # chaos site: an active fault plan can crash the
                    # forward mid-flight (failover) or declare the
                    # dispatch transiently unavailable (typed error)
                    fault_point("router.dispatch")
                    breaker.allow()
                    status, headers, payload = self._forward(
                        name, raw_body, content_type, client_id)
                except InjectedCrash:
                    self.mark_down(name)
                    excluded.add(name)
                    _FAILOVERS.inc()
                    continue
                except CircuitOpen:
                    excluded.add(name)
                    _FAILOVERS.inc()
                    continue
                except (ConnectionError, OSError):
                    breaker.record_failure()
                    self.mark_down(name)
                    excluded.add(name)
                    _FAILOVERS.inc()
                    continue
                breaker.record_success()
                _FORWARDED.inc()
                self._shard_counters[name].inc()
                seconds = time.perf_counter() - started
                _LATENCY.observe(seconds)
                record_span(f"router:dispatch:{name}", seconds,
                            status=status, attempts=attempts)
                _RESPONSES.inc()
                return status, headers, payload, name
        finally:
            self.lifecycle.request_finished()

    def _forward(self, name: str, body: bytes, content_type: str,
                 client_id: str | None
                 ) -> tuple[int, dict[str, str], bytes]:
        endpoint = self._endpoints[name]
        headers = {"Content-Type": content_type}
        if client_id:
            headers["X-Client-Id"] = client_id
        with ServiceClient(endpoint.port, endpoint.host,
                           timeout=self.worker_timeout) as client:
            return client.request("POST", "/v1/generate", body=body,
                                  headers=headers)

    # -- aggregation -----------------------------------------------------

    def _worker_json(self, name: str, path: str) -> dict | None:
        endpoint = self._endpoints[name]
        try:
            with ServiceClient(endpoint.port, endpoint.host,
                               timeout=self.probe_timeout) as client:
                status, _, body = client.request("GET", path)
            if status != 200:
                return None
            return json.loads(body)
        except (OSError, ValueError):
            return None

    def metrics_snapshot(self) -> dict[str, object]:
        """The fleet metrics view: worker registries summed, router
        instruments overlaid.

        Exact for process workers. In-process
        :class:`~repro.service.worker.LocalWorker` shards share one
        registry, so their per-worker snapshots overlap and the sum
        over-counts — use process workers when exactness matters.
        """
        snapshots = [snapshot for snapshot in
                     (self._worker_json(name, "/metrics")
                      for name in self.healthy_workers())
                     if snapshot is not None]
        merged = aggregate_snapshots(snapshots)
        for name, value in METRICS.snapshot().items():
            if name.startswith("router."):
                merged[name] = value
        return merged

    def cache_stats(self) -> dict[str, object]:
        """Per-worker cache stats plus the combined view.

        Process-local counters (hits/misses/evictions/corruption/
        io_errors) sum across workers; store-level facts (directory,
        entries, total_bytes, max_bytes) come from the first
        responding worker — with a shared ``--cache-dir`` every worker
        reports the same store, so summing those would double-count.
        """
        per_worker: dict[str, dict | None] = {
            name: self._worker_json(name, "/cache/stats")
            for name in self.worker_names}
        combined: dict[str, object] = {}
        for stats in per_worker.values():
            if not isinstance(stats, dict) or stats.get("cache") is None \
                    and "entries" not in stats:
                continue
            for key in ("hits", "misses", "evictions", "corruption",
                        "io_errors"):
                if key in stats:
                    combined[key] = combined.get(key, 0) + stats[key]
            for key in ("directory", "entries", "total_bytes",
                        "max_bytes"):
                if key in stats and key not in combined:
                    combined[key] = stats[key]
        return {"workers": per_worker, "combined": combined}

    def health(self) -> dict[str, object]:
        healthy = self.healthy_workers()
        return {
            "status": self.lifecycle.state,
            "active_requests": self.lifecycle.active,
            "workers": {name: name in healthy
                        for name in self.worker_names},
            "healthy_workers": len(healthy),
            "total_workers": len(self._endpoints),
            "vnodes": self.vnodes,
        }

    # -- shutdown --------------------------------------------------------

    def drain(self, deadline: float | None = None
              ) -> TopologyDrainReport:
        """Drain the topology: router first (stop accepting, finish
        in-flight forwards), then every worker."""
        self.stop_probes()
        router_report = self.lifecycle.drain(
            deadline if deadline is not None else 10.0)
        worker_reports: dict[str, DrainReport | None] = {}
        for name, worker in self._workers.items():
            drain = getattr(worker, "drain", None)
            if drain is None:  # a bare endpoint: nothing to manage
                worker_reports[name] = None
                continue
            try:
                worker_reports[name] = drain(deadline)
            except Exception:  # noqa: BLE001 - dead worker
                worker_reports[name] = None
        return TopologyDrainReport(router=router_report,
                                   workers=worker_reports)

    def close(self) -> None:
        self.stop_probes()


# -- HTTP front end ------------------------------------------------------


class RouterRequestHandler(BaseHTTPRequestHandler):
    """The router's HTTP face — same wire contract as a worker, plus
    ``X-Repro-Worker`` on responses and ``GET /workers``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-router/1"
    #: no delayed-ACK stall on small replies (see the worker handler)
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass

    @property
    def router(self) -> RouterService:
        return self.server.router  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        path = urlsplit(self.path).path
        if path == "/healthz":
            health = self.router.health()
            status = 200 if health["status"] == "serving" \
                and health["healthy_workers"] else 503
            self._send_json(status, health)
        elif path == "/metrics":
            self._send_json(200, self.router.metrics_snapshot())
        elif path == "/cache/stats":
            self._send_json(200, self.router.cache_stats())
        elif path == "/workers":
            health = self.router.health()
            self._send_json(200, {"workers": health["workers"]})
        else:
            self._send_error(404, "not-found", f"no route for {path}")

    def do_POST(self) -> None:
        path = urlsplit(self.path).path
        if path != "/v1/generate":
            self._send_error(404, "not-found", f"no route for {path}")
            return
        content_type = self.headers.get("Content-Type") \
            or "text/plain"
        try:
            body = read_request_body(self)
            sources, overrides = parse_generate_body(body, content_type)
        except BadRequest as exc:
            self._send_error(400, "bad-request", str(exc))
            return
        client_id = self.headers.get("X-Client-Id") \
            or self.client_address[0]
        try:
            status, headers, payload, worker = self.router.dispatch(
                sources, overrides, client_id=client_id,
                raw_body=body, content_type=content_type)
        except BadRequest as exc:
            self._send_error(400, "bad-request", str(exc))
        except RetriableServiceError as exc:
            self._send_error(exc.status, exc.code, str(exc),
                             retriable=True,
                             retry_after=exc.retry_after)
        except FaultInjected as exc:
            self._send_error(503, exc.code, str(exc), retriable=True,
                             retry_after=getattr(exc, "retry_after", 1))
        except AdmissionError as exc:
            self._send_error(_STATUS_BY_CODE.get(exc.code, 503),
                             exc.code, str(exc),
                             retriable=exc.retriable, retry_after=1)
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._send_error(500, "internal",
                             f"{type(exc).__name__}: {exc}")
        else:
            passthrough = {
                key: value for key, value in headers.items()
                if key.startswith("x-repro-") or key == "retry-after"}
            passthrough["X-Repro-Worker"] = worker
            self._send_bytes(
                status, payload,
                content_type=headers.get("content-type",
                                         "application/json"),
                extra_headers=passthrough)

    # -- responses -------------------------------------------------------

    def _send_bytes(self, status: int, payload: bytes, *,
                    content_type: str = "application/json",
                    extra_headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, document: object, *,
                   extra_headers: dict[str, str] | None = None) -> None:
        self._send_bytes(
            status, json.dumps(document, indent=2,
                               default=str).encode("utf-8"),
            extra_headers=extra_headers)

    def _send_error(self, status: int, code: str, message: str, *,
                    retriable: bool | None = None,
                    retry_after: float | None = None) -> None:
        _ERRORS.inc()
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(retry_after)
        self._send_json(status, {
            "error": {
                "code": code,
                "message": message,
                "retriable": bool(retriable) if retriable is not None
                else status in (429, 503),
            },
        }, extra_headers=headers)


class RouterHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`RouterService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], router: RouterService):
        super().__init__(address, RouterRequestHandler)
        self.router = router

    @property
    def port(self) -> int:
        return self.server_address[1]

    def drain_and_shutdown(self, deadline: float | None = None
                           ) -> TopologyDrainReport:
        """Drain the topology, then stop ``serve_forever``."""
        report = self.router.drain(deadline)
        self.shutdown()
        return report
