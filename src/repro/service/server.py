"""The configuration-serving core and its HTTP front end.

:class:`ConfigurationService` turns the one-shot generation pipeline
into a long-running concurrent service. Each request travels::

    rate limit -> lifecycle admit -> result memo -> admission slot
        -> parse single-flight -> generation single-flight -> memo put

* the **rate limiter** charges the caller's token bucket;
* the **lifecycle** refuses requests once draining has begun;
* the **result memo** is a small in-memory LRU of finished response
  payloads — a repeat of a recently served request costs no pipeline
  slot at all. Payloads are kept zlib-compressed: bundles are JSON and
  shrink ~13×, so a full memo of ICE-lab bundles (~680 KB each) holds
  ~3 MB instead of ~45 MB, for ~1.5 ms of decompression per hit;
* the **admission controller** bounds how many requests occupy the
  pipeline concurrently (policy: reject / block / shed-oldest);
* the **parse single-flight** coalesces concurrent parses of the same
  sources; the **generation single-flight** coalesces concurrent
  pipeline runs keyed on ``Model.content_fingerprint`` plus the
  semantic options, so N identical in-flight requests execute the
  pipeline exactly once and share one byte-identical payload.

When ``PipelineOptions.incremental`` is on (the default), the leader
executes through a warm per-option-set :class:`IncrementalEngine`
instead of a cold pipeline run: an edited source set regenerates only
the artifacts whose model subtree actually changed, and the response
reports the split via ``X-Repro-Reused`` / ``X-Repro-Regenerated``
headers. The payload itself stays deterministic — provenance travels
in headers, never in the bundle. The engine's model session is then
the only parser: the generation single-flight is keyed on
:func:`~repro.sysml.content_fingerprint_of_sources` (the parse-free
key the sharded router routes on), and the parse single-flight is not
used.

:class:`ServiceHTTPServer` (a stdlib ``ThreadingHTTPServer``) exposes
the service as::

    POST /v1/generate   SysML source in, manifest bundle out
    GET  /healthz       lifecycle state (503 while draining/stopped)
    GET  /metrics       the full repro.obs registry snapshot
    GET  /cache/stats   artifact-cache statistics

Response payloads are *deterministic*: the bundle carries manifests,
intermediate configs and count-only summary data but no wall-clock
timings, so every caller of an identical request — coalesced or not —
receives byte-identical bytes (timings travel in response headers).
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ..codegen.incremental import IncrementalEngine
from ..codegen.options import PipelineOptions
from ..codegen.pipeline import GenerationPipeline, GenerationResult
from ..faults import FaultInjected, fault_point
from ..fingerprint import (SERVICE_GENERATE_SALT, SERVICE_MEMO_SALT,
                           SERVICE_PARSE_SALT, fingerprint)
from ..obs import METRICS, snapshot_delta
from ..sysml import content_fingerprint_of_sources, load_model
from ..sysml.errors import SysMLError
from .admission import (AdmissionController, AdmissionError, POLICY_REJECT,
                        RateLimiter)
from .lifecycle import ServiceLifecycle
from .singleflight import SingleFlight

_REQUESTS = METRICS.counter("service.requests")
_RESPONSES = METRICS.counter("service.responses")
_ERRORS = METRICS.counter("service.errors")
_EXECUTIONS = METRICS.counter("service.pipeline_executions")
_MEMO_HITS = METRICS.counter("service.memo_hits")
_LATENCY = METRICS.histogram("service.request_seconds")

#: How many per-option-set incremental engines the service keeps warm.
#: Each engine holds one parsed model session, so this bounds memory.
MAX_ENGINES = 4

#: Keys of ``options`` overrides a request may carry — exactly the
#: output-shaping knobs; execution knobs (jobs/cache) stay server-side.
REQUEST_OPTION_KEYS = ("capacity", "namespace", "broker_url",
                      "database_url", "validate")


class BadRequest(Exception):
    """A malformed request body or unknown option (HTTP 400)."""


def read_request_body(handler: BaseHTTPRequestHandler) -> bytes:
    """Read a request body of the declared ``Content-Length``.

    Shared by the worker and router front ends. A length that is not a
    non-negative integer raises :class:`BadRequest` before anything is
    read — ``rfile.read(-1)`` would block until the client closes, and
    a non-numeric header must not drop the connection. The body of such
    a request cannot be delimited, so the connection is closed after
    the error reply.
    """
    declared = handler.headers.get("Content-Length") or "0"
    try:
        length = int(declared)
    except ValueError:
        length = -1
    if length < 0:
        handler.close_connection = True
        raise BadRequest(f"invalid Content-Length: {declared!r}")
    return handler.rfile.read(length)


def parse_generate_body(body: bytes, content_type: str | None
                        ) -> tuple[list[str], dict | None]:
    """Decode one ``POST /v1/generate`` body into ``(sources, overrides)``.

    Shared by the worker-facing handler here and the sharded router's
    front-end handler (:mod:`repro.service.router`) so both tiers accept
    exactly the same wire format: a JSON object carrying ``sources``
    (or a single ``source``) plus optional ``options``, or a plain-text
    body treated as one SysML document. Raises :class:`BadRequest`.
    """
    media = (content_type or "").split(";")[0].strip().lower()
    if media != "application/json":
        source = body.decode("utf-8", errors="replace")
        if not source.strip():
            raise BadRequest("empty request body")
        return [source], None
    try:
        document = json.loads(body)
    except ValueError as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from exc
    if not isinstance(document, dict):
        raise BadRequest("JSON body must be an object")
    sources = document.get("sources")
    if sources is None and "source" in document:
        sources = [document["source"]]
    if not isinstance(sources, list) or not sources \
            or not all(isinstance(s, str) for s in sources):
        raise BadRequest(
            "body must carry 'sources': [str, ...] (or 'source')")
    overrides = document.get("options")
    if overrides is not None and not isinstance(overrides, dict):
        raise BadRequest("'options' must be an object")
    return sources, overrides


def bundle_from_result(result: GenerationResult, model_fingerprint: str,
                       options: PipelineOptions) -> dict[str, object]:
    """The deterministic manifest bundle for one generation result.

    Deliberately excludes timings so coalesced followers, memo hits and
    fresh executions of the same request all serialize identically.
    """
    return {
        "fingerprint": model_fingerprint,
        "options": {key: getattr(options, key)
                    for key in REQUEST_OPTION_KEYS},
        "summary": {
            "opcua_servers": result.opcua_server_count,
            "opcua_clients": result.opcua_client_count,
            "config_size_kb": round(result.config_size_kb, 1),
            "machines": len(result.machine_configs),
            "manifest_files": len(result.manifests),
        },
        "manifests": result.manifests,
        "intermediate": {
            "machine_configs": result.machine_configs,
            "server_configs": result.server_configs,
            "client_configs": result.client_configs,
            "storage_configs": result.storage_configs,
        },
    }


def bundle_bytes(result: GenerationResult, model_fingerprint: str,
                 options: PipelineOptions) -> bytes:
    return json.dumps(bundle_from_result(result, model_fingerprint,
                                         options),
                      indent=2).encode("utf-8")


class ConfigurationService:
    """Thread-safe serving facade over the generation pipeline."""

    def __init__(self, options: PipelineOptions | None = None, *,
                 max_inflight: int = 8, policy: str = POLICY_REJECT,
                 block_deadline: float = 10.0, max_queue: int | None = None,
                 rate: float = 0.0, burst: float | None = None,
                 memo_entries: int = 64, drain_deadline: float = 10.0):
        base = options if options is not None else PipelineOptions()
        if base.tracer is not None:
            # a Tracer's span stack is single-threaded; concurrent runs
            # sharing one would interleave, so the service drops it
            base = base.replace(tracer=None)
        self.options = base
        self.pipeline = GenerationPipeline(base)
        self.admission = AdmissionController(
            max_inflight, policy=policy, block_deadline=block_deadline,
            max_queue=max_queue)
        self.limiter = RateLimiter(rate, burst)
        self.lifecycle = ServiceLifecycle()
        self.drain_deadline = drain_deadline
        self.started_monotonic = time.monotonic()
        self._parse_flight = SingleFlight()
        self._generate_flight = SingleFlight()
        self._memo: OrderedDict[str, bytes] = OrderedDict()
        self._memo_entries = memo_entries
        self._memo_lock = threading.Lock()
        #: Warm incremental engines, one per semantic-options set.
        #: Each slot pairs the engine with its own lock: a ModelSession
        #: mutates state on update, so runs against one engine must be
        #: serialized even when the sources (and thus the generation
        #: single-flight keys) differ.
        self._engines: OrderedDict[
            str, tuple[IncrementalEngine, threading.Lock]] = OrderedDict()
        self._engines_lock = threading.Lock()
        #: Captured by the drain's flush hook — the service's final
        #: telemetry, available after shutdown for reporting.
        self.final_metrics: dict[str, object] | None = None
        self.lifecycle.register_flush(self._flush_metrics)

    # -- request path ----------------------------------------------------

    def generate(self, sources, overrides: dict | None = None,
                 client: str = "anon") -> tuple[bytes, dict[str, object]]:
        """Serve one configuration request.

        *sources* is a list of SysML textual-notation documents;
        *overrides* optionally adjusts the semantic pipeline options
        for this request. Returns ``(payload, info)`` where *payload*
        is the serialized manifest bundle and *info* carries
        per-request facts (single-flight role, wall seconds, metric
        delta) that must NOT leak into the deterministic payload.
        """
        _REQUESTS.inc()
        # chaos site: an active fault plan can declare this request
        # transiently unavailable (typed, retriable, Retry-After hint)
        fault_point("service.generate")
        self.limiter.check(client)
        self.lifecycle.request_started()
        started = time.perf_counter()
        before = METRICS.snapshot()
        try:
            options = self._resolve_options(overrides)
            memo_key = fingerprint(list(sources),
                                   self._semantic(options),
                                   salt=SERVICE_MEMO_SALT)
            payload = self._memo_get(memo_key)
            counts = None
            if payload is not None:
                _MEMO_HITS.inc()
                role = "memo"
            else:
                with self.admission.slot():
                    if options.incremental:
                        # the engine's session parses; key parse-free
                        model = None
                        content = content_fingerprint_of_sources(
                            list(sources))
                    else:
                        model = self._load(sources)
                        content = model.content_fingerprint
                    generate_key = fingerprint(
                        content, self._semantic(options),
                        salt=SERVICE_GENERATE_SALT)
                    (payload, counts), leader = self._generate_flight.do(
                        generate_key,
                        lambda: self._execute(model, options,
                                              list(sources)))
                    role = "leader" if leader else "follower"
                self._memo_put(memo_key, payload)
            seconds = time.perf_counter() - started
            _LATENCY.observe(seconds)
            _RESPONSES.inc()
            info: dict[str, object] = {
                "singleflight": role,
                "seconds": seconds,
                "metrics_delta": snapshot_delta(before,
                                                METRICS.snapshot()),
            }
            if counts is not None:
                info["reused"], info["regenerated"] = counts
            return payload, info
        finally:
            self.lifecycle.request_finished()

    def _resolve_options(self, overrides: dict | None) -> PipelineOptions:
        if not overrides:
            return self.options
        unknown = set(overrides) - set(REQUEST_OPTION_KEYS)
        if unknown:
            raise BadRequest(
                f"unknown option(s): {', '.join(sorted(unknown))}; "
                f"requests may set {', '.join(REQUEST_OPTION_KEYS)}")
        return self.options.replace(**overrides)

    def _semantic(self, options: PipelineOptions) -> dict[str, object]:
        return {key: getattr(options, key)
                for key in REQUEST_OPTION_KEYS}

    def _load(self, sources):
        """Parse + resolve, coalescing concurrent identical parses.

        The shared :class:`~repro.sysml.elements.Model` is read-only
        after resolution, so handing one instance to several request
        threads is safe.
        """
        key = fingerprint(list(sources), salt=SERVICE_PARSE_SALT)
        model, _ = self._parse_flight.do(
            key, lambda: load_model(*sources, cache=self.pipeline.cache))
        return model

    def _engine_slot(self, options: PipelineOptions):
        """The warm incremental engine for one semantic-options set.

        A small LRU: each engine carries a full model session, so a
        service seeing many distinct option sets cycles the oldest
        out rather than accumulating sessions without bound.
        """
        key = fingerprint(self._semantic(options),
                          salt=SERVICE_GENERATE_SALT)
        with self._engines_lock:
            slot = self._engines.get(key)
            if slot is None:
                slot = (IncrementalEngine(options), threading.Lock())
                self._engines[key] = slot
                while len(self._engines) > MAX_ENGINES:
                    self._engines.popitem(last=False)
            else:
                self._engines.move_to_end(key)
            return slot

    def _execute(self, model, options: PipelineOptions,
                 sources: list[str] | None = None
                 ) -> tuple[bytes, tuple[int, int] | None]:
        """One real pipeline execution (the single-flight leader path).

        With ``options.incremental`` the warm engine loads *sources*
        itself and *model* is ``None``; otherwise *model* is the loaded
        model. Returns ``(payload, counts)`` where *counts* is the
        ``(reused, regenerated)`` artifact provenance pair when the
        incremental engine served the request, else ``None``. The
        whole tuple is the single-flight value, so coalesced
        followers see the leader's reuse counts too.
        """
        _EXECUTIONS.inc()
        if options.incremental:
            engine, lock = self._engine_slot(options)
            with lock:
                result = engine.generate(*sources)
                content = engine.session.model.content_fingerprint
            states = list(result.provenance.values())
            counts = (states.count("reused"), states.count("regenerated"))
            return bundle_bytes(result, content, options), counts
        pipeline = self.pipeline if options is self.options \
            else GenerationPipeline(options)
        result = pipeline.run_on_model(model)
        return (bundle_bytes(result, model.content_fingerprint, options),
                None)

    # -- result memo -----------------------------------------------------

    def _memo_get(self, key: str) -> bytes | None:
        if not self._memo_entries:
            return None
        with self._memo_lock:
            packed = self._memo.get(key)
            if packed is not None:
                self._memo.move_to_end(key)
        return zlib.decompress(packed) if packed is not None else None

    def _memo_put(self, key: str, payload: bytes) -> None:
        if not self._memo_entries:
            return
        packed = zlib.compress(payload, 1)
        with self._memo_lock:
            self._memo[key] = packed
            self._memo.move_to_end(key)
            while len(self._memo) > self._memo_entries:
                self._memo.popitem(last=False)

    # -- introspection ---------------------------------------------------

    def health(self) -> dict[str, object]:
        return {
            "status": self.lifecycle.state,
            "active_requests": self.lifecycle.active,
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "policy": self.admission.policy,
            "max_inflight": self.admission.max_inflight,
            "uptime_seconds": round(
                time.monotonic() - self.started_monotonic, 3),
        }

    def cache_stats(self) -> dict[str, object] | None:
        cache = self.pipeline.cache
        return cache.stats() if cache is not None else None

    # -- shutdown --------------------------------------------------------

    def drain(self, deadline: float | None = None):
        """Graceful drain (see :mod:`repro.service.lifecycle`)."""
        effective = deadline if deadline is not None \
            else self.drain_deadline
        return self.lifecycle.drain(effective)

    def _flush_metrics(self) -> None:
        self.final_metrics = METRICS.snapshot()


# -- HTTP front end ------------------------------------------------------

#: HTTP status per admission error code; everything here is retriable.
_STATUS_BY_CODE = {
    "rate-limited": 429,
    "rejected": 503,
    "shed": 503,
    "deadline-exceeded": 503,
    "draining": 503,
}


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the service object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"
    #: send small replies at once instead of waiting ~40 ms for the
    #: client's delayed ACK (Nagle's algorithm)
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # request logging is the metrics registry's job

    @property
    def service(self) -> ConfigurationService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:
        path = urlsplit(self.path).path
        if path == "/healthz":
            health = self.service.health()
            status = 200 if health["status"] == "serving" else 503
            self._send_json(status, health)
        elif path == "/metrics":
            self._send_json(200, METRICS.snapshot())
        elif path == "/cache/stats":
            stats = self.service.cache_stats()
            self._send_json(200, stats if stats is not None
                            else {"cache": None})
        else:
            self._send_error(404, "not-found", f"no route for {path}")

    def do_POST(self) -> None:
        path = urlsplit(self.path).path
        if path != "/v1/generate":
            self._send_error(404, "not-found", f"no route for {path}")
            return
        try:
            sources, overrides = self._parse_request_body()
        except BadRequest as exc:
            self._send_error(400, "bad-request", str(exc))
            return
        client = self.headers.get("X-Client-Id") \
            or self.client_address[0]
        try:
            # chaos site: latency or injected 503s at the HTTP boundary
            fault_point("service.request")
            payload, info = self.service.generate(sources, overrides,
                                                  client=client)
        except FaultInjected as exc:
            self._send_error(503, exc.code, str(exc), retriable=True,
                             retry_after=getattr(exc, "retry_after", 1))
        except AdmissionError as exc:
            status = _STATUS_BY_CODE.get(exc.code, 503)
            self._send_error(status, exc.code, str(exc),
                             retriable=exc.retriable, retry_after=1)
        except BadRequest as exc:
            self._send_error(400, "bad-request", str(exc))
        except SysMLError as exc:
            self._send_error(400, "invalid-model", str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._send_error(500, "internal", f"{type(exc).__name__}: "
                                              f"{exc}")
        else:
            headers = {
                "X-Repro-Singleflight": str(info["singleflight"]),
                "X-Repro-Seconds": f"{info['seconds']:.6f}",
            }
            if "reused" in info:
                headers["X-Repro-Reused"] = str(info["reused"])
                headers["X-Repro-Regenerated"] = str(info["regenerated"])
            self._send_bytes(200, payload, extra_headers=headers)

    def _parse_request_body(self) -> tuple[list[str], dict | None]:
        body = read_request_body(self)
        return parse_generate_body(body, self.headers.get("Content-Type"))

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


class ServiceHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`ConfigurationService`.

    Pass port ``0`` to bind an ephemeral port; read it back from
    :attr:`port`. ``daemon_threads`` keeps stuck keep-alive connections
    from blocking interpreter exit after a drain.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 service: ConfigurationService):
        super().__init__(address, ServiceRequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def drain_and_shutdown(self, deadline: float | None = None):
        """Graceful stop: drain the service, then stop serve_forever.

        Returns the :class:`~repro.service.lifecycle.DrainReport`.
        Callable from any thread except the one inside
        ``serve_forever`` (the usual signal-handler arrangement).
        """
        report = self.service.drain(deadline)
        self.shutdown()
        return report
