"""The configuration service end to end over real HTTP.

Covers the ISSUE acceptance criteria: single-flight collapse of
concurrent identical requests (proven via ``repro.obs`` counters with
a gated pipeline execution, so overlap is deterministic), backpressure
per policy, and graceful drain refusing new work while completing
admitted work.
"""

import json
import threading
import time

import pytest

from fixtures import EMCO_WORKCELL_SOURCE, raw_post

from repro.codegen import GenerationPipeline, PipelineOptions
from repro.fingerprint import SERVICE_GENERATE_SALT, fingerprint
from repro.obs import METRICS, snapshot_delta
from repro.service import (ConfigurationService, ServiceClient,
                           ServiceError, ServiceHTTPServer, bundle_bytes)
from repro.service import server as server_module
from repro.service.router import RouterRequestHandler
from repro.service.server import ServiceRequestHandler
from repro.sysml import load_model
from repro.sysml.errors import SysMLError
from repro.testkit import wait_until

SOURCES = [EMCO_WORKCELL_SOURCE]


class GatedExecute:
    """Replaces ``service._execute`` so tests control pipeline timing."""

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._original = service._execute
        service._execute = self

    def __call__(self, model, options, sources=None):
        self.entered.set()
        assert self.release.wait(10), "gate never released"
        return self._original(model, options, sources)


@pytest.fixture
def serve():
    """Factory starting a real ThreadingHTTPServer on an ephemeral port."""
    running = []

    def _start(options=None, **service_kwargs):
        service = ConfigurationService(
            options if options is not None else PipelineOptions(),
            **service_kwargs)
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        running.append((server, thread))
        return server, service

    yield _start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(2)


def generate_key(service):
    """The generation single-flight key the service derives for SOURCES."""
    model = load_model(*SOURCES)
    return fingerprint(model.content_fingerprint,
                       service._semantic(service.options),
                       salt=SERVICE_GENERATE_SALT)


class TestGenerateEndpoint:
    def test_bundle_matches_direct_pipeline_run(self, serve):
        server, service = serve()
        with ServiceClient(port=server.port) as client:
            status, headers, body = client.generate_raw(SOURCES)
        assert status == 200
        assert headers["x-repro-singleflight"] == "leader"
        model = load_model(*SOURCES)
        direct = GenerationPipeline(service.options).run_on_model(model)
        assert body == bundle_bytes(direct, model.content_fingerprint,
                                    service.options)
        bundle = json.loads(body)
        assert bundle["manifests"]
        assert bundle["summary"]["opcua_servers"] == 1

    def test_plain_text_body_is_one_source(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, body = client.request(
                "POST", "/v1/generate",
                body=EMCO_WORKCELL_SOURCE.encode(),
                headers={"Content-Type": "text/plain"})
        assert status == 200
        assert json.loads(body)["manifests"]

    def test_options_override_shapes_output(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            default = client.generate(SOURCES)
            other = client.generate(SOURCES,
                                    options={"namespace": "plant-b"})
        assert default["options"]["namespace"] == "factory"
        assert other["options"]["namespace"] == "plant-b"
        assert default["manifests"] != other["manifests"]
        assert "plant-b" in next(iter(other["manifests"].values()))

    def test_repeat_request_hits_memo_without_execution(self, serve):
        server, _ = serve()
        before = METRICS.snapshot()
        with ServiceClient(port=server.port) as client:
            _, first_headers, first_body = client.generate_raw(SOURCES)
            _, second_headers, second_body = client.generate_raw(SOURCES)
        delta = snapshot_delta(before, METRICS.snapshot())
        assert first_headers["x-repro-singleflight"] == "leader"
        assert second_headers["x-repro-singleflight"] == "memo"
        assert second_body == first_body
        assert delta["service.pipeline_executions"] == 1
        assert delta["service.requests"] == 2
        assert delta["service.memo_hits"] == 1

    def test_memo_keeps_payloads_compressed(self, serve):
        server, service = serve()
        with ServiceClient(port=server.port) as client:
            _, _, first = client.generate_raw(SOURCES)
            _, headers, again = client.generate_raw(SOURCES)
        assert headers["x-repro-singleflight"] == "memo"
        assert again == first
        (stored,) = service._memo.values()
        assert len(stored) * 3 < len(first)

    def test_invalid_model_maps_to_400(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as info:
                client.generate(["part broken : Nowhere;"])
        assert info.value.status == 400
        assert info.value.code == "invalid-model"
        assert not info.value.retriable

    def test_malformed_body_maps_to_400(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, body = client.request(
                "POST", "/v1/generate", body=b"{not json",
                headers={"Content-Type": "application/json"})
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad-request"
            with pytest.raises(ServiceError) as info:
                client.generate(SOURCES, options={"jobs": 4})
        assert info.value.status == 400  # execution knobs stay server-side

    def test_unknown_route_is_404(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, _ = client.request("GET", "/v2/nope")
        assert status == 404


class TestSingleFlightOverHTTP:
    def test_concurrent_identical_requests_execute_once(self, serve):
        """ISSUE acceptance: N identical in-flight POSTs, one execution."""
        count = 6
        server, service = serve(max_inflight=count, policy="block")
        gate = GatedExecute(service)
        before = METRICS.snapshot()
        key = generate_key(service)
        responses = {}

        def post(i):
            with ServiceClient(port=server.port) as client:
                responses[i] = client.generate_raw(SOURCES)

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        # the leader is inside the gate; wait for every other request
        # to park on the same generation flight, then release
        assert gate.entered.wait(10)
        assert wait_until(
            lambda: service._generate_flight.waiting(key) == count - 1)
        gate.release.set()
        for thread in threads:
            thread.join(10)

        delta = snapshot_delta(before, METRICS.snapshot())
        assert delta["service.requests"] == count
        assert delta["service.pipeline_executions"] == 1
        statuses = [status for status, _, _ in responses.values()]
        assert statuses == [200] * count
        bodies = {body for _, _, body in responses.values()}
        assert len(bodies) == 1  # byte-identical payload for everyone
        roles = sorted(headers["x-repro-singleflight"]
                       for _, headers, _ in responses.values())
        assert roles == ["follower"] * (count - 1) + ["leader"]
        # and the shared payload matches a direct pipeline run
        model = load_model(*SOURCES)
        direct = GenerationPipeline(service.options).run_on_model(model)
        assert bodies == {bundle_bytes(direct, model.content_fingerprint,
                                       service.options)}


class TestIncrementalServing:
    def test_reuse_counters_in_headers(self, serve):
        server, _ = serve()
        edited = [EMCO_WORKCELL_SOURCE.replace("10.197.12.11",
                                               "10.197.12.99")]
        with ServiceClient(port=server.port) as client:
            _, first_headers, _ = client.generate_raw(SOURCES)
            _, second_headers, second_body = client.generate_raw(edited)
        assert first_headers["x-repro-reused"] == "0"
        assert int(first_headers["x-repro-regenerated"]) > 0
        # one driver-IP edit: the warm engine reuses everything except
        # the touched machine, its workcell server and that manifest
        assert int(second_headers["x-repro-reused"]) > 0
        assert second_headers["x-repro-regenerated"] == "3"
        # and the incrementally served bytes match a cold pipeline run
        model = load_model(*edited)
        direct = GenerationPipeline(PipelineOptions()).run_on_model(model)
        assert second_body == bundle_bytes(direct, model.content_fingerprint,
                                           PipelineOptions())

    def test_memo_hit_has_no_reuse_headers(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            client.generate_raw(SOURCES)
            _, headers, _ = client.generate_raw(SOURCES)
        assert headers["x-repro-singleflight"] == "memo"
        assert "x-repro-reused" not in headers

    def test_incremental_off_serves_identical_bytes(self, serve):
        server, _ = serve(PipelineOptions(incremental=False))
        with ServiceClient(port=server.port) as client:
            _, headers, body = client.generate_raw(SOURCES)
        assert "x-repro-reused" not in headers
        model = load_model(*SOURCES)
        direct = GenerationPipeline(
            PipelineOptions(incremental=False)).run_on_model(model)
        assert body == bundle_bytes(direct, model.content_fingerprint,
                                    PipelineOptions(incremental=False))


def direct_bytes(sources, options=None):
    options = options if options is not None else PipelineOptions()
    model = load_model(*sources)
    result = GenerationPipeline(options).run_on_model(model)
    return bundle_bytes(result, model.content_fingerprint, options)


def cold_load_error(sources) -> dict:
    """The error body a request for *sources* got when the service
    parsed with ``load_model`` before executing."""
    with pytest.raises(SysMLError) as info:
        load_model(*sources)
    return {"error": {"code": "invalid-model", "message": str(info.value),
                      "retriable": False}}


class TestServedEditsParseOnce:
    EDITED = [EMCO_WORKCELL_SOURCE.replace("10.197.12.11", "10.197.12.77")]
    #: merges fine, then fails to resolve (the session had merged it in)
    UNRESOLVED = [EMCO_WORKCELL_SOURCE + "\npart broken : Nowhere9;\n"]
    #: fails to parse (nothing merged)
    UNPARSABLE = [EMCO_WORKCELL_SOURCE + "\npackage {\n"]

    def test_incremental_requests_never_call_load_model(self, serve,
                                                        monkeypatch):
        calls = []

        def counting_load(*args, **kwargs):
            calls.append(args)
            return load_model(*args, **kwargs)

        monkeypatch.setattr(server_module, "load_model", counting_load)
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            cold = client.generate_raw(SOURCES)
            edit = client.generate_raw(self.EDITED)
        assert calls == []
        assert cold[0] == edit[0] == 200
        assert cold[2] == direct_bytes(SOURCES)
        assert edit[2] == direct_bytes(self.EDITED)

    @pytest.mark.parametrize("broken", ["UNRESOLVED", "UNPARSABLE"])
    def test_broken_sources_keep_their_error_and_the_engine_recovers(
            self, serve, broken):
        broken = getattr(self, broken)
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            # with no session yet, then against a warm one
            for warm in (False, True):
                if warm:
                    assert client.generate_raw(SOURCES)[0] == 200
                status, _, body = client.generate_raw(broken)
                assert status == 400
                assert json.loads(body) == cold_load_error(broken)
            # the next valid edit is served as if the broken one never
            # happened
            status, headers, body = client.generate_raw(self.EDITED)
        assert status == 200
        assert body == direct_bytes(self.EDITED)


class TestRequestBodyValidation:
    @pytest.mark.parametrize("declared", ["abc", "-1", "1.5", "-0x10"])
    def test_invalid_content_length_is_a_400(self, serve, declared):
        server, _ = serve()
        status, body = raw_post(server.port, declared, b"part x;")
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "bad-request"
        assert "Content-Length" in error["message"]
        # the handler thread is free and the server keeps serving
        with ServiceClient(port=server.port) as client:
            assert client.generate_raw(SOURCES)[0] == 200


def test_handlers_disable_nagle():
    """Small replies must not wait ~40 ms on the peer's delayed ACK."""
    assert ServiceRequestHandler.disable_nagle_algorithm is True
    assert RouterRequestHandler.disable_nagle_algorithm is True


class TestBackpressureOverHTTP:
    def test_reject_policy_returns_retriable_503_immediately(self, serve):
        server, service = serve(max_inflight=1, policy="reject",
                                memo_entries=0)
        gate = GatedExecute(service)
        holder = threading.Thread(
            target=lambda: ServiceClient(
                port=server.port).generate_raw(SOURCES))
        holder.start()
        assert gate.entered.wait(10)
        with ServiceClient(port=server.port) as client:
            started = time.perf_counter()
            status, headers, body = client.generate_raw(SOURCES)
            elapsed = time.perf_counter() - started
        assert status == 503
        assert elapsed < 1.0
        error = json.loads(body)["error"]
        assert error["code"] == "rejected"
        assert error["retriable"] is True
        assert headers["retry-after"] == "1"
        gate.release.set()
        holder.join(10)

    def test_block_policy_admits_when_slot_frees(self, serve):
        server, service = serve(max_inflight=1, policy="block",
                                block_deadline=10.0, memo_entries=0)
        gate = GatedExecute(service)
        results = {}

        def post(i):
            with ServiceClient(port=server.port) as client:
                results[i] = client.generate_raw(SOURCES)

        holder = threading.Thread(target=post, args=(0,))
        holder.start()
        assert gate.entered.wait(10)
        # distinct options -> distinct flight, so it genuinely queues
        with ServiceClient(port=server.port) as client:
            queued = threading.Thread(
                target=lambda: results.setdefault(
                    1, client.generate_raw(
                        SOURCES, options={"namespace": "queued"})))
            queued.start()
            assert wait_until(lambda: service.admission.queued == 1)
            gate.release.set()
            queued.join(10)
        holder.join(10)
        assert results[0][0] == 200
        assert results[1][0] == 200

    def test_block_policy_honors_deadline(self, serve):
        server, service = serve(max_inflight=1, policy="block",
                                block_deadline=0.2, memo_entries=0)
        gate = GatedExecute(service)
        holder = threading.Thread(
            target=lambda: ServiceClient(
                port=server.port).generate_raw(SOURCES))
        holder.start()
        assert gate.entered.wait(10)
        with ServiceClient(port=server.port) as client:
            started = time.perf_counter()
            status, _, body = client.generate_raw(
                SOURCES, options={"namespace": "late"})
            elapsed = time.perf_counter() - started
        assert status == 503
        assert json.loads(body)["error"]["code"] == "deadline-exceeded"
        assert 0.15 <= elapsed < 5.0
        gate.release.set()
        holder.join(10)

    def test_rate_limit_returns_429(self, serve):
        server, _ = serve(rate=0.001, burst=1.0)
        with ServiceClient(port=server.port,
                           client_id="chatty") as client:
            first, _, _ = client.generate_raw(SOURCES)
            second, headers, body = client.generate_raw(SOURCES)
        assert first == 200
        assert second == 429
        error = json.loads(body)["error"]
        assert error["code"] == "rate-limited"
        assert error["retriable"] is True
        assert headers["retry-after"] == "1"


class TestIntrospectionEndpoints:
    def test_healthz_while_serving(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, body = client.request("GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "serving"
        assert health["max_inflight"] == 8

    def test_metrics_exports_registry(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            client.generate(SOURCES)
            metrics = client.metrics()
        assert metrics["service.requests"] >= 1
        assert "cache.hits" in metrics
        assert metrics["service.request_seconds"]["count"] >= 1

    def test_cache_stats_with_and_without_cache(self, serve, tmp_path):
        plain_server, _ = serve()
        with ServiceClient(port=plain_server.port) as client:
            assert client.cache_stats() == {"cache": None}
        cached_server, _ = serve(
            options=PipelineOptions(cache_dir=str(tmp_path / "cache")))
        with ServiceClient(port=cached_server.port) as client:
            client.generate(SOURCES)
            stats = client.cache_stats()
        assert stats["entries"] > 0
        assert str(tmp_path / "cache") in stats["directory"]


class TestGracefulDrain:
    def test_drain_completes_inflight_and_refuses_new(self, serve):
        server, service = serve(max_inflight=4, policy="block",
                                memo_entries=0)
        gate = GatedExecute(service)
        inflight_result = {}

        def post():
            with ServiceClient(port=server.port) as client:
                inflight_result["response"] = client.generate_raw(SOURCES)

        worker = threading.Thread(target=post)
        worker.start()
        assert gate.entered.wait(10)

        drain_box = {}
        drainer = threading.Thread(
            target=lambda: drain_box.setdefault(
                "report", service.drain(deadline=10.0)))
        drainer.start()
        assert wait_until(lambda: not service.lifecycle.serving)

        with ServiceClient(port=server.port) as client:
            status, _, body = client.generate_raw(SOURCES)
            assert status == 503
            assert json.loads(body)["error"]["code"] == "draining"
            health_status, _, health_body = client.request(
                "GET", "/healthz")
        assert health_status == 503
        assert json.loads(health_body)["status"] == "draining"

        gate.release.set()
        worker.join(10)
        drainer.join(10)
        report = drain_box["report"]
        assert report.completed
        assert report.remaining == 0
        assert inflight_result["response"][0] == 200  # admitted work done
        assert service.final_metrics is not None  # flush hook ran

    def test_drain_deadline_reports_unfinished_work(self, serve):
        server, service = serve(memo_entries=0)
        gate = GatedExecute(service)
        worker = threading.Thread(
            target=lambda: ServiceClient(
                port=server.port).generate_raw(SOURCES))
        worker.start()
        assert gate.entered.wait(10)
        report = service.drain(deadline=0.1)
        assert not report.completed
        assert report.remaining == 1
        gate.release.set()
        worker.join(10)
