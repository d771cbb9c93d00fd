"""Tests of the sweep-as-a-service HTTP API (:mod:`repro.serve`).

The HTTP tests run a real asyncio server on an ephemeral loopback port
(:class:`~repro.serve.ServerThread`) and drive it with stdlib
``http.client``/``urllib`` -- the same wire path production clients use.
A cheap closed-form evaluator keeps each sweep sub-millisecond while
counting its invocations, so the served-from-store assertions can prove
the evaluator was *not* called.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.results import Evaluation
from repro.core.telemetry import Telemetry
from repro.power.technology import DesignPoint
from repro.serve import (
    DEFAULT_PAGE_LIMIT,
    ServerThread,
    SubmissionError,
    SweepService,
    default_resolver,
    if_none_match_hits,
)
from repro.store import ResultStore


class CountingEvaluator:
    """Closed-form evaluator: power = n_bits, snr = 50 - n_bits."""

    def __init__(self, fail_bits=()):
        self.calls = 0
        self.fail_bits = set(fail_bits)
        self.gate = threading.Event()
        self.gate.set()

    def fingerprint(self):
        return "counting-v1"

    def evaluate(self, point):
        self.gate.wait(timeout=10)
        self.calls += 1
        if point.n_bits in self.fail_bits:
            raise ValueError(f"injected failure at {point.n_bits} bits")
        return Evaluation(
            point=point,
            metrics={"power_uw": float(point.n_bits), "snr_db": 50.0 - point.n_bits},
            breakdown={"adc": float(point.n_bits)},
        )

    __call__ = evaluate


@pytest.fixture
def service(tmp_path):
    """A SweepService over a fresh store with the counting evaluator."""
    evaluator = CountingEvaluator()
    points = [DesignPoint(n_bits=b) for b in (6, 7, 8, 9)]

    def resolver(payload):
        if not isinstance(payload, dict):
            raise SubmissionError("body must be an object")
        name = payload.get("name", "demo")
        if payload.get("explode"):
            raise SubmissionError("injected submission error")
        return name, evaluator, list(points), {}

    svc = SweepService(
        ResultStore(tmp_path / "store"), resolver=resolver, telemetry=Telemetry()
    )
    svc.evaluator = evaluator  # test handle
    svc.points = points
    return svc


def wait_done(service, name, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = service.jobs.get(name)
        if job is not None and job.status != "running":
            return job
        time.sleep(0.01)
    raise AssertionError(f"sweep {name} did not settle within {timeout}s")


class Client:
    """Tiny keep-alive HTTP client over one connection."""

    def __init__(self, server: ServerThread):
        self.conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)

    def request(self, method, path, body=None, headers=None):
        payload = json.dumps(body).encode() if body is not None else None
        self.conn.request(method, path, body=payload, headers=headers or {})
        response = self.conn.getresponse()
        raw = response.read()
        data = json.loads(raw) if raw else None
        return response, data

    def close(self):
        self.conn.close()


@pytest.fixture
def server(service):
    with ServerThread(service) as srv:
        yield srv


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


class TestServiceSubmission:
    def test_submit_runs_and_stores(self, service):
        job, accepted = service.submit({"name": "run1"})
        assert accepted
        job = wait_done(service, "run1")
        assert job.status == "done"
        assert job.digest
        assert not job.from_store
        assert len(service.store.load_result("run1")) == 4

    def test_resubmit_served_from_store_without_evaluator(self, service):
        service.submit({"name": "run1"})
        wait_done(service, "run1")
        calls_before = service.evaluator.calls
        job, accepted = service.submit({"name": "run1"})
        assert accepted
        assert job.status == "done"
        assert job.from_store
        assert service.evaluator.calls == calls_before
        assert service.telemetry.counters.get("serve.store_hits") == 1

    def test_duplicate_running_submission_not_raced(self, service):
        service.evaluator.gate.clear()  # hold the first sweep mid-flight
        try:
            _, first_accepted = service.submit({"name": "slow"})
            job, accepted = service.submit({"name": "slow"})
            assert first_accepted and not accepted
            assert job.status == "running"
        finally:
            service.evaluator.gate.set()
        wait_done(service, "slow")

    def test_failed_sweep_settles_as_failed(self, tmp_path):
        def resolver(payload):
            return "bad", BrokenEvaluator(), [DesignPoint(n_bits=6)], {}

        class BrokenEvaluator:
            def fingerprint(self):
                return "broken-v1"

            def evaluate(self, point):
                raise RuntimeError("evaluator exploded")

            __call__ = evaluate

        svc = SweepService(
            ResultStore(tmp_path / "s"), resolver=resolver, telemetry=Telemetry()
        )
        job, _ = svc.submit({})
        job = wait_done(svc, "bad")
        # Non-strict explore records the failure as a failed evaluation;
        # the sweep itself still completes and is stored with n_failures.
        assert job.status == "done"
        manifest = svc.store.get_sweep("bad")
        assert manifest.n_failures == 1

    def test_invalid_name_rejected(self, service):
        with pytest.raises(ValueError):
            service.submit({"name": "../escape"})


class TestDefaultResolver:
    def test_unknown_scale_rejected(self):
        with pytest.raises(SubmissionError, match="scale"):
            default_resolver({"scale": "bogus"})

    def test_non_object_rejected(self):
        with pytest.raises(SubmissionError, match="object"):
            default_resolver([1, 2])

    def test_bad_workers_rejected(self):
        for workers in (0, True):
            with pytest.raises(SubmissionError, match="workers"):
                default_resolver({"scale": "smoke", "workers": workers})

    def test_bad_executor_rejected(self):
        for executor in ("quantum", "batched"):
            with pytest.raises(SubmissionError, match="executor"):
                default_resolver({"scale": "smoke", "executor": executor})

    def test_smoke_scale_resolves(self):
        name, evaluator, points, kwargs = default_resolver({"scale": "smoke"})
        assert name == "fig7-smoke"
        assert callable(evaluator)
        assert len(points) > 0
        assert kwargs["executor"] == "serial"


class TestIfNoneMatch:
    def test_exact_match(self):
        assert if_none_match_hits('"abc"', '"abc"')

    def test_weak_prefix(self):
        assert if_none_match_hits('W/"abc"', '"abc"')

    def test_list(self):
        assert if_none_match_hits('"x", "abc" , "y"', '"abc"')

    def test_wildcard(self):
        assert if_none_match_hits("*", '"anything"')

    def test_miss(self):
        assert not if_none_match_hits('"other"', '"abc"')
        assert not if_none_match_hits(None, '"abc"')


class TestHttpEndToEnd:
    """The acceptance path: submit over HTTP -> stream progress -> query
    Pareto -> revalidate with If-None-Match -> resubmit from store."""

    def test_healthz(self, client):
        response, data = client.request("GET", "/healthz")
        assert response.status == 200
        assert data["ok"] is True
        assert data["draining"] is False
        assert data["uptime_s"] >= 0
        assert set(data["sweeps"]) == {"running", "done", "failed"}
        assert set(data["store"]) == {"sweeps", "cached_evaluations"}

    def test_full_cycle(self, server, service):
        client = Client(server)
        # 1. Submit.
        response, data = client.request("POST", "/v1/sweeps", body={"name": "e2e"})
        assert response.status in (200, 202)
        assert data["name"] == "e2e"

        # 2. Stream progress from the JSONL event sink until completion.
        stream = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        stream.request("GET", "/v1/sweeps/e2e/events")
        streamed = stream.getresponse()
        assert streamed.status == 200
        assert streamed.headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(l) for l in streamed.read().decode().splitlines()]
        stream.close()
        kinds = [line["kind"] for line in lines]
        assert kinds.count("explore.progress") == 4
        assert kinds[-1] == "serve.stream_end"
        assert lines[-1]["status"] == "done"

        # 3. Query the Pareto front; capture the ETag.
        response, front = client.request("GET", "/v1/sweeps/e2e/pareto")
        assert response.status == 200
        etag = response.headers["ETag"]
        assert front["total"] == 1  # n_bits=6 minimises power AND maximises snr
        assert front["front"][0]["power_uw"] == 6.0
        assert front["front"][0]["breakdown"] == {"adc": 6.0}

        # 4. Conditional revalidation: 304, no body, no evaluator call.
        calls_before = service.evaluator.calls
        response, data = client.request(
            "GET", "/v1/sweeps/e2e/pareto", headers={"If-None-Match": etag}
        )
        assert response.status == 304
        assert data is None
        assert response.headers["ETag"] == etag
        assert service.evaluator.calls == calls_before
        assert service.telemetry.counters.get("serve.not_modified") == 1

        # 5. Resubmit: served entirely from the store, still no evaluator.
        response, data = client.request("POST", "/v1/sweeps", body={"name": "e2e"})
        assert response.status == 200
        assert data["from_store"] is True
        assert service.evaluator.calls == calls_before
        assert service.telemetry.counters.get("serve.store_hits") == 1
        # The exploration telemetry merged into the service: exactly one
        # sweep ran, exactly 4 evaluator misses, ever.
        assert service.telemetry.counters.get("explore.cache_misses") == 4
        client.close()

    def test_manifest_view_and_listing(self, client, service):
        client.request("POST", "/v1/sweeps", body={"name": "m1"})
        wait_done(service, "m1")
        response, data = client.request("GET", "/v1/sweeps/m1")
        assert response.status == 200
        assert data["status"] == "done"
        assert data["n_evaluations"] == 4
        assert response.headers["ETag"] == f'"{data["digest"]}"'
        response, listing = client.request("GET", "/v1/sweeps")
        assert "m1" in listing["sweeps"]

    def test_evaluations_pagination(self, client, service):
        client.request("POST", "/v1/sweeps", body={"name": "p1"})
        wait_done(service, "p1")
        response, data = client.request(
            "GET", "/v1/sweeps/p1/evaluations?offset=1&limit=2"
        )
        assert response.status == 200
        assert data["total"] == 4
        assert data["offset"] == 1 and data["limit"] == 2
        assert len(data["evaluations"]) == 2
        assert data["evaluations"][0]["metrics"]["power_uw"] == 7.0
        # Out-of-range offset: valid request, empty page.
        _, tail = client.request("GET", "/v1/sweeps/p1/evaluations?offset=99")
        assert tail["evaluations"] == []
        # Default limit applies when unspecified.
        _, default = client.request("GET", "/v1/sweeps/p1/evaluations")
        assert default["limit"] == DEFAULT_PAGE_LIMIT

    def test_breakdown_view(self, client, service):
        client.request("POST", "/v1/sweeps", body={"name": "b1"})
        wait_done(service, "b1")
        response, data = client.request("GET", "/v1/sweeps/b1/breakdown")
        assert response.status == 200
        assert data["breakdown"][0]["breakdown"] == {"adc": 6.0}
        assert data["breakdown"][0]["power_uw"] == 6.0

    def test_pareto_custom_objectives(self, client, service):
        client.request("POST", "/v1/sweeps", body={"name": "obj"})
        wait_done(service, "obj")
        # Maximising power alone: the 9-bit point wins.
        _, data = client.request(
            "GET", "/v1/sweeps/obj/pareto?maximize=power_uw&minimize="
        )
        assert data["objectives"] == [{"metric": "power_uw", "maximize": True}]
        assert data["front"][0]["power_uw"] == 9.0


class TestHttpErrors:
    def test_unknown_sweep_404(self, client):
        response, data = client.request("GET", "/v1/sweeps/nope")
        assert response.status == 404
        assert "nope" in data["error"]

    def test_unknown_route_404(self, client):
        response, _ = client.request("GET", "/v2/bogus")
        assert response.status == 404

    def test_unknown_view_404(self, client, service):
        client.request("POST", "/v1/sweeps", body={"name": "v1ok"})
        wait_done(service, "v1ok")
        response, _ = client.request("GET", "/v1/sweeps/v1ok/bogusview")
        assert response.status == 404

    def test_method_not_allowed_405(self, client):
        response, _ = client.request("PUT", "/v1/sweeps")
        assert response.status == 405
        response, _ = client.request("POST", "/healthz")
        assert response.status == 405

    def test_malformed_json_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/v1/sweeps", body=b"{not json")
        response = conn.getresponse()
        assert response.status == 400
        assert "JSON" in json.loads(response.read())["error"]
        conn.close()

    def test_submission_error_400(self, client):
        response, data = client.request(
            "POST", "/v1/sweeps", body={"explode": True}
        )
        assert response.status == 400
        assert "injected submission error" in data["error"]

    def test_invalid_sweep_name_400(self, client):
        response, data = client.request("POST", "/v1/sweeps", body={"name": "a/b"})
        # Path traversal in a name cannot reach the filesystem layer.
        assert response.status == 400

    @pytest.mark.parametrize(
        "query", ["offset=-1", "limit=0", "limit=99999", "offset=abc", "limit=1.5"]
    )
    def test_pagination_bounds_400(self, client, service, query):
        client.request("POST", "/v1/sweeps", body={"name": "pag"})
        wait_done(service, "pag")
        response, data = client.request("GET", f"/v1/sweeps/pag/evaluations?{query}")
        assert response.status == 400
        assert "error" in data

    def test_events_of_unknown_sweep_404(self, client):
        response, data = client.request("GET", "/v1/sweeps/ghost/events")
        assert response.status == 404

    def test_malformed_request_line_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            raw = sock.recv(4096)
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_errors_counted(self, client, service):
        client.request("GET", "/v1/sweeps/nope")
        assert service.telemetry.counters.get("serve.requests", 0) >= 1


class TestLiveProgressStreaming:
    def test_stream_follows_a_running_sweep(self, server, service):
        """Open the event stream while the sweep is gated mid-flight: the
        stream must stay open, then deliver the remaining progress events
        and the terminal line once the sweep resumes."""
        service.evaluator.gate.clear()
        client = Client(server)
        client.request("POST", "/v1/sweeps", body={"name": "live"})

        received = []

        def consume():
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            conn.request("GET", "/v1/sweeps/live/events")
            response = conn.getresponse()
            for raw in response:
                line = raw.strip()
                if line:
                    received.append(json.loads(line))
            conn.close()

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.2)  # stream is tailing a still-running sweep
        assert consumer.is_alive()
        service.evaluator.gate.set()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        kinds = [line["kind"] for line in received]
        assert kinds.count("explore.progress") == 4
        assert kinds[-1] == "serve.stream_end"
        client.close()


class TestGracefulShutdown:
    def test_draining_service_refuses_submissions(self, service):
        from repro.serve import ServiceDraining

        assert not service.draining
        service.begin_drain()
        assert service.draining
        with pytest.raises(ServiceDraining):
            service.submit({"name": "late"})

    def test_drain_waits_for_running_sweep(self, service):
        service.evaluator.gate.clear()  # hold the sweep mid-flight
        service.submit({"name": "slow"})
        assert service.drain(timeout_s=0.2) == ["slow"]  # still running

        service.evaluator.gate.set()
        assert service.drain(timeout_s=10.0) == []
        assert service.jobs["slow"].status == "done"

    def test_drain_with_nothing_running_returns_immediately(self, service):
        start = time.time()
        assert service.drain(timeout_s=30.0) == []
        assert time.time() - start < 5.0

    def test_http_503_and_healthz_while_draining(self, service, client):
        response, data = client.request("GET", "/healthz")
        assert response.status == 200 and data["draining"] is False

        service.begin_drain()
        response, data = client.request("GET", "/healthz")
        assert response.status == 200 and data["draining"] is True

        response, data = client.request("POST", "/v1/sweeps", body={"name": "x"})
        assert response.status == 503
        assert "draining" in data["error"]

        # Readers are unaffected while draining.
        response, _data = client.request("GET", "/v1/sweeps")
        assert response.status == 200

    def test_drain_is_idempotent(self, service):
        service.begin_drain()
        before = service.telemetry.counters.get("serve.drain")
        service.begin_drain()
        assert service.telemetry.counters.get("serve.drain") == before == 1


class TestMetricsEndpoint:
    def fetch_metrics(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode()
        conn.close()
        return response, body

    def test_openmetrics_exposition(self, server, service):
        client = Client(server)
        client.request("POST", "/v1/sweeps", body={"name": "met"})
        wait_done(service, "met")
        client.request("GET", "/healthz")
        client.close()
        response, body = self.fetch_metrics(server)
        assert response.status == 200
        assert response.headers["Content-Type"].startswith(
            "application/openmetrics-text"
        )
        assert body.endswith("# EOF\n")
        # A counter family from the request path...
        assert "# TYPE repro_serve_requests counter" in body
        assert "repro_serve_requests_total" in body
        # ...and a per-route latency histogram family with cumulative
        # buckets ending in the +Inf catch-all.
        assert "# TYPE repro_serve_request_seconds_healthz histogram" in body
        healthz_buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in body.splitlines()
            if line.startswith("repro_serve_request_seconds_healthz_bucket")
        ]
        assert healthz_buckets == sorted(healthz_buckets)
        assert healthz_buckets[-1] >= 1
        assert 'le="+Inf"' in body

    def test_route_labels_are_bounded(self, server):
        client = Client(server)
        # Arbitrary sweep names must not mint new metric families.
        client.request("GET", "/v1/sweeps/alpha/pareto")
        client.request("GET", "/v1/sweeps/beta/pareto")
        client.request("GET", "/v2/whatever")
        client.close()
        _, body = self.fetch_metrics(server)
        assert "repro_serve_request_seconds_sweep_pareto_count 2" in body
        assert "alpha" not in body and "beta" not in body
        assert "repro_serve_request_seconds_other_count" in body

    def test_response_size_histogram(self, server):
        client = Client(server)
        client.request("GET", "/v1/sweeps")
        client.close()
        _, body = self.fetch_metrics(server)
        assert "# TYPE repro_serve_response_bytes_sweeps_list histogram" in body


class TestTraceEndpoint:
    def test_trace_artifact_served(self, client, service):
        client.request("POST", "/v1/sweeps", body={"name": "tr1"})
        wait_done(service, "tr1")
        response, trace = client.request("GET", "/v1/sweeps/tr1/trace")
        assert response.status == 200
        assert trace["displayTimeUnit"] == "ms"
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "explore.total" in names
        # The artifact survives on disk alongside the event log.
        assert service.trace_path("tr1").exists()

    def test_trace_of_unknown_sweep_404(self, client):
        response, data = client.request("GET", "/v1/sweeps/ghost/trace")
        assert response.status == 404

    def test_trace_of_store_served_sweep_404(self, client, service):
        """A store hit never ran an explore here, so there is no trace
        artifact -- the endpoint must say so rather than serve a stale
        file or crash."""
        client.request("POST", "/v1/sweeps", body={"name": "tr2"})
        wait_done(service, "tr2")
        service.trace_path("tr2").unlink()  # simulate artifact loss
        response, data = client.request("GET", "/v1/sweeps/tr2/trace")
        assert response.status == 404
        assert "trace" in data["error"]
