"""Tests of the sweep-as-a-service HTTP API (:mod:`repro.serve`).

The HTTP tests run the real threaded server on an ephemeral loopback
port (:class:`~repro.serve.ServerThread`) and drive it with stdlib
``http.client`` or raw sockets -- the same wire path production clients
use.  A Hypothesis suite throws hostile bytes at the request parser.
A cheap closed-form evaluator keeps each sweep sub-millisecond while
counting its invocations, so the served-from-store assertions can prove
the evaluator was *not* called.
"""

import http.client
import json
import re
import socket
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.execution import evaluation_key
from repro.core.results import Evaluation
from repro.core.telemetry import Telemetry
from repro.power.technology import DesignPoint
from repro.serve import (
    DEFAULT_PAGE_LIMIT,
    MAX_BODY_BYTES,
    Request,
    ServerThread,
    SubmissionError,
    SweepApi,
    SweepService,
    default_resolver,
    if_none_match_hits,
)
from repro.store import ResultStore, SweepManifest


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

    @staticmethod
    def _supply_service(tmp_path):
        """A service whose grid is one point at the payload's supply, which
        ``describe()`` omits, and whose evaluator counts its calls."""

        class SupplyEvaluator:
            calls = 0

            def fingerprint(self):
                return "supply-v1"

            def __call__(self, point):
                self.calls += 1
                return Evaluation(point, {"power_uw": 3.6 * point.v_dd})

        evaluator = SupplyEvaluator()

        def resolver(payload):
            v_dd = payload["v_dd"]
            return payload["name"], evaluator, [DesignPoint(v_dd=v_dd)], {}

        svc = SweepService(
            ResultStore(tmp_path / "s"), resolver=resolver, telemetry=Telemetry()
        )
        return svc, evaluator

    def test_label_twin_sweep_is_stored_beside_the_first(self, tmp_path):
        """Sweeps of points sharing a label (v_dd is not in ``describe()``)
        each keep their own blob, and each resubmission is served."""
        svc, evaluator = self._supply_service(tmp_path)
        for name, v_dd in (("high", 2.0), ("low", 1.2)):
            svc.submit({"name": name, "v_dd": v_dd})
            assert wait_done(svc, name).status == "done"
        assert svc.store.sweep_names() == ["high", "low"]
        assert len(list(svc.store.evaluations_dir.glob("*.json"))) == 2
        for name, v_dd in (("high", 2.0), ("low", 1.2)):
            (stored,) = svc.store.load_result(name)
            assert stored.point == DesignPoint(v_dd=v_dd)
            assert stored.metrics == {"power_uw": 3.6 * v_dd}
            job, accepted = svc.submit({"name": name, "v_dd": v_dd})
            assert accepted and job.from_store
        assert evaluator.calls == 2

    def test_grid_differing_only_in_unlabelled_fields_reruns(self, tmp_path):
        svc, evaluator = self._supply_service(tmp_path)
        svc.submit({"name": "supply", "v_dd": 2.0})
        assert wait_done(svc, "supply").status == "done"
        job, accepted = svc.submit({"name": "supply", "v_dd": 1.2})
        assert accepted and not job.from_store
        assert wait_done(svc, "supply").status == "done"
        assert evaluator.calls == 2
        (stored,) = svc.store.load_result("supply")
        assert stored.point == DesignPoint(v_dd=1.2)
        assert stored.metrics == {"power_uw": 3.6 * 1.2}

    def test_sweep_stored_in_format_1_reruns_once(self, tmp_path):
        """A format-1 manifest is refused, not served: the resubmission
        runs, its format-2 manifest replaces it, and the next is served."""
        svc, evaluator = self._supply_service(tmp_path)
        point = DesignPoint(v_dd=2.0)
        key = evaluation_key("supply-v1", point)
        entries = [{"key": key, "point": point.describe()}]
        v1 = {**SweepManifest("old", "supply-v1", entries).to_dict(), "format_version": 1}
        (svc.store.sweeps_dir / "old.json").write_text(json.dumps(v1))
        for from_store in (False, True):
            job, accepted = svc.submit({"name": "old", "v_dd": 2.0})
            assert accepted and job.from_store == from_store
            assert wait_done(svc, "old").status == "done"
        assert evaluator.calls == 1
        assert svc.store.get_sweep("old").keys == [key]

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
        for executor in ("quantum", "batched", "fleet"):
            with pytest.raises(SubmissionError, match="executor"):
                default_resolver({"scale": "smoke", "executor": executor})

    def test_smoke_scale_resolves(self):
        name, evaluator, points, kwargs = default_resolver({"scale": "smoke"})
        assert name == "fig7-smoke"
        assert callable(evaluator)
        assert len(points) > 0
        assert kwargs["executor"] is None

    def test_workers_alone_pick_the_process_executor(self):
        from repro.core.execution import resolve_executor

        *_, kwargs = default_resolver({"scale": "smoke", "workers": 2})
        assert resolve_executor(kwargs["executor"], kwargs["n_workers"]) == "process"


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


class TestNoHeadOfLineBlocking:
    def test_healthz_answers_while_a_store_read_blocks(self, server, service, monkeypatch):
        """One connection stuck in a slow store read must not stall the
        others: each connection is served on its own thread."""
        client = Client(server)
        client.request("POST", "/v1/sweeps", body={"name": "hol"})
        wait_done(service, "hol")
        entered, release = threading.Event(), threading.Event()
        load_result = service.store.load_result

        def blocking_load_result(name):
            entered.set()
            release.wait(timeout=30)
            return load_result(name)

        monkeypatch.setattr(service.store, "load_result", blocking_load_result)
        statuses = []
        slow = threading.Thread(
            target=lambda: statuses.append(
                client.request("GET", "/v1/sweeps/hol/evaluations")[0].status
            )
        )
        slow.start()
        try:
            assert entered.wait(timeout=10)
            probe = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                probe.request("GET", "/healthz")
                response = probe.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"] is True
            finally:
                probe.close()
            assert slow.is_alive()  # the evaluations read is still held
        finally:
            release.set()
            slow.join(timeout=10)
        assert statuses == [200]
        client.close()


class TestConcurrentRequests:
    def test_listings_race_submissions_cleanly(self, service, monkeypatch):
        """Handler threads list the jobs table while others add to it."""
        # The jobs only wait: this is about the table, not the sweeps.
        release = threading.Event()
        monkeypatch.setattr(service, "_run_job", lambda *args: release.wait(timeout=60))
        api = SweepApi(service)
        listing = Request("GET", "/v1/sweeps", {}, {}, b"")
        statuses = []
        submitted = threading.Event()

        def submit(worker):
            for n in range(150):
                service.submit({"name": f"c{worker}-{n}"})

        def list_until_submitted():
            while not submitted.is_set():
                statuses.append(api.dispatch(listing).status)

        submitters = [threading.Thread(target=submit, args=(w,)) for w in range(2)]
        listers = [threading.Thread(target=list_until_submitted) for _ in range(2)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in submitters + listers:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60)
        finally:
            submitted.set()
            for thread in listers:
                thread.join(timeout=60)
            sys.setswitchinterval(previous)
            release.set()
        assert not any(thread.is_alive() for thread in submitters + listers)
        assert len(service.jobs) == 300
        assert statuses and set(statuses) == {200}
        assert service.drain(timeout_s=30) == []


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection, close the write side, and
    return everything the server sends before it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def first_status(reply: bytes) -> int | None:
    """Status code of the first response in ``reply`` (None: no reply)."""
    if not reply:
        return None
    match = re.match(rb"HTTP/1\.1 (\d{3}) ", reply)
    assert match, f"reply does not start with a status line: {reply[:80]!r}"
    return int(match.group(1))


#: Largest line the stdlib parser accepts, +1: exactly one byte over.
LINE_OVER = 65537
PRINTABLE = st.characters(min_codepoint=0x21, max_codepoint=0x7E)
METHODS = st.sampled_from(["GET", "POST", "PUT", "HEAD", "DELETE", "get", "BREW"])
TARGETS = st.one_of(
    st.sampled_from([
        "/healthz", "/metrics", "/v1/sweeps", "/v1/sweeps/x", "/v1/sweeps/x/events",
        "/v1/sweeps/x/pareto?limit=0", "/v2/../etc", "*", "//v1/sweeps", "http://[::1",
    ]),
    st.text(PRINTABLE, min_size=1, max_size=30),
)
HEADER_NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,11}", fullmatch=True).filter(
    lambda name: name.lower() not in ("content-length", "expect")
)
HEADER_VALUES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=24)


def parses_as_int(text: str) -> bool:
    try:
        int(text.strip())
    except ValueError:
        return False
    return True


@st.composite
def hostile_requests(draw) -> tuple[bytes, int | None, bool]:
    """``(raw, expected first status, may_dispatch)``.

    The expected status is ``None`` for a request the server must drop
    unanswered, and ``0`` for a well-formed one, which the router may
    answer with any of its statuses.  Rejected requests carry no body
    and oversized lines end exactly one byte over the limit, so the
    server has read every byte before it closes: an unread byte would
    turn the close into a reset that can swallow the reply.
    """
    method, target = draw(METHODS), draw(TARGETS)
    line_fault = draw(st.sampled_from([None, None, "words", "version", "junk", "long"]))
    if line_fault == "long":
        return b"GET /" + b"a" * (LINE_OVER - 5), 414, False
    if line_fault == "words":
        words = draw(st.lists(TARGETS, max_size=5).filter(lambda w: len(w) != 3))
        return " ".join(words).encode() + b"\r\n\r\n", 400, False
    if line_fault == "version":
        version = draw(st.sampled_from(["HTTP/0.9", "HTTP/2.0", "HTTP/1.x", "FOO", "HTTP/"]))
        return f"{method} {target} {version}\r\n\r\n".encode(), 400, False
    if line_fault == "junk":
        junk = draw(st.binary(max_size=40).filter(
            lambda raw: b"\n" not in raw and len(raw.decode("latin-1").split()) != 3
        ))
        return junk + b"\r\n\r\n", 400, False
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    head = f"{method} {target} {version}\r\n".encode()
    head += b"".join(
        f"{name}: {value}\r\n".encode()
        for name, value in draw(st.lists(st.tuples(HEADER_NAMES, HEADER_VALUES), max_size=5))
    )
    header_fault = draw(st.sampled_from([None, None, None, "colon", "many", "long"]))
    if header_fault == "colon":
        bare = draw(st.text(PRINTABLE.filter(lambda c: c != ":"), min_size=1, max_size=12))
        return head + bare.encode() + b"\r\nHost: x\r\n\r\n", 400, False
    if header_fault == "many":
        return head + b"X-Fill: 1\r\n" * 101, 431, False
    if header_fault == "long":
        return head + b"X-Long: " + b"a" * (LINE_OVER - 8), 431, False
    body = draw(st.one_of(
        st.binary(max_size=64),
        st.sampled_from([b'{"name": "fuzz"}', b'{"scale": "smoke"}', b"[]", b"{"]),
    ))
    length = draw(st.sampled_from(["none", "exact", "exact", "short", "text", "negative", "huge"]))
    if length == "none":
        return head + b"\r\n" + body, 0, True
    if length == "exact":
        return head + f"Content-Length: {len(body)}\r\n\r\n".encode() + body, 0, True
    if length == "short":
        announced = len(body) + draw(st.integers(1, 1000))
        return head + f"Content-Length: {announced}\r\n\r\n".encode() + body, None, False
    if length == "text":
        text = draw(st.text(PRINTABLE, max_size=10).filter(lambda t: not parses_as_int(t)))
        return head + f"Content-Length: {text}\r\n\r\n".encode(), 400, False
    announced = (
        -draw(st.integers(1, 10**6)) if length == "negative"
        else MAX_BODY_BYTES + draw(st.integers(1, 10**9))
    )
    return head + f"Content-Length: {announced}\r\n\r\n".encode(), 413, False


class TestHostileInput:
    """Raw bytes at the request parser: every case ends in a status line
    or a closed connection, malformed input gets a 4xx, a request whose
    body ends early never reaches a handler, and a client that stalls is
    disconnected."""

    @pytest.fixture
    def refusing(self, tmp_path):
        def resolver(payload):
            raise SubmissionError("this service accepts no sweeps")

        return SweepService(
            ResultStore(tmp_path / "store"), resolver=resolver, telemetry=Telemetry()
        )

    def test_fuzzed_requests_fail_cleanly(self, refusing):
        with ServerThread(refusing) as server:
            baseline = threading.active_count()

            @settings(max_examples=150, deadline=None, database=None)
            @given(case=hostile_requests())
            @example(case=(
                b'POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"name": "short"}',
                None,
                False,
            ))
            def check(case):
                raw, expected, may_dispatch = case
                before = refusing.telemetry.counters.get("serve.requests", 0)
                status = first_status(exchange(server.port, raw))
                if expected is None:
                    assert status is None
                elif expected:
                    assert status == expected
                else:
                    assert status in (200, 400, 404, 405)
                if not may_dispatch:
                    assert refusing.telemetry.counters.get("serve.requests", 0) == before

            check()

            assert refusing.jobs == {}
            assert refusing.store.index().get("sweeps", {}) == {}
            client = Client(server)
            response, data = client.request("GET", "/healthz")
            client.close()
            assert response.status == 200 and data["ok"] is True
            deadline = time.time() + 5
            while threading.active_count() > baseline and time.time() < deadline:
                time.sleep(0.01)
            assert threading.active_count() <= baseline

    def test_short_body_starts_no_sweep(self, server, service):
        """A body shorter than its Content-Length (the client hit EOF)
        is dropped unanswered; it must not start a sweep from the part
        that arrived."""
        body = b'{"name": "short"}'
        reply = exchange(
            server.port,
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + body,
        )
        assert reply == b""
        assert service.jobs == {}
        assert "serve.requests" not in service.telemetry.counters

    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /healthz HTTP/1.1\r\nAccept: application/json\r\n",
            b'POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"name": ',
        ],
        ids=["mid-header", "mid-body"],
    )
    def test_stalled_client_is_disconnected(self, server, service, monkeypatch, partial):
        """A client that stops sending mid-request is disconnected after
        the read timeout: unanswered, undispatched, its thread gone."""
        monkeypatch.setattr("repro.serve.READ_TIMEOUT_S", 0.5)
        baseline = threading.active_count()
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(partial)  # and send nothing more, without closing
            assert sock.recv(65536) == b""
        assert "serve.requests" not in service.telemetry.counters
        deadline = time.time() + 5
        while threading.active_count() > baseline and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline

    def test_trickling_client_is_disconnected(self, server, service, monkeypatch):
        """The read timeout bounds the whole request, not each wait: a
        client that sends one header byte per 0.3 s, each inside the 0.5 s
        timeout, is closed once 0.5 s have passed, unanswered and
        undispatched, and its thread exits."""
        monkeypatch.setattr("repro.serve.READ_TIMEOUT_S", 0.5)
        baseline = threading.active_count()
        trickle = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 40
        closed_after = None
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.settimeout(0.3)
            start = time.monotonic()
            for byte in trickle:
                try:
                    sock.sendall(bytes([byte]))
                    reply = sock.recv(65536)  # waits 0.3 s while the server reads on
                except TimeoutError:
                    continue
                except OSError:  # reset or broken pipe: closed as well
                    reply = b""
                assert reply == b""
                closed_after = time.monotonic() - start
                break
        assert closed_after is not None, "the trickling client was never closed"
        assert closed_after < 0.5 + 1.0
        assert "serve.requests" not in service.telemetry.counters
        deadline = time.time() + 5
        while threading.active_count() > baseline and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline

    def test_event_stream_outlives_the_read_timeout(self, server, service, monkeypatch):
        """The timeout bounds each wait for the client, not a response:
        a progress stream open three times as long still ends cleanly."""
        monkeypatch.setattr("repro.serve.READ_TIMEOUT_S", 0.5)
        service.evaluator.gate.clear()
        client = Client(server)
        client.request("POST", "/v1/sweeps", body={"name": "slow"})
        client.close()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("GET", "/v1/sweeps/slow/events")
        response = conn.getresponse()
        release = threading.Timer(1.5, service.evaluator.gate.set)
        release.start()
        lines = [json.loads(raw) for raw in response if raw.strip()]
        conn.close()
        release.join()
        kinds = [line["kind"] for line in lines]
        assert kinds.count("explore.progress") == 4
        assert kinds[-1] == "serve.stream_end"

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            (b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n", 413),
            (b"HEAD /healthz HTTP/1.1\r\n\r\n", 405),
            (b"PUT /v1/sweeps HTTP/1.1\r\n\r\n", 405),
            (b"DELETE /v1/sweeps/x HTTP/1.1\r\n\r\n", 405),
            (b"BREW /healthz HTTP/1.1\r\n\r\n", 405),
        ],
    )
    def test_rejections_answer_json(self, server, raw, status):
        reply = exchange(server.port, raw)
        assert first_status(reply) == status
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"Content-Type: application/json" in head
        assert "error" in json.loads(body)
