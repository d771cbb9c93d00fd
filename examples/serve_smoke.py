"""Smoke-test client of the sweep service (``repro serve``).

Drives one full service cycle over plain HTTP with nothing but the
stdlib, and asserts the contract at each step:

1. wait for ``/healthz``;
2. submit a smoke-scale sweep and stream its progress events;
3. query the Pareto front and capture the ``ETag``;
4. revalidate with ``If-None-Match`` and require ``304 Not Modified``;
5. resubmit the identical sweep and require it served from the store;
6. fetch the sweep's Chrome trace artifact from ``/v1/sweeps/<n>/trace``;
7. scrape ``GET /metrics`` and validate the OpenMetrics exposition
   (:func:`validate_openmetrics`): correct content type, ``# EOF``
   terminator, each family declared once with every sample under its
   own family, cumulative buckets ending in ``le="+Inf"``, at least one
   counter family and one per-route request-latency histogram family.

Used as the CI service smoke test::

    PYTHONPATH=src python -m repro serve --port 8731 --store .repro-store &
    PYTHONPATH=src python examples/serve_smoke.py --port 8731

Exits non-zero (assertion) on any contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request


def wait_healthy(base: str, timeout_s: float = 30.0) -> None:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=2) as response:
                if response.status == 200:
                    return
        except (urllib.error.URLError, OSError):
            time.sleep(0.25)
    raise SystemExit(f"service at {base} not healthy within {timeout_s}s")


def get_json(base: str, path: str, headers: dict | None = None):
    request = urllib.request.Request(base + path, headers=headers or {})
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, dict(response.headers), json.loads(response.read())


def post_json(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


#: Sample-name suffixes each OpenMetrics family type allows.
SAMPLE_SUFFIXES = {
    "gauge": ("",),
    "counter": ("_total",),
    "histogram": ("_bucket", "_sum", "_count"),
}


def validate_openmetrics(body: str) -> dict[str, str]:
    """Parse an OpenMetrics exposition into ``{family: type}``, asserting
    the structural invariants a Prometheus scraper relies on:

    * the body ends with the ``# EOF`` terminator;
    * every ``# TYPE`` family is declared once, with a known type;
    * every sample follows its family's declaration and is named
      ``<family><suffix>`` with a suffix the type allows (gauge none,
      counter ``_total``, histogram ``_bucket``/``_sum``/``_count``);
    * every histogram's buckets are cumulative and end in ``le="+Inf"``.
    """
    assert body.endswith("# EOF\n"), "missing OpenMetrics # EOF terminator"
    families: dict[str, str] = {}
    buckets: dict[str, list[tuple[str, int]]] = {}
    family = None
    for line in body.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            assert family not in families, f"family {family} declared twice"
            assert kind in SAMPLE_SUFFIXES, f"family {family} has unknown type {kind!r}"
            families[family] = kind
            continue
        if line.startswith("#"):
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        allowed = () if family is None else SAMPLE_SUFFIXES[families[family]]
        assert any(name == family + suffix for suffix in allowed), (
            f"sample {name!r} does not belong to the declared family {family!r}"
        )
        if name == f"{family}_bucket":
            le = line.split('le="', 1)[1].split('"', 1)[0]
            buckets.setdefault(family, []).append((le, int(line.rsplit(" ", 1)[1])))
    for name, kind in families.items():
        if kind != "histogram":
            continue
        runs = buckets.get(name, [])
        assert runs and runs[-1][0] == "+Inf", f"histogram {name} lacks a +Inf bucket"
        counts = [count for _, count in runs]
        assert counts == sorted(counts), f"non-cumulative buckets in {name}"
    return families


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731)
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--metrics-out", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    base = f"http://{args.host}:{args.port}"

    wait_healthy(base)
    print(f"service healthy at {base}")

    status, submitted = post_json(base, "/v1/sweeps", {"scale": args.scale})
    name = submitted["name"]
    print(f"submitted sweep {name!r}: HTTP {status}, status={submitted['status']}")
    assert status in (200, 202), status

    # Stream the progress events (ND-JSON, ends with serve.stream_end).
    progress = 0
    with urllib.request.urlopen(base + f"/v1/sweeps/{name}/events", timeout=600) as stream:
        for raw in stream:
            line = raw.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("kind") == "explore.progress":
                progress += 1
            last = event
    print(f"streamed {progress} progress events; final: {last['kind']}")
    assert progress > 0, "no progress events streamed"
    assert last["kind"] == "serve.stream_end" and last["status"] == "done", last

    status, headers, front = get_json(base, f"/v1/sweeps/{name}/pareto")
    etag = headers["ETag"]
    print(f"pareto front: {front['total']} point(s), ETag {etag[:18]}..")
    assert status == 200 and front["total"] > 0

    try:
        get_json(base, f"/v1/sweeps/{name}/pareto", headers={"If-None-Match": etag})
        raise SystemExit("revalidation returned 200; expected 304")
    except urllib.error.HTTPError as error:
        assert error.code == 304, error.code
        print("revalidation: 304 Not Modified")

    status, resubmitted = post_json(base, "/v1/sweeps", {"scale": args.scale})
    print(f"resubmit: HTTP {status}, from_store={resubmitted['from_store']}")
    assert status == 200 and resubmitted["from_store"] is True, resubmitted

    status, _headers, trace = get_json(base, f"/v1/sweeps/{name}/trace")
    spans = sum(1 for e in trace["traceEvents"] if e["ph"] == "X")
    print(f"sweep trace artifact: {spans} spans")
    assert status == 200 and spans > 0, "sweep trace artifact missing or empty"

    with urllib.request.urlopen(base + "/metrics", timeout=60) as response:
        content_type = response.headers["Content-Type"]
        body = response.read().decode()
    assert content_type.startswith("application/openmetrics-text"), content_type
    families = validate_openmetrics(body)
    counters = [n for n, kind in families.items() if kind == "counter"]
    histograms = [n for n, kind in families.items() if kind == "histogram"]
    print(
        f"/metrics: {len(families)} families "
        f"({len(counters)} counters, {len(histograms)} histograms)"
    )
    assert "repro_serve_requests" in counters, counters
    assert any(n.startswith("repro_serve_request_seconds") for n in histograms), (
        "no per-route request-latency histogram family exposed"
    )
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(body)
        print(f"exposition saved to {args.metrics_out}")

    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
