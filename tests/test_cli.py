"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.goal import MIN_ACCURACY


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.scale == "smoke"
        assert args.min_accuracy == MIN_ACCURACY

    def test_sweep_and_report_share_the_accuracy_bound(self):
        # One sweep must name the same Fig. 7b optima from `sweep` and
        # from `report`, so both default to the paper's bound.
        parser = build_parser()
        sweep = parser.parse_args(["sweep"])
        report = parser.parse_args(["report", "sweep.json"])
        assert sweep.min_accuracy == report.min_accuracy == MIN_ACCURACY

    def test_sweep_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--scale", "galactic"])

    def test_budget_flags(self):
        args = build_parser().parse_args(["budget", "--bits", "6", "--cs", "--m", "75"])
        assert args.bits == 6
        assert args.cs
        assert args.m == 75


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "EffiCSense" in out
        assert "transmitter" in out
        assert "BW_LNA" in out

    def test_budget_baseline(self, capsys):
        assert main(["budget", "--bits", "8", "--noise-uv", "2"]) == 0
        out = capsys.readouterr().out
        assert "quantization" in out
        assert "predicted SNR" in out
        assert "estimated power" in out

    def test_budget_cs(self, capsys):
        assert main(["budget", "--cs", "--m", "75", "--noise-uv", "8"]) == 0
        out = capsys.readouterr().out
        assert "CS(M=75/384" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "SNDR" in out
        assert "Fig. 4" in out

    def test_sweep_and_report_roundtrip(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "smoke",
                    "--save",
                    str(sweep_path),
                    "--csv",
                    str(csv_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "accuracy front" in out
        assert "Pareto" in out
        assert sweep_path.exists()
        assert csv_path.exists()
        payload = json.loads(sweep_path.read_text())
        assert payload["evaluations"]

        assert main(["report", str(sweep_path), "--min-accuracy", "0.9"]) == 0
        report_out = capsys.readouterr().out
        assert "Fig. 7" in report_out
        assert "Fig. 10" in report_out


class TestProfiledSweep:
    def test_profile_writes_manifest_and_summary(self, tmp_path, capsys):
        from repro.core.telemetry import MANIFEST_SCHEMA_VERSION, RunManifest, get_active

        manifest_path = tmp_path / "run.manifest.json"
        assert (
            main(
                [
                    "sweep",
                    "--scale", "smoke",
                    "--profile",
                    "--no-progress",
                    "--no-cache",
                    "--manifest", str(manifest_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote run manifest" in out
        assert "telemetry summary" in out

        manifest = RunManifest.load(manifest_path)
        assert manifest.schema == MANIFEST_SCHEMA_VERSION
        assert manifest.scale == "smoke"
        assert manifest.grid_size == 18
        assert manifest.sweep["evaluated"] == 18
        assert manifest.block_time_s, "per-block time breakdown missing"
        assert manifest.block_power_w, "per-block power breakdown missing"
        assert manifest.sweep["point_seconds"]["count"] == 18
        assert manifest.eta_history

        # The CLI deactivates its telemetry sink after the command.
        assert not get_active().enabled


    @pytest.mark.parametrize(
        ("env_workers", "flags"),
        [("2", []), (None, ["--fleet", "--fleet-spawn", "2"])],
        ids=["REPRO_WORKERS", "fleet"],
    )
    def test_manifest_records_how_the_sweep_ran(
        self, tmp_path, monkeypatch, env_workers, flags
    ):
        from repro.core.telemetry import RunManifest

        if env_workers is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", env_workers)
        manifest_path = tmp_path / "run.manifest.json"
        argv = ["sweep", "--scale", "smoke", "--profile", "--no-progress", "--no-cache"]
        assert main([*argv, *flags, "--manifest", str(manifest_path)]) == 0
        manifest = RunManifest.load(manifest_path)
        assert (manifest.executor, manifest.n_workers) == ("process", 2)
        assert sorted(manifest.fleet["workers"]) == ["worker-0", "worker-1"]

    def test_observability_flags_parse_on_every_command(self):
        for argv in (
            ["tables", "--profile"],
            ["fig4", "--log-level", "debug"],
            ["sweep", "--no-progress"],
            ["budget", "--profile"],
        ):
            args = build_parser().parse_args(argv)
            assert hasattr(args, "profile")
            assert hasattr(args, "log_level")
            assert hasattr(args, "no_progress")
            assert hasattr(args, "trace")
            assert hasattr(args, "metrics_out")
            assert hasattr(args, "events_out")

    def test_trace_metrics_and_events_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "metrics.prom"
        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.manifest.json"
        assert (
            main(
                [
                    "sweep",
                    "--scale", "smoke",
                    "--no-progress",
                    "--no-cache",
                    "--trace", str(trace_path),
                    "--metrics-out", str(metrics_path),
                    "--events-out", str(events_path),
                    "--manifest", str(manifest_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote trace" in out and "wrote metrics" in out

        from tests.test_tracing import validate_chrome_trace

        events = validate_chrome_trace(json.loads(trace_path.read_text()))
        names = {e["name"] for e in events if e["ph"] == "X"}
        # The full hierarchy: sweep -> point -> block -> solver spans.
        assert {"explore.total", "explore.point"} <= names
        assert any(name.startswith("block.") for name in names)
        assert any(name.startswith("cs.recover.") for name in names)

        from examples.serve_smoke import validate_openmetrics

        metrics = metrics_path.read_text()
        assert "repro_explore_point_seconds" in metrics
        validate_openmetrics(metrics)

        streamed = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert any(e["kind"] == "explore.progress" for e in streamed)

        from repro.core.telemetry import RunManifest

        manifest = RunManifest.load(manifest_path)
        assert manifest.trace["events"] > 0
        assert manifest.histograms["explore.point_seconds"]["count"] == 18
        assert manifest.sweep["events_dropped"] == 0
        assert manifest.sweep["max_events"] > 0

    def test_parallel_profiled_sweep_reports_worker_lanes(self, tmp_path):
        from repro.core.telemetry import RunManifest

        trace_path = tmp_path / "run.trace.json"
        manifest_path = tmp_path / "run.manifest.json"
        assert (
            main(
                [
                    "sweep",
                    "--scale", "smoke",
                    "--no-progress",
                    "--no-cache",
                    "--workers", "2",
                    "--executor", "process",
                    "--trace", str(trace_path),
                    "--manifest", str(manifest_path),
                ]
            )
            == 0
        )
        from tests.test_tracing import validate_chrome_trace

        validate_chrome_trace(json.loads(trace_path.read_text()))
        manifest = RunManifest.load(manifest_path)
        assert manifest.workers, "expected per-worker counters in the manifest"
        assert all(label.startswith("worker-") for label in manifest.workers)
        lanes = manifest.trace["lanes"].values()
        assert "driver" in lanes
        assert any(label.startswith("worker-") for label in lanes)


class TestSweepParallelFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers is None
        assert args.executor is None
        assert args.checkpoint is None
        assert args.cache_dir == ".repro-cache"
        assert not args.no_cache

    def test_parallel_flags_parse(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--workers", "4",
                "--executor", "process",
                "--checkpoint", "sweep.ckpt.jsonl",
                "--no-cache",
            ]
        )
        assert args.workers == 4
        assert args.executor == "process"
        assert args.checkpoint == "sweep.ckpt.jsonl"
        assert args.no_cache

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--executor", "gpu"])


class TestStoreCli:
    def _seed_store(self, tmp_path):
        from repro.core.results import Evaluation, ExplorationResult
        from repro.power.technology import DesignPoint
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        evaluations = [
            Evaluation(DesignPoint(n_bits=b), {"power_uw": float(b)}) for b in (6, 7)
        ]
        store.put_sweep("demo", "fp-v1", ExplorationResult(evaluations, name="demo"))
        return store

    def test_ls_lists_sweeps(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert main(["store", "ls", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert " 2 " in out

    def test_ls_empty_store(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "empty")]) == 0
        assert "no sweeps" in capsys.readouterr().out

    def test_get_prints_manifest_json(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert main(["store", "get", "demo", "--store", str(store.root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "demo"
        assert len(payload["entries"]) == 2

    def test_get_missing_sweep_exits_nonzero(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert main(["store", "get", "nope", "--store", str(store.root)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_gc_reports_removed_blobs(self, tmp_path, capsys):
        from repro.core.results import Evaluation
        from repro.power.technology import DesignPoint

        store = self._seed_store(tmp_path)
        orphan = Evaluation(DesignPoint(n_bits=12), {"power_uw": 12.0})
        store.put_evaluation("fp-v1", orphan.point, orphan)
        assert main(["store", "gc", "--store", str(store.root)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(["serve", "--port", "9000"])
        assert args.port == 9000
        assert args.host == "127.0.0.1"
        assert args.store == ".repro-store"


class TestFleetCli:
    def test_sweep_fleet_flags_parse(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--fleet",
                "--fleet-host",
                "0.0.0.0",
                "--fleet-port",
                "9000",
                "--fleet-spawn",
                "0",
                "--fleet-lease-timeout",
                "5",
            ]
        )
        assert args.fleet
        assert args.fleet_host == "0.0.0.0"
        assert args.fleet_port == 9000
        assert args.fleet_spawn == 0
        assert args.fleet_lease_timeout == 5.0

    def test_worker_flags_parse(self):
        args = build_parser().parse_args(["worker", "--connect", "coord:8731", "--label", "w0"])
        assert args.connect == "coord:8731"
        assert args.label == "w0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--retries", "1"],
            ["robustness", "--retries", "1"],
            ["worker", "--connect", "h:1", "--cache-dir", "d"],
            ["worker", "--connect", "h:1", "--no-cache"],
        ],
        ids=["sweep-retries", "robustness-retries", "worker-cache-dir", "worker-no-cache"],
    )
    def test_retries_and_worker_caches_are_not_options(self, argv, capsys):
        # Each point is evaluated once, and only the driver caches.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_rejects_malformed_endpoint(self, capsys):
        assert main(["worker", "--connect", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert main(["worker", "--connect", "host:notaport"]) == 2

    def test_fleet_conflicts_with_other_executor(self, capsys):
        assert main(["sweep", "--fleet", "--executor", "thread"]) == 2
        assert "'process' executor" in capsys.readouterr().err


class TestTraceMergeCli:
    @staticmethod
    def _trace(path, label, pid, at_s):
        from repro.core.tracing import Tracer, chrome_trace

        tracer = Tracer(label=label)
        tracer.finish(tracer.start("work"))
        payload = chrome_trace(tracer.snapshot())
        for event in payload["traceEvents"]:
            event["pid"] = pid
            if event["ph"] == "X":
                event["ts"] = at_s * 1e6
        path.write_text(json.dumps(payload))
        return payload

    def test_merge_round_trip(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self._trace(a, "coordinator", pid=100, at_s=1.0)
        self._trace(b, "worker-1", pid=100, at_s=2.0)  # colliding pid
        out = tmp_path / "merged" / "trace.json"
        assert main(["trace", "merge", str(a), str(b), "-o", str(out)]) == 0
        merged = json.loads(out.read_text())
        lanes = {
            e["args"]["name"] for e in merged["traceEvents"] if e["ph"] == "M"
        }
        assert lanes == {"coordinator", "worker-1"}
        # The pid collision was resolved, not silently squashed.
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert len(pids) == 2
        summary = capsys.readouterr().out
        assert "2 lane(s)" in summary and str(out) in summary

    def test_merge_align_anchors_traces(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self._trace(a, "coordinator", pid=1, at_s=10.0)
        self._trace(b, "worker-1", pid=2, at_s=9000.0)  # skewed clock
        out = tmp_path / "merged.json"
        assert main(
            ["trace", "merge", str(a), str(b), "-o", str(out), "--align"]
        ) == 0
        merged = json.loads(out.read_text())
        spans = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        earliest = {e["pid"]: e["ts"] for e in spans}
        assert len(set(earliest.values())) == 1  # both anchored together

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "merged.json"
        code = main(["trace", "merge", str(tmp_path / "nope.json"), "-o", str(out)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err
        assert not out.exists()

    def test_non_trace_input_is_an_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": "world"}))
        code = main(["trace", "merge", str(bogus), "-o", str(tmp_path / "m.json")])
        assert code == 2
        assert "trace" in capsys.readouterr().err.lower()
