"""Tests of the content-addressed result store (:mod:`repro.store`)."""

import dataclasses
import json
import os
import threading

import pytest

from repro.core.execution import EvaluationCache, evaluation_key
from repro.core.explorer import DesignSpaceExplorer
from repro.core.results import Evaluation, ExplorationResult
from repro.core.serialization import design_point_from_dict, design_point_to_dict
from repro.power.technology import DesignPoint, Technology
from repro.store import ResultStore, StoreError, SweepManifest, check_sweep_name

FP = "evaluator-fingerprint-v1"


def make_eval(bits: int, *, error: str | None = None) -> Evaluation:
    point = DesignPoint(n_bits=bits)
    if error is not None:
        return Evaluation(point=point, metrics={}, error=error)
    return Evaluation(
        point=point,
        metrics={"power_uw": float(bits), "snr_db": 50.0 - bits},
        breakdown={"adc": float(bits) / 2, "lna": float(bits) / 2},
    )


def _changed(value):
    """A valid value of ``value``'s type other than ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return "digital" if value == "analog" else "analog"
    return value + 1 if isinstance(value, int) else value * 0.5


def _single_field_changes(point: DesignPoint) -> dict[str, DesignPoint]:
    """``point`` with one field changed, for every field, technology's too."""
    changes = {
        f.name: point.with_(**{f.name: _changed(getattr(point, f.name))})
        for f in dataclasses.fields(DesignPoint)
        if f.name != "technology"
    }
    technology = point.technology
    for f in dataclasses.fields(Technology):
        changed = dataclasses.replace(technology, **{f.name: _changed(getattr(technology, f.name))})
        changes[f"technology.{f.name}"] = point.with_(technology=changed)
    return changes


def make_result(bits=(6, 7, 8), errors=(), name="demo") -> ExplorationResult:
    evaluations = [make_eval(b) for b in bits]
    evaluations += [make_eval(b, error="RuntimeError: boom") for b in errors]
    return ExplorationResult(evaluations, name=name)


class TestSweepNames:
    def test_valid_names_pass(self):
        for name in ("fig7-smoke", "a", "Sweep.2026_08", "0x1"):
            assert check_sweep_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "../escape", "a/b", ".hidden", "-dash", "x" * 101, "sp ace"]
    )
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValueError, match="invalid sweep name"):
            check_sweep_name(name)


class TestContentAddressing:
    def test_evaluation_key_matches_cache_path(self, tmp_path):
        """The store's blob key IS the evaluation cache's filename stem --
        the invariant that lets the blob dir double as a live cache."""
        cache = EvaluationCache(tmp_path)
        point = DesignPoint(n_bits=7)
        assert cache._path(FP, point).stem == evaluation_key(FP, point)

    def test_every_field_is_in_the_key_and_survives_json(self):
        point = DesignPoint()
        changes = _single_field_changes(point)
        assert all(changed != point for changed in changes.values())
        key = evaluation_key(FP, point)
        assert [name for name, p in changes.items() if evaluation_key(FP, p) == key] == []
        # A point rebuilt from JSON (fleet wire, checkpoint, service) keeps it.
        for changed in (point, *changes.values()):
            rebuilt = design_point_from_dict(json.loads(json.dumps(design_point_to_dict(changed))))
            assert evaluation_key(FP, rebuilt) == evaluation_key(FP, changed)

    def test_store_blobs_are_cache_hits(self, tmp_path):
        """An evaluation stored via put_sweep must be a cache hit for the
        same fingerprint + point through the store's cache view."""
        store = ResultStore(tmp_path)
        store.put_sweep("demo", FP, make_result())
        cached = store.cache.get(FP, DesignPoint(n_bits=6))
        assert cached is not None
        assert cached.metrics["power_uw"] == 6.0


class TestSweepRoundTrip:
    def test_put_then_load(self, tmp_path):
        store = ResultStore(tmp_path)
        manifest = store.put_sweep("demo", FP, make_result())
        assert manifest.n_evaluations == 3
        assert manifest.n_failures == 0
        loaded = store.load_result("demo")
        assert len(loaded) == 3
        assert loaded.name == "demo"
        assert [e.metrics["power_uw"] for e in loaded] == [6.0, 7.0, 8.0]
        assert loaded[0].breakdown == {"adc": 3.0, "lna": 3.0}

    def test_failures_inlined_and_round_trip(self, tmp_path):
        """Failed evaluations are never blobbed (the cache's
        never-cache-failures rule) but must still round-trip."""
        store = ResultStore(tmp_path)
        manifest = store.put_sweep("demo", FP, make_result(bits=(6,), errors=(10,)))
        assert manifest.n_failures == 1
        assert manifest.keys == [evaluation_key(FP, DesignPoint(n_bits=6)), None]
        loaded = store.load_result("demo")
        assert loaded[1].error == "RuntimeError: boom"
        assert not loaded[1].ok
        # No blob was written for the failure.
        assert len(list(store.evaluations_dir.glob("*.json"))) == 1

    def test_points_sharing_a_label_are_stored_in_two_blobs(self, tmp_path):
        """The description omits the supply; the key does not."""
        store = ResultStore(tmp_path)
        low, high = DesignPoint(v_dd=1.2), DesignPoint(v_dd=2.0)
        result = ExplorationResult(
            [Evaluation(low, {"power_uw": 5.651}), Evaluation(high, {"power_uw": 7.268})]
        )
        manifest = store.put_sweep("supply", FP, result)
        assert manifest.keys == [evaluation_key(FP, low), evaluation_key(FP, high)]
        assert len(list(store.evaluations_dir.glob("*.json"))) == 2
        loaded = store.load_result("supply")
        assert [e.point for e in loaded] == [low, high]
        assert [e.metrics for e in loaded] == [{"power_uw": 5.651}, {"power_uw": 7.268}]

    def test_stored_blob_is_not_replaced_by_a_label_twin(self, tmp_path):
        """A later sweep through ``store.cache`` whose point shares a stored
        point's label gets its own blob, and the stored sweep keeps its own."""
        store = ResultStore(tmp_path)
        high, low = DesignPoint(v_dd=2.0), DesignPoint(v_dd=1.2)
        assert high.describe() == low.describe()

        class SupplyEvaluator:
            def fingerprint(self):
                return FP

            def __call__(self, point):
                return Evaluation(point, {"power_uw": 3.6 * point.v_dd})

        evaluate = SupplyEvaluator()
        stored = DesignSpaceExplorer(evaluate).explore([high], cache=store.cache)
        store.put_sweep("high", FP, stored)
        digest = store.get_sweep("high").digest
        blobs = {path: path.read_bytes() for path in store.evaluations_dir.iterdir()}

        swept = DesignSpaceExplorer(evaluate).explore([low], cache=store.cache)
        assert swept[0].point == low and swept[0].metrics == evaluate(low).metrics
        store.put_sweep("low", FP, swept)
        assert store.put_evaluation(FP, low, swept[0]) == evaluation_key(FP, low)

        assert {path: path.read_bytes() for path in blobs} == blobs
        assert len(list(store.evaluations_dir.iterdir())) == 2
        assert store.sweep_names() == ["high", "low"]
        assert store.get_sweep("high").digest == digest
        for name, point in (("high", high), ("low", low)):
            (loaded,) = store.load_result(name)
            assert loaded.point == point
            assert loaded.metrics == evaluate(point).metrics

    def test_repeated_point_shares_its_blob(self, tmp_path):
        store = ResultStore(tmp_path)
        manifest = store.put_sweep("twice", FP, make_result(bits=(6, 6)))
        assert manifest.keys[0] == manifest.keys[1]
        assert len(store.load_result("twice")) == 2

    def test_missing_sweep_raises_with_known_names(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("exists", FP, make_result())
        with pytest.raises(StoreError, match="exists"):
            store.load_result("nope")

    def test_missing_blob_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("demo", FP, make_result(bits=(6,)))
        for blob in store.evaluations_dir.glob("*.json"):
            blob.unlink()
        with pytest.raises(StoreError, match="missing evaluation blob"):
            store.load_result("demo")

    def test_blob_recording_another_key_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("demo", FP, make_result(bits=(6, 7)))
        six, seven = store.get_sweep("demo").keys
        evaluations = store.evaluations_dir
        # Graft the 7-bit blob under the 6-bit key.
        os.replace(evaluations / f"{seven}.json", evaluations / f"{six}.json")
        with pytest.raises(StoreError, match=f"missing evaluation blob {six}"):
            store.load_result("demo")

    def test_invalid_name_rejected_on_put(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="invalid sweep name"):
            store.put_sweep("../traversal", FP, make_result())


class TestDigestStability:
    def test_same_content_same_digest(self, tmp_path):
        """Identical content re-stored (even under another name, at
        another time) produces an identical digest -- the ETag contract."""
        store = ResultStore(tmp_path)
        first = store.put_sweep("one", FP, make_result())
        second = store.put_sweep("two", FP, make_result())
        assert first.digest == second.digest

    def test_different_content_different_digest(self, tmp_path):
        store = ResultStore(tmp_path)
        a = store.put_sweep("a", FP, make_result(bits=(6, 7)))
        b = store.put_sweep("b", FP, make_result(bits=(6, 8)))
        c = store.put_sweep("c", "other-fingerprint", make_result(bits=(6, 7)))
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_digest_survives_manifest_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        stored = store.put_sweep("demo", FP, make_result())
        reloaded = store.get_sweep("demo")
        assert reloaded.digest == stored.digest
        assert reloaded.digest == SweepManifest.compute_digest(
            reloaded.fingerprint, reloaded.entries
        )


class TestIndex:
    def test_index_lists_sweeps(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("a", FP, make_result(bits=(6,)))
        store.put_sweep("b", FP, make_result(bits=(6, 7)))
        index = store.index()
        assert set(index["sweeps"]) == {"a", "b"}
        assert index["sweeps"]["b"]["n_evaluations"] == 2

    def test_index_rebuilt_when_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("a", FP, make_result())
        store.index_path.unlink()
        assert "a" in store.index()["sweeps"]

    def test_index_recovers_from_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("a", FP, make_result())
        store.index_path.write_text("{not json")
        assert "a" in store.index()["sweeps"]

    def test_torn_foreign_manifest_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("good", FP, make_result())
        (store.sweeps_dir / "torn.json").write_text("{trunc")
        index = store._rebuild_index()
        assert set(index["sweeps"]) == {"good"}

    def test_delete_sweep_updates_index(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("a", FP, make_result())
        assert store.delete_sweep("a")
        assert store.index()["sweeps"] == {}
        assert not store.delete_sweep("a")


class TestConcurrency:
    def test_concurrent_put_sweep_atomicity(self, tmp_path):
        """Many threads storing distinct sweeps through one store root:
        every manifest, blob and the final index must be complete."""
        store = ResultStore(tmp_path)
        n_threads = 8
        failures = []

        def worker(tag):
            try:
                store.put_sweep(f"sweep-{tag}", FP, make_result(bits=(6, 7, 8)))
            except Exception as error:  # pragma: no cover - the assertion
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert len(store.sweep_names()) == n_threads
        index = store.index()
        assert len(index["sweeps"]) == n_threads
        for name in store.sweep_names():
            assert len(store.load_result(name)) == 3
        # Every artefact on disk is complete JSON, never torn.
        for path in list(store.sweeps_dir.glob("*.json")) + [store.index_path]:
            json.loads(path.read_text())


class TestGc:
    def test_gc_removes_unreferenced_blobs_only(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("keep", FP, make_result(bits=(6,)))
        # An orphan blob: cached evaluation never attached to a named sweep.
        store.put_evaluation(FP, DesignPoint(n_bits=12), make_eval(12))
        assert len(list(store.evaluations_dir.glob("*.json"))) == 2
        removed = store.gc()
        assert removed == [evaluation_key(FP, DesignPoint(n_bits=12))]
        assert len(list(store.evaluations_dir.glob("*.json"))) == 1
        assert len(store.load_result("keep")) == 1

    def test_gc_on_clean_store_is_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("a", FP, make_result())
        assert store.gc() == []

    def test_put_evaluation_skips_failures(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put_evaluation(FP, DesignPoint(n_bits=6), make_eval(6, error="x"))
        assert key is None
        assert list(store.evaluations_dir.glob("*.json")) == []


class TestManifestFormat:
    def test_version_check(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sweep("demo", FP, make_result())
        path = store.sweeps_dir / "demo.json"
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="version"):
            store.get_sweep("demo")

    def test_v1_manifest_is_refused(self, tmp_path):
        """A v1 manifest named blobs by the point description and kept the
        points in the blobs: it loads no more, gc keeps every blob, and the
        index skips it."""
        store = ResultStore(tmp_path)
        store.put_sweep("demo", FP, make_result(bits=(6,)))
        point = DesignPoint(n_bits=7)
        (store.sweeps_dir / "old.json").write_text(
            json.dumps(
                {
                    **SweepManifest("old", FP, []).to_dict(),
                    "format_version": 1,
                    "entries": [{"key": "0" * 64, "point": point.describe()}],
                }
            )
        )
        for read in (store.get_sweep, store.load_result):
            with pytest.raises(StoreError, match="unsupported sweep manifest version 1"):
                read("old")
        with pytest.raises(StoreError, match="old.json"):
            store.gc()
        assert set(store._rebuild_index()["sweeps"]) == {"demo"}

    def test_get_missing_sweep_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get_sweep("nope") is None
