"""Unit tests for the kernel backend registry (selection, dispatch, ledger)."""

import numpy as np
import pytest

from repro.core.telemetry import Telemetry, set_active
from repro.kernels import (
    ENV_VAR,
    KERNEL_NAMES,
    REFERENCE_BACKEND,
    KernelBackend,
    KernelRegistry,
    UnknownBackendError,
    build_default_registry,
)
from repro.kernels import numpy_backend


def make_registry(*extra: KernelBackend) -> KernelRegistry:
    reg = KernelRegistry()
    reg.register(numpy_backend.make_backend())
    for backend in extra:
        reg.register(backend)
    return reg


def doubling_backend(name: str = "double", *, exact: bool = False) -> KernelBackend:
    """A fake backend whose fista visibly differs from the reference."""

    def fista(a, y2, lam, n_iter, tol):
        z, iters = numpy_backend.fista(a, y2, lam, n_iter, tol)
        return z * 2.0, iters

    return KernelBackend(name=name, kernels={"fista": fista}, exact=exact, rtol=1e-6)


class TestSelection:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        reg = make_registry()
        assert reg.requested() == REFERENCE_BACKEND
        assert reg.active("fista") == REFERENCE_BACKEND

    def test_env_var_selects(self, monkeypatch):
        reg = make_registry(doubling_backend())
        monkeypatch.setenv(ENV_VAR, "double")
        assert reg.requested() == "double"
        assert reg.active("fista") == "double"
        # Kernels the backend does not provide fall back per call.
        assert reg.active("omp") == REFERENCE_BACKEND

    def test_select_overrides_env(self, monkeypatch):
        reg = make_registry(doubling_backend())
        monkeypatch.setenv(ENV_VAR, "double")
        reg.select(REFERENCE_BACKEND)
        assert reg.requested() == REFERENCE_BACKEND
        reg.select(None)  # back to env
        assert reg.requested() == "double"

    def test_select_unknown_raises(self):
        reg = make_registry()
        with pytest.raises(UnknownBackendError, match="unknown kernel backend"):
            reg.select("cuda")

    def test_unknown_env_name_degrades_to_reference(self, monkeypatch):
        # Env vars are user input: a typo must not crash every worker.
        reg = make_registry()
        monkeypatch.setenv(ENV_VAR, "tpyo")
        assert reg.active("fista") == REFERENCE_BACKEND
        a = np.eye(3)
        z, _ = reg.call("fista", a, np.ones((1, 3)), 0.01, 10, 1e-9)
        assert z.shape == (1, 3)
        usage = reg.usage()["fista"]
        assert usage["fallback_calls"] == 1
        assert "tpyo" in usage["fallback_reason"]

    def test_use_backend_restores(self):
        reg = make_registry(doubling_backend())
        with reg.use_backend("double"):
            assert reg.requested() == "double"
        assert reg.requested() == REFERENCE_BACKEND

    def test_unavailable_backend_falls_back(self):
        missing = KernelBackend(
            name="ghost",
            kernels={},
            available=False,
            unavailable_reason="ghost is not installed",
        )
        reg = make_registry(missing)
        reg.select("ghost")
        assert reg.active("fista") == REFERENCE_BACKEND
        assert reg.active_is_exact()  # effectively the reference

    def test_unregister_reference_rejected(self):
        reg = make_registry()
        with pytest.raises(ValueError, match="reference backend"):
            reg.unregister(REFERENCE_BACKEND)


class TestDispatch:
    def test_call_routes_to_selected_backend(self):
        reg = make_registry(doubling_backend())
        a = np.eye(4)
        y2 = np.ones((1, 4))
        ref, _ = reg.call("fista", a, y2, 0.01, 50, 1e-9)
        with reg.use_backend("double"):
            doubled, _ = reg.call("fista", a, y2, 0.01, 50, 1e-9)
        np.testing.assert_allclose(doubled, ref * 2.0)

    def test_backend_error_demotes_and_falls_back(self):
        calls = {"n": 0}

        def broken(a, y2, lam, n_iter, tol):
            calls["n"] += 1
            raise RuntimeError("jit exploded")

        reg = make_registry(
            KernelBackend(name="broken", kernels={"fista": broken}, rtol=1e-6)
        )
        reg.select("broken")
        a = np.eye(3)
        y2 = np.ones((1, 3))
        z1, _ = reg.call("fista", a, y2, 0.01, 10, 1e-9)
        assert "jit exploded" in reg.usage()["fista"]["fallback_reason"]
        z2, _ = reg.call("fista", a, y2, 0.01, 10, 1e-9)
        assert np.all(np.isfinite(z1)) and np.array_equal(z1, z2)
        # Demoted after the first failure: the broken impl is not retried.
        assert calls["n"] == 1
        usage = reg.usage()["fista"]
        assert usage["backend"] == REFERENCE_BACKEND
        assert usage["errors"] == 1
        assert usage["fallback_calls"] == 2
        assert "demoted" in usage["fallback_reason"]

    def test_reregistering_clears_demotion(self):
        def broken(a, y2, lam, n_iter, tol):
            raise RuntimeError("boom")

        reg = make_registry(
            KernelBackend(name="flaky", kernels={"fista": broken}, rtol=1e-6)
        )
        reg.select("flaky")
        reg.call("fista", np.eye(2), np.ones((1, 2)), 0.01, 5, 1e-9)
        assert reg.active("fista") == REFERENCE_BACKEND
        reg.register(doubling_backend("flaky"))  # fixed build
        assert reg.active("fista") == "flaky"

    def test_telemetry_counters(self):
        tel = Telemetry()
        set_active(tel)
        try:
            def broken(a, y2, lam, n_iter, tol):
                raise RuntimeError("boom")

            reg = make_registry(
                KernelBackend(name="bad", kernels={"fista": broken}, rtol=1e-6)
            )
            reg.select("bad")
            reg.call("fista", np.eye(2), np.ones((1, 2)), 0.01, 5, 1e-9)
            counters = tel.snapshot()["counters"]
            assert counters["kernels.fista.numpy"] == 1
            assert counters["kernels.fallback"] == 1
            assert counters["kernels.backend_error"] == 1
        finally:
            set_active(None)


class TestLedgerAndManifest:
    def test_manifest_section_shape(self):
        reg = make_registry(doubling_backend())
        reg.call("fista", np.eye(2), np.ones((1, 2)), 0.01, 5, 1e-9)
        section = reg.manifest_section()
        assert section["requested"] == REFERENCE_BACKEND
        assert section["exact"] is True
        assert set(section["backends"]) == {REFERENCE_BACKEND, "double"}
        ref = section["backends"][REFERENCE_BACKEND]
        assert ref["exact"] is True
        assert set(ref["kernels"]) >= set(KERNEL_NAMES)
        assert section["usage"]["fista"]["calls"] == 1

    def test_manifest_records_fallback(self):
        reg = make_registry(doubling_backend())
        reg.select("double")
        reg.call("omp", np.eye(3), np.ones(3), 1, 0.0)
        usage = reg.manifest_section()["usage"]["omp"]
        assert usage["requested"] == "double"
        assert usage["backend"] == REFERENCE_BACKEND
        assert usage["fallback_calls"] == 1
        assert "does not implement" in usage["fallback_reason"]

    def test_reset_usage(self):
        reg = make_registry()
        reg.call("fista", np.eye(2), np.ones((1, 2)), 0.01, 5, 1e-9)
        assert reg.usage()
        reg.reset_usage()
        assert reg.usage() == {}


class TestCacheTag:
    def test_reference_and_exact_backends_share_keys(self):
        exact = doubling_backend("mirror", exact=True)
        reg = make_registry(exact)
        assert reg.cache_tag() == ""
        with reg.use_backend("mirror"):
            assert reg.cache_tag() == ""

    def test_tolerance_backend_qualifies_keys(self):
        reg = make_registry(doubling_backend())
        with reg.use_backend("double"):
            assert reg.cache_tag() == "kernels:double"
        assert reg.cache_tag() == ""


class TestDefaultRegistry:
    def test_builtin_backends_registered(self):
        reg = build_default_registry()
        names = [b.name for b in reg.backends()]
        assert names[0] == REFERENCE_BACKEND
        assert "numba" in names

    def test_reference_covers_all_kernels(self):
        reg = build_default_registry()
        reference = reg.backend(REFERENCE_BACKEND)
        assert set(reference.kernels) == set(KERNEL_NAMES)
        assert reference.exact
