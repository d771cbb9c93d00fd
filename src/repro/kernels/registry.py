"""Runtime backend registry for the hot numerical kernels.

The sweep engine spends nearly all of its time in a handful of kernels:
the LASSO/greedy solvers (``fista``/``ista``/``omp``) and the s-SRBM
charge-sharing encoder multiply.  Each kernel has a numpy *reference*
implementation (the numbers the golden suite locks down) and may have
faster optional implementations (numba JIT) that are only safe to
enable because the conformance harness (:mod:`repro.testing.conformance`)
proves them numerically locked to the reference.

Selection
---------
The active backend is process-global and chosen, in priority order, by

1. an explicit :meth:`KernelRegistry.select` call (the CLI's
   ``--kernel-backend`` flag ends up here),
2. the ``REPRO_KERNEL_BACKEND`` environment variable (inherited by pool
   workers, which is what keeps driver and workers consistent),
3. the default: ``numpy``.

A selected backend that is unavailable (numba not installed) or does
not provide a given kernel *falls back* to the reference implementation
per call.  Fallbacks are counted in telemetry (``kernels.fallback``)
and recorded per kernel in the usage ledger that
:meth:`KernelRegistry.manifest_section` exports into the run manifest's
``kernels`` section, so a run artefact always shows which backend
actually produced its numbers.

Exactness contract
------------------
A backend declares ``exact=True`` only when its kernels are
*bit-identical* to the reference (same dtype, same operation order).
Exact backends share evaluation-cache keys with the reference;
non-exact (documented-tolerance) backends qualify the evaluator
fingerprint via :func:`cache_tag` so a backend switch can never serve
stale-but-different cached results.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Environment variable naming the requested backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The backend every kernel is guaranteed to exist on.
REFERENCE_BACKEND = "numpy"

#: Kernels the core engine dispatches today (backends may implement any
#: subset; missing kernels fall back to the reference).
KERNEL_NAMES = ("fista", "ista", "omp", "encoder_multiply")

_GET_ACTIVE_TELEMETRY = None


def _telemetry():
    """Ambient telemetry sink, lazily imported (avoids repro.core cycles)."""
    global _GET_ACTIVE_TELEMETRY
    if _GET_ACTIVE_TELEMETRY is None:
        from repro.core.telemetry import get_active

        _GET_ACTIVE_TELEMETRY = get_active
    return _GET_ACTIVE_TELEMETRY()


class UnknownBackendError(ValueError):
    """Raised when selecting a backend name that was never registered."""


@dataclass(frozen=True)
class KernelBackend:
    """One registered backend: availability, exactness contract, kernels.

    Parameters
    ----------
    name:
        Registry key (``numpy``, ``numba``, ...).
    kernels:
        Mapping of kernel name -> callable.  Missing kernels dispatch to
        the reference backend (recorded as a fallback).
    exact:
        True when every provided kernel is bit-identical to the
        reference implementation.  Exact backends share cache keys with
        the reference; non-exact backends get backend-qualified keys.
    rtol:
        Documented agreement tolerance versus the reference for
        non-exact backends (the conformance suite enforces it).
    available:
        False when the backend's runtime (numba) is not importable.
        Unavailable backends always fall back.
    unavailable_reason:
        Human-readable reason shown in the manifest when unavailable.
    """

    name: str
    kernels: Mapping[str, Callable] = field(default_factory=dict)
    exact: bool = False
    rtol: float = 0.0
    available: bool = True
    unavailable_reason: str | None = None


@dataclass
class _KernelUsage:
    """Per-kernel dispatch ledger for one process."""

    backend: str | None = None
    requested: str | None = None
    calls: int = 0
    fallback_calls: int = 0
    errors: int = 0
    fallback_reason: str | None = None


class KernelRegistry:
    """Process-global dispatch table for the hot kernels."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._backends: dict[str, KernelBackend] = {}
        self._selected: str | None = None
        # Backends that raised at call time, demoted for the rest of the
        # process so a broken JIT does not retry (and re-fail) per frame.
        self._demoted: set[tuple[str, str]] = set()
        self._usage: dict[str, _KernelUsage] = {}

    # -- registration ---------------------------------------------------

    def register(self, backend: KernelBackend) -> None:
        """Register (or replace) a backend."""
        with self._lock:
            self._backends[backend.name] = backend
            self._demoted = {d for d in self._demoted if d[0] != backend.name}

    def unregister(self, name: str) -> None:
        if name == REFERENCE_BACKEND:
            raise ValueError("the reference backend cannot be unregistered")
        with self._lock:
            self._backends.pop(name, None)
            if self._selected == name:
                self._selected = None

    def backends(self) -> tuple[KernelBackend, ...]:
        """All registered backends, reference first."""
        with self._lock:
            ordered = sorted(
                self._backends.values(), key=lambda b: (b.name != REFERENCE_BACKEND, b.name)
            )
        return tuple(ordered)

    def backend(self, name: str) -> KernelBackend:
        try:
            return self._backends[name]
        except KeyError:
            raise UnknownBackendError(
                f"unknown kernel backend {name!r}; registered: "
                f"{', '.join(sorted(self._backends))}"
            ) from None

    # -- selection ------------------------------------------------------

    def select(self, name: str | None) -> str:
        """Select the process-wide backend; ``None`` re-reads the env var.

        Returns the resolved *requested* name.  Selecting an unavailable
        backend is allowed (per-call auto-fallback handles it); selecting
        an unregistered name raises :class:`UnknownBackendError`.
        """
        if name is not None:
            self.backend(name)  # raises on unknown names
        with self._lock:
            self._selected = name
        return self.requested()

    def requested(self) -> str:
        """The backend name requested for this process (env-aware)."""
        if self._selected is not None:
            return self._selected
        env = os.environ.get(ENV_VAR, "").strip()
        return env or REFERENCE_BACKEND

    def active(self, kernel: str) -> str:
        """The backend that *would* run ``kernel`` right now (no dispatch).

        Resolves the requested backend through availability, kernel
        coverage, and call-time demotion, without touching the ledger.
        """
        backend, _reason = self._resolve(kernel)
        return backend.name

    def active_is_exact(self) -> bool:
        """True when every dispatched kernel is bit-identical to the
        reference (the requested backend is exact or resolves to it)."""
        requested = self.requested()
        try:
            backend = self.backend(requested)
        except UnknownBackendError:
            return True
        if backend.name == REFERENCE_BACKEND or backend.exact:
            return True
        # A non-exact backend that cannot run anything is effectively
        # the reference.
        return not backend.available

    def _resolve(self, kernel: str) -> tuple[KernelBackend, str | None]:
        """Resolve ``kernel`` to a backend + fallback reason (or None)."""
        requested = self.requested()
        try:
            backend = self.backend(requested)
        except UnknownBackendError:
            # Env vars are user input: an unknown name degrades to the
            # reference instead of crashing every worker.
            return self.backend(REFERENCE_BACKEND), f"unknown backend {requested!r}"
        if backend.name == REFERENCE_BACKEND:
            return backend, None
        if not backend.available:
            reason = backend.unavailable_reason or f"{backend.name} unavailable"
            return self.backend(REFERENCE_BACKEND), reason
        if kernel not in backend.kernels:
            return (
                self.backend(REFERENCE_BACKEND),
                f"{backend.name} does not implement {kernel!r}",
            )
        if (backend.name, kernel) in self._demoted:
            return (
                self.backend(REFERENCE_BACKEND),
                f"{backend.name}:{kernel} demoted after a runtime error",
            )
        return backend, None

    # -- dispatch -------------------------------------------------------

    def call(self, kernel: str, *args, **kwargs):
        """Dispatch ``kernel`` to the active backend.

        Non-reference backend failures are contained: the error is
        counted, the (backend, kernel) pair is demoted for the rest of
        the process, and the call is retried on the reference
        implementation, so an optional accelerator can never take down a
        sweep.
        """
        backend, reason = self._resolve(kernel)
        requested = self.requested()
        if backend.name != REFERENCE_BACKEND:
            try:
                result = backend.kernels[kernel](*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - contained by design
                with self._lock:
                    self._demoted.add((backend.name, kernel))
                reason = f"{backend.name}:{kernel} raised {type(exc).__name__}: {exc}"
                self._note(kernel, REFERENCE_BACKEND, requested, reason, error=True)
                return self._reference_impl(kernel)(*args, **kwargs)
            self._note(kernel, backend.name, requested, None)
            return result
        self._note(kernel, REFERENCE_BACKEND, requested, reason)
        return self._reference_impl(kernel)(*args, **kwargs)

    def _reference_impl(self, kernel: str) -> Callable:
        reference = self.backend(REFERENCE_BACKEND)
        try:
            return reference.kernels[kernel]
        except KeyError:
            raise KeyError(
                f"kernel {kernel!r} has no reference implementation; "
                f"known kernels: {', '.join(sorted(reference.kernels))}"
            ) from None

    def _note(
        self,
        kernel: str,
        backend: str,
        requested: str,
        fallback_reason: str | None,
        *,
        error: bool = False,
    ) -> None:
        fell_back = requested not in (backend, REFERENCE_BACKEND) or error
        with self._lock:
            usage = self._usage.setdefault(kernel, _KernelUsage())
            usage.backend = backend
            usage.requested = requested
            usage.calls += 1
            if fell_back:
                usage.fallback_calls += 1
                usage.fallback_reason = fallback_reason
            if error:
                usage.errors += 1
        telemetry = _telemetry()
        if telemetry.enabled:
            telemetry.count(f"kernels.{kernel}.{backend}")
            if fell_back:
                telemetry.count("kernels.fallback")
                telemetry.count(f"kernels.{kernel}.fallback")
            if error:
                telemetry.count("kernels.backend_error")

    # -- introspection --------------------------------------------------

    def usage(self) -> dict[str, dict]:
        """Per-kernel dispatch ledger (which backend actually ran)."""
        with self._lock:
            return {
                kernel: {
                    "backend": u.backend,
                    "requested": u.requested,
                    "calls": u.calls,
                    "fallback_calls": u.fallback_calls,
                    "errors": u.errors,
                    "fallback_reason": u.fallback_reason,
                }
                for kernel, u in sorted(self._usage.items())
            }

    def reset_usage(self) -> None:
        with self._lock:
            self._usage.clear()

    def manifest_section(self) -> dict:
        """The ``kernels`` section of the run manifest.

        Records the requested backend, every registered backend's
        availability and exactness contract, and the per-kernel ledger of
        which backend actually ran (including fallbacks and why) — the
        attribution a reader needs to trust a run artefact's numbers.
        """
        return {
            "requested": self.requested(),
            "exact": self.active_is_exact(),
            "backends": {
                b.name: {
                    "available": b.available,
                    "exact": b.exact,
                    "rtol": b.rtol,
                    "kernels": sorted(b.kernels),
                    **(
                        {"unavailable_reason": b.unavailable_reason}
                        if b.unavailable_reason
                        else {}
                    ),
                }
                for b in self.backends()
            },
            "usage": self.usage(),
        }

    def cache_tag(self) -> str:
        """Evaluator-fingerprint qualifier for the active backend.

        Empty when dispatch is bit-identical to the reference (cache
        keys stay backend-invariant); a ``kernels:<name>`` tag when a
        documented-tolerance backend is active, so its results can never
        be served to (or from) a run on a different backend.
        """
        if self.active_is_exact():
            return ""
        return f"kernels:{self.requested()}"

    @contextmanager
    def use_backend(self, name: str | None):
        """Temporarily select ``name`` (tests, conformance, benches)."""
        with self._lock:
            previous = self._selected
        self.select(name)
        try:
            yield self
        finally:
            with self._lock:
                self._selected = previous


def build_default_registry() -> KernelRegistry:
    """The process-global registry with all built-in backends attached."""
    from repro.kernels import numba_backend, numpy_backend

    reg = KernelRegistry()
    reg.register(numpy_backend.make_backend())
    reg.register(numba_backend.make_backend())
    return reg
