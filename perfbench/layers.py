"""Per-layer self time, recorded from the benchmark around calls into each layer.

A traced run swaps timing wrappers onto the classes that implement each
layer of a sweep (explorer -> evaluator -> chain build -> blocks -> power
model -> scoring -> detector, and the cache and checkpoint stores) and
restores them afterwards.  Spans nest, so each layer is charged its
*self* time: its wall time minus the time of the spans it encloses.  The
``explore`` span around the whole sweep therefore keeps what no inner
layer claims -- dispatch, fingerprinting and bookkeeping.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

from repro.core.execution import EvaluationCache, SweepCheckpoint
from repro.core.explorer import FrontEndEvaluator

#: Block class -> layer.  Both architectures put a sampler between the
#: LNA and the ADC (Fig. 1: S&H, or the charge-sharing CS encoder); the
#: receiver is everything after the radio (FISTA reconstruction for CS,
#: gain normalisation for both).
BLOCK_LAYERS = {
    "LNA": "lna",
    "SampleHold": "sampler",
    "CsEncoderBlock": "sampler",
    "SarAdc": "adc",
    "Transmitter": "tx",
    "CsReconstructionBlock": "receiver",
    "Normalizer": "receiver",
}

#: Every timed layer, in sweep order.
LAYERS = (
    "explore",
    "evaluate",
    "chain_build",
    "lna",
    "sampler",
    "adc",
    "tx",
    "receiver",
    "power",
    "score",
    "detect",
    "cache",
    "checkpoint",
)


class LayerClock:
    """Accumulates self time per layer while :meth:`measure` is open."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.cache_hits = 0
        self._stack: list[list] = []
        self._active = False

    @contextmanager
    def measure(self):
        """Record spans only inside this block (set-up work stays out)."""
        self._active = True
        try:
            with self.span("explore"):
                yield
        finally:
            self._active = False

    @contextmanager
    def span(self, layer: str):
        if not self._active:
            yield
            return
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[0]
            self.self_s[layer] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def calibrating(self):
        """Span for the benchmark's own calibration, which no layer reports."""
        return self.span("calibration")

    def timed(self, layer: str, function):
        def wrapper(*args, **kwargs):
            with self.span(layer):
                return function(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, block_classes, detector_class):
        """Patch the layer wrappers onto their classes for the duration."""
        patches = [
            (FrontEndEvaluator, "__call__", "evaluate"),
            (FrontEndEvaluator, "evaluate", "evaluate"),
            (FrontEndEvaluator, "build_point_chain", "chain_build"),
            (FrontEndEvaluator, "score_output", "score"),
            (EvaluationCache, "put", "cache"),
            (SweepCheckpoint, "append_many", "checkpoint"),
            (detector_class, "accuracy", "detect"),
            (detector_class, "soft_accuracy", "detect"),
        ]
        for cls in block_classes:
            layer = BLOCK_LAYERS.get(cls.__name__)
            if layer is not None:
                patches += [(cls, "process", layer), (cls, "power", "power")]
        # Wrap every original before patching any, so a subclass never
        # wraps its base class's wrapper.
        wrappers = [
            (cls, attribute, self.timed(layer, getattr(cls, attribute)))
            for cls, attribute, layer in patches
            if hasattr(cls, attribute)
        ]
        wrappers.append((EvaluationCache, "get", self._timed_get(EvaluationCache.get)))
        with ExitStack() as stack:
            for cls, attribute, wrapper in wrappers:
                stack.enter_context(_patched(cls, attribute, wrapper))
            yield self

    def _timed_get(self, get):
        def wrapper(*args, **kwargs):
            with self.span("cache"):
                evaluation = get(*args, **kwargs)
            if self._active and evaluation is not None:
                self.cache_hits += 1
            return evaluation

        return wrapper


@contextmanager
def _patched(cls, attribute: str, value):
    """Set ``cls.attribute`` for the duration, then restore the original."""
    owned = attribute in cls.__dict__
    original = cls.__dict__.get(attribute)
    setattr(cls, attribute, value)
    try:
        yield
    finally:
        if owned:
            setattr(cls, attribute, original)
        else:
            delattr(cls, attribute)
