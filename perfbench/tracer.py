"""Layer spans recorded from outside the program.

The tracer wraps each layer's public entry points where their callers look
them up (a module attribute, or a method on its class), records one span
per call in memory, and restores every original on exit.  Nothing under
``src/`` knows it is being traced.

A span's self time is its duration minus the time its direct child spans
cover; summing self times per layer answers "where did the wall time go?"
without double counting nested layers.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np


def _rows(args, kwargs, result):
    x = np.asarray(args[1])
    return {"rows": int(x.shape[0]) if x.ndim else 1}


def _fused_rows(args, kwargs, result):
    return {"rows": sum(int(np.asarray(inputs).shape[0]) for _, inputs in args[1])}


def _im2col_bytes(args, kwargs, result):
    return {"bytes": int(result.size) * int(result.itemsize)}


def _mc_call(args, kwargs, result):
    return {
        "tuned": kwargs.get("self_tuning") is not None,
        "chips": len(result.accuracies),
    }


#: ``(layer, span name, "module:Class.attr" or "module:attr", attrs hook)``.
#: Module-level functions are patched in every module that imported them
#: by name, because that is where the caller looks them up.
ENTRY_POINTS = [
    ("training", "training.pretrain_epoch", "repro.training.loop:train_epoch", None),
    ("training", "training.qavat_fit", "repro.training.qavat:QavatTrainer.fit", None),
    ("training", "training.step", "repro.training.qavat:QavatTrainer.train_step", None),
    ("training", "training.bn_reestimate",
     "repro.training.baselines:reestimate_bn_statistics", None),
    ("quant", "quant.convert", "repro.training.baselines:convert_to_quantized", None),
    ("quant", "quant.convert", "repro.quant.ptq:convert_to_quantized", None),
    ("quant", "quant.calibrate", "repro.training.baselines:calibrate_model", None),
    ("quant", "quant.calibrate", "repro.quant.calibration:calibrate_model", None),
    ("quant", "quant.mmse", "repro.quant.qlayers:mmse_scale", None),
    ("quant", "quant.mmse", "repro.quant.perchannel:mmse_scale", None),
    ("autograd", "autograd.backward", "repro.autograd.tensor:Tensor.backward", None),
    ("nn", "nn.conv_fwd", "repro.nn.conv:Conv2dFunction.forward", None),
    ("nn", "nn.conv_bwd", "repro.nn.conv:Conv2dFunction.backward", None),
    ("nn", "nn.im2col", "repro.nn.conv:im2col", _im2col_bytes),
    ("nn", "nn.im2col", "repro.nn.pooling:im2col", _im2col_bytes),
    ("nn", "nn.im2col", "repro.quant.qlayers:im2col", _im2col_bytes),
    ("nn", "nn.im2col", "repro.backends.fused:im2col", _im2col_bytes),
    ("eval", "eval.clean", "repro.eval.robustness:evaluate_clean", None),
    ("eval", "eval.mc", "repro.eval.robustness:evaluate_robustness", _mc_call),
    ("selftuning", "selftuning.correct", "repro.selftuning.tuner:SelfTuner.correct", None),
    ("backends", "backends.program",
     "repro.backends.fakequant:FakeQuantBackend.program", None),
    ("backends", "backends.program", "repro.backends.circuit:CircuitBackend.program", None),
    ("backends", "backends.forward", "repro.backends.base:ProgrammedChip.forward", _rows),
    ("backends", "backends.fused", "repro.backends.fused:FusedFleetForward.forward",
     _fused_rows),
    ("backends", "backends.fuse_build", "repro.backends.fused:FusedFleetForward.build", None),
    ("pim", "pim.mvm", "repro.pim.crossbar:CrossbarArray.mvm", None),
    ("pim", "pim.program", "repro.pim.crossbar:CrossbarArray.program", None),
    ("variability", "variability.realize", "repro.serve.engine:ChipDescriptor.realize", None),
    ("engine", "engine.run_trace", "repro.serve.engine:InferenceEngine.run_trace", None),
    ("engine", "engine.step", "repro.serve.engine:InferenceEngine.step", None),
    ("engine", "engine.warm_up", "repro.serve.engine:InferenceEngine.warm_up", None),
    ("batcher", "batcher.poll", "repro.serve.batcher:MicroBatcher.poll", None),
    ("cache", "cache.get_or_program", "repro.serve.cache:MappingCache.get_or_program", None),
    ("lifecycle", "lifecycle.install", "repro.serve.lifecycle:ChipLifecycle.install", None),
    ("lifecycle", "lifecycle.advance", "repro.serve.lifecycle:ChipLifecycle.advance", None),
    ("lifecycle", "lifecycle.recalibrate",
     "repro.serve.lifecycle:ChipLifecycle.recalibrate", None),
    ("lifecycle", "lifecycle.probe", "repro.serve.engine:InferenceEngine.probe_chip", None),
]

#: Layers in reporting order; ``bench`` is the benchmark's own root spans,
#: whose self time is everything no instrumented entry point covers.
LAYERS = [
    "bench", "training", "quant", "autograd", "nn", "eval", "selftuning", "backends",
    "pim", "variability", "engine", "batcher", "cache", "lifecycle",
]


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, layer: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def install(self, entry_points=ENTRY_POINTS) -> Tracer:
        """Wrap every entry point; :meth:`uninstall` puts the originals back."""
        for layer, name, target, hook in entry_points:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = self._wrap(original.__func__, name, layer, hook)
                replacement = classmethod(wrapped)
            else:
                replacement = self._wrap(original, name, layer, hook)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- summaries -------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total_s(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another ``name`` span."""
        return sum(
            span.seconds
            for span in self.by_name(name)
            if not _has_ancestor(span, lambda s: s.name == name)
        )

    def nested_layer_s(self, outer: str, layer: str) -> float:
        """Seconds of outermost ``layer`` spans that run inside an ``outer`` span."""
        return sum(
            span.seconds
            for span in self.spans
            if span.layer == layer
            and not _has_ancestor(span, lambda s: s.layer == layer)
            and _has_ancestor(span, lambda s: s.name == outer)
        )

    def layer_table(self) -> dict[str, dict]:
        """Per layer: span count, total (outermost spans) and self seconds."""
        table = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for span in self.spans:
            row = table[span.layer]
            row["calls"] += 1
            row["self_s"] += span.self_s
            if not _has_ancestor(span, lambda s, layer=span.layer: s.layer == layer):
                row["total_s"] += span.seconds
        return table


def _has_ancestor(span: Span, predicate) -> bool:
    node = span.parent
    while node is not None:
        if predicate(node):
            return True
        node = node.parent
    return False


def inside(name: str):
    """Predicate: the span runs inside a span called ``name``."""
    return lambda span: _has_ancestor(span, lambda s: s.name == name)
