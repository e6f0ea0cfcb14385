"""``repro.obs`` — observability for the serving stack.

Production-shaped instrumentation in three layers, all engine-agnostic:

* **metrics** (:mod:`repro.obs.metrics`) — :class:`Counter`,
  :class:`Gauge`, and a streaming log-bucketed :class:`Histogram` with
  O(1) memory and interpolated p50/p95/p99, owned by a
  :class:`MetricsRegistry`;
* **tracing** (:mod:`repro.obs.trace`) — request-scoped :class:`Span`
  context managers over an injectable clock, collected by a bounded
  :class:`SpanRecorder` (or a free :class:`NullRecorder` when tracing is
  off);
* **exporters** (:mod:`repro.obs.export`) — Prometheus text, span JSONL,
  and the schema-versioned :class:`BenchRecorder` behind the repo's
  ``BENCH_*.json`` perf trajectory — gated in CI by the same-scale
  regression comparator in :mod:`repro.obs.bench`.

:class:`Observability` bundles one registry + recorder + clock; the
serving engine owns one and threads it through every stage of a
request's life.
"""

from __future__ import annotations

from repro.obs.clock import Clock, FakeClock, MonotonicClock
from repro.obs.export import BENCH_SCHEMA, BenchRecorder, git_sha, to_prometheus
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import NULL_SPAN, NullRecorder, Span, SpanRecorder


class Observability:
    """One metrics registry + span recorder + clock, threaded as a unit.

    ``tracing=True`` (the default) records spans into a bounded
    :class:`SpanRecorder`; ``tracing=False`` swaps in a
    :class:`NullRecorder`, whose no-op spans are the disabled fast path —
    metrics and the injectable clock stay live either way, because they
    are O(1) and the telemetry layer depends on them.
    """

    def __init__(
        self,
        tracing: bool = True,
        clock: Clock | None = None,
        max_spans: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = (
            SpanRecorder(self.clock, max_spans=max_spans)
            if tracing
            else NullRecorder(self.clock)
        )
        # ``span(name, **attrs)`` opens a timed-region context manager and
        # ``event(name, **attrs)`` records an instantaneous span; both are
        # the recorder's own bound methods, so a disabled op (NullRecorder)
        # costs one call, not two.
        self.span = self.recorder.span
        self.event = self.recorder.event

    @classmethod
    def default(cls, tracing: bool = True, clock: Clock | None = None) -> "Observability":
        return cls(tracing=tracing, clock=clock)

    @classmethod
    def disabled(cls, clock: Clock | None = None) -> "Observability":
        """Metrics-only observability: tracing fully off (NullRecorder)."""
        return cls(tracing=False, clock=clock)

    @property
    def tracing(self) -> bool:
        return self.recorder.enabled

    def __repr__(self) -> str:
        return (
            f"Observability(tracing={self.tracing}, "
            f"metrics={len(self.registry)}, spans={len(self.recorder)})"
        )


__all__ = [
    "BENCH_SCHEMA",
    "BenchCheck",
    "BenchRecorder",
    "Clock",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_SPAN",
    "NullRecorder",
    "Observability",
    "Span",
    "SpanRecorder",
    "baseline_for",
    "compare_latest",
    "git_sha",
    "load_runs",
    "to_prometheus",
]

#: Names served lazily from :mod:`repro.obs.bench` — the bench gate is
#: also a ``python -m repro.obs.bench`` entry point, and an eager import
#: here would make runpy warn about the module already being loaded.
_BENCH_GATE_EXPORTS = frozenset(
    {"BenchCheck", "baseline_for", "compare_latest", "load_runs"}
)


def __getattr__(name: str):
    """Lazy re-exports of the :mod:`repro.obs.bench` gate API."""
    if name in _BENCH_GATE_EXPORTS:
        from repro.obs import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
