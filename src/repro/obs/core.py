"""The observer — every instrumentation hook in one object.

Instrumented code (memo engine, simulators, campaign runner, pipeline
tracer) never talks to registries or sinks directly; it calls hooks on
an observer it was handed::

    with self.obs.span("memo.record", cat="memo"):
        ...
    self.obs.counter("memo.resyncs")
    self.obs.sample_cycle(world.cycle, self, iq_len=len(iq.entries))

Two implementations share that surface:

* :class:`Observer` — the live one: a
  :class:`~repro.obs.metrics.MetricsRegistry`, a
  :class:`~repro.obs.spans.SpanTracer` with a ring-buffer sink (live
  introspection) and optional JSON-lines sink, and the per-N-cycle
  sampler behind the sampled metric class.
* :class:`NullObserver` — the **default**: every hook is a no-op and
  ``span`` returns one shared do-nothing context manager, so code
  instrumented against the module-level :data:`NULL_OBS` pays one
  attribute test (``self._obs_on``) or one trivial call. With obs off,
  tier-1 timing and all canonical outputs are byte-identical to an
  obs-on run — asserted by ``tests/obs/test_byte_identity.py``.

Observers only ever *read* simulation state. The ``obs/`` lint family
(:mod:`repro.lint.obschecks`) statically forbids hook results from
flowing back into the simulation.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TextIO, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import METRIC_SCHEMA, stamp
from repro.obs.spans import (
    JsonlTraceSink,
    RingBufferSink,
    SpanTracer,
    TraceEvent,
    TraceSink,
)

__all__ = ["Observer", "NullObserver", "NULL_OBS", "make_observer",
           "ensure_observer"]

#: Default sampling period for per-cycle series, in simulated cycles.
DEFAULT_SAMPLE_EVERY = 256

#: Hook names shared by Observer and NullObserver (API-parity test).
HOOK_NAMES = (
    "span", "event", "counter", "gauge", "observe",
    "sample_cycle", "sample_pipeline",
)


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObserver:
    """The disabled observer: every hook compiles down to a no-op."""

    enabled = False

    def span(self, name: str, /, cat: str = "obs",
             **args: object) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, /, cat: str = "obs",
              **args: object) -> None:
        pass

    def counter(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: object) -> None:
        pass

    def observe(self, name: str, value: float,
                bounds: Optional[Tuple[float, ...]] = None) -> None:
        pass

    def sample_cycle(self, cycle: int, engine: object,
                     iq_len: Optional[int] = None) -> None:
        pass

    def sample_pipeline(self, cycle: int, iq_len: int) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"enabled": False}

    def trace_events(self) -> List[TraceEvent]:
        return []


#: The module-level null object instrumented code defaults to.
NULL_OBS = NullObserver()


class Observer:
    """Live observer: registry + tracer + sampler + introspection."""

    enabled = True

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        ring_capacity: int = 4096,
        trace_stream: Optional[TextIO] = None,
    ):
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.registry = MetricsRegistry()
        self.ring = RingBufferSink(ring_capacity)
        sinks: List[TraceSink] = [self.ring]
        if trace_stream is not None:
            sinks.append(JsonlTraceSink(trace_stream))
        self.tracer = SpanTracer(*sinks)
        self.sample_every = sample_every
        self._last_stripe: Optional[int] = None

    # -- generic hooks ---------------------------------------------------

    def span(self, name: str, /, cat: str = "obs", **args: object):
        """Time a ``with`` block as one span event."""
        return self.tracer.span(name, cat=cat, args=args or None)

    def event(self, name: str, /, cat: str = "obs",
              **args: object) -> None:
        """Record an instant event on the host timeline."""
        self.tracer.instant(name, cat=cat, args=args or None)

    def counter(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: object) -> None:
        self.registry.gauge(name).set(value)

    def observe(self, name: str, value: float,
                bounds: Optional[Tuple[float, ...]] = None) -> None:
        """Feed one observation into a fixed-bucket histogram."""
        self.registry.histogram(name, bounds).observe(value)

    # -- sampled hooks ---------------------------------------------------

    def _due(self, cycle: int) -> bool:
        stripe = cycle // self.sample_every
        if stripe == self._last_stripe:
            return False
        self._last_stripe = stripe
        return True

    def sample_cycle(self, cycle: int, engine: object,
                     iq_len: Optional[int] = None) -> None:
        """Per-N-cycle snapshot of the memo engine (sampled metrics).

        Called from both record mode (with the live iQ occupancy) and
        replay fast-forwarding (no iQ exists — ``iq_len`` is None).
        Reads engine state, never writes it.
        """
        if not self._due(cycle):
            return
        cache = engine.cache
        memo = engine.memo
        registry = self.registry
        registry.sampled("memo.pcache_bytes").append(cycle, cache.bytes_used)
        registry.sampled("memo.pcache_configs").append(cycle, len(cache))
        total = memo.replayed_cycles + memo.detailed_cycles
        hit_ratio = memo.replayed_cycles / total if total else 0.0
        registry.sampled("memo.hit_ratio").append(cycle, round(hit_ratio, 6))
        values: Dict[str, object] = {
            "pcache_bytes": cache.bytes_used,
            "hit_pct": round(100.0 * hit_ratio, 2),
        }
        if iq_len is not None:
            registry.sampled("pipeline.iq_occupancy").append(cycle, iq_len)
            values["iq_occupancy"] = iq_len
        self.tracer.counter_sample("memo.sampled", cycle, values,
                                   cat="sample")

    def sample_pipeline(self, cycle: int, iq_len: int) -> None:
        """Per-N-cycle iQ occupancy for non-memoized simulators."""
        if not self._due(cycle):
            return
        self.registry.sampled("pipeline.iq_occupancy").append(cycle, iq_len)
        self.tracer.counter_sample("pipeline.sampled", cycle,
                                   {"iq_occupancy": iq_len}, cat="sample")

    # -- introspection and export ---------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Live view: full registry + the recent span window.

        Safe to call mid-simulation (e.g. from a progress sink or a
        debugger) — it only reads.
        """
        recent = [event.as_dict() for event in self.ring.events[-32:]]
        return {
            "enabled": True,
            "metrics": self.registry.as_dict(),
            "recent_events": recent,
            "spans_dropped": self.ring.dropped,
            "spans_emitted": self.ring.emitted,
        }

    def trace_events(self) -> List[TraceEvent]:
        """Events currently held by the ring buffer."""
        return self.ring.events

    def write_trace(self, path: str) -> None:
        """Export the ring buffer as a Chrome/Perfetto trace JSON."""
        from repro.obs.chrome import write_chrome_trace

        write_chrome_trace(path, self.ring.events)

    def metrics_records(self) -> List[Dict[str, object]]:
        """Schema-stamped metric records (one per instrument)."""
        return [stamp(METRIC_SCHEMA, record)
                for record in self.registry.records()]

    def metrics_jsonl(self) -> str:
        """The metrics stream as JSON lines (sorted keys)."""
        lines = [json.dumps(record, sort_keys=True, default=str)
                 for record in self.metrics_records()]
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> str:
        """Human-readable digest for the ``obs`` CLI command."""
        registry = self.registry
        lines = ["observability summary"]
        if registry.counters:
            lines.append("  counters:")
            for name in sorted(registry.counters):
                lines.append(f"    {name:32s} "
                             f"{registry.counters[name].value}")
        if registry.gauges:
            lines.append("  gauges:")
            for name in sorted(registry.gauges):
                lines.append(f"    {name:32s} "
                             f"{registry.gauges[name].value}")
        if registry.histograms:
            lines.append("  histograms (count / mean / p50 / p99):")
            for name in sorted(registry.histograms):
                histogram = registry.histograms[name]
                lines.append(
                    f"    {name:32s} {histogram.count} / "
                    f"{histogram.mean:.1f} / {histogram.percentile(0.5)} "
                    f"/ {histogram.percentile(0.99)}"
                )
        if registry.series:
            lines.append("  sampled series (samples / last):")
            for name in sorted(registry.series):
                series = registry.series[name]
                lines.append(f"    {name:32s} {len(series.samples)} / "
                             f"{series.last()}")
        lines.append(f"  trace events: {self.ring.emitted} emitted, "
                     f"{self.ring.dropped} beyond ring capacity")
        return "\n".join(lines)


def make_observer(sample_every: int = DEFAULT_SAMPLE_EVERY,
                  ring_capacity: int = 4096,
                  trace_stream: Optional[TextIO] = None) -> Observer:
    """Build a live observer (the supported construction path)."""
    return Observer(sample_every=sample_every,
                    ring_capacity=ring_capacity,
                    trace_stream=trace_stream)


def ensure_observer(obs: Optional[object]):
    """Normalise an optional observer argument to a usable instance."""
    return obs if obs is not None else NULL_OBS
