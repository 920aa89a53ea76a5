"""Distributed telemetry — collect in workers, ship, merge in parent.

Since the backends PR, parallel campaigns run their simulations in
places the parent's :class:`~repro.obs.core.Observer` cannot reach: a
forked child, a spawn-isolated interpreter, a sibling thread. This
module closes that gap with a collect → ship → merge pipeline:

* **collect** — the backend hands the worker a :class:`TelemetrySpec`
  (a frozen, picklable recipe mirroring the parent observer's
  configuration); the worker builds a :class:`WorkerCollector`, a
  local observer whose registry and bounded ring buffer absorb the
  simulation's deep telemetry at full fidelity, locally.
* **ship** — when the attempt finishes, the collector renders one
  compact, schema-stamped blob
  (``repro.obs/worker-telemetry/v1``: registry snapshot + ring events
  + drop count) that rides back on the *existing* result channel —
  a child process's connection to the engine (``fork`` and
  ``subprocess`` alike), the queue in-process handoff — as
  :attr:`JobResult.telemetry`. No second socket, no shared files.
* **merge** — the engine strips the blob off the result (it must
  never reach canonical output) and, after the run, calls
  :func:`merge_telemetry`: blobs are ordered by
  ``(job_key, attempt, worker)`` so the merged registry and trace are
  deterministic regardless of completion order. Counters sum
  globally; gauges and sampled series are namespaced per job
  (``name@job_key``) because overwriting one worker's last value with
  another's would be meaningless; histograms merge bucket-wise; every
  shipped trace event re-emits through the parent tracer carrying the
  worker's ``lane`` label, which the Chrome exporter renders as a
  distinct pid-3+ process per worker.

Zero-overhead-when-off is preserved end to end: a disabled parent
observer produces ``TelemetrySpec.from_observer(...) is None``, the
backends ship nothing, workers test one ``is None``, and the result
envelope carries no blob — asserted by the obs-on/off byte-identity
matrix in ``tests/obs/test_byte_identity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.obs.core import DEFAULT_SAMPLE_EVERY, Observer
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import WORKER_TELEMETRY_SCHEMA, stamp
from repro.obs.spans import TraceEvent, events_as_dicts

#: Default cap on ring-buffered events shipped per attempt. Smaller
#: than the parent's 4096 ring: every event shipped is pickled across
#: the result channel, and the span/sample density that matters for a
#: lane view fits comfortably.
DEFAULT_RING_CAPACITY = 2048


@dataclass(frozen=True)
class TelemetrySpec:
    """Picklable recipe for a worker-side collector.

    Crosses the placement boundary exactly like
    :class:`~repro.campaign.cachedir.StoreSpec`: the parent ships the
    *description*, the worker builds the live object. ``None`` (the
    spec's absence) is the disabled path — one ``is None`` test per
    attempt, nothing shipped.
    """

    sample_every: int = DEFAULT_SAMPLE_EVERY
    ring_capacity: int = DEFAULT_RING_CAPACITY

    @classmethod
    def from_observer(cls, obs) -> Optional["TelemetrySpec"]:
        """The spec matching a parent observer — None when disabled."""
        if obs is None or not getattr(obs, "enabled", False):
            return None
        return cls(sample_every=getattr(obs, "sample_every",
                                        DEFAULT_SAMPLE_EVERY))

    def collector(self, worker: object) -> "WorkerCollector":
        """Build the live worker-side collector labelled *worker*."""
        return WorkerCollector(self, worker)


class WorkerCollector:
    """A worker-local observer plus the blob renderer.

    ``collector.observer`` is a full :class:`~repro.obs.core.Observer`
    — the simulation is instrumented against the same hook surface it
    would see on the serial path, so worker telemetry has the same
    fidelity (memo spans, sampled series, cache counters), just
    collected locally and shipped at the end.
    """

    def __init__(self, spec: TelemetrySpec, worker: object):
        self.worker = str(worker)
        self.observer = Observer(sample_every=spec.sample_every,
                                 ring_capacity=spec.ring_capacity)

    def blob(self, job_key: str, attempt: int) -> Dict[str, object]:
        """Render the shipped ``repro.obs/worker-telemetry/v1`` blob."""
        ring = self.observer.ring
        return stamp(WORKER_TELEMETRY_SCHEMA, {
            "job_key": str(job_key),
            "attempt": int(attempt),
            "worker": self.worker,
            "metrics": self.observer.registry.as_dict(),
            "events": events_as_dicts(ring.events),
            "spans_dropped": ring.dropped,
        })


# -- deterministic merge --------------------------------------------------


def _order_key(blob: Dict[str, object]):
    return (str(blob.get("job_key", "")), int(blob.get("attempt", 0)),
            str(blob.get("worker", "")))


def _bucket_edge(key: str):
    """Histogram bucket keys are ``str(edge)``; recover the number
    with its original type so re-rendered keys stay byte-stable."""
    try:
        return int(key)
    except ValueError:
        return float(key)


def _merge_histogram(registry: MetricsRegistry, name: str,
                     payload: Dict[str, object]) -> bool:
    """Fold one shipped histogram snapshot into the registry.

    Returns False on a bucket-bound mismatch (different code versions
    on the two sides) — the caller counts those rather than guessing a
    rebinning.
    """
    buckets = sorted(
        ((_bucket_edge(key), int(count))
         for key, count in dict(payload.get("buckets") or {}).items()),
        key=lambda pair: pair[0],
    )
    edges = tuple(edge for edge, _ in buckets)
    target = registry.histogram(name, bounds=edges or None)
    if target.bounds != edges:
        return False
    for index, (_, count) in enumerate(buckets):
        target.counts[index] += count
    target.counts[-1] += int(payload.get("overflow", 0))
    target.count += int(payload.get("count", 0))
    target.total += payload.get("total", 0)
    for extreme in ("min", "max"):
        value = payload.get(extreme)
        if value is None:
            continue
        if extreme == "min" and (target.minimum is None
                                 or value < target.minimum):
            target.minimum = value
        if extreme == "max" and (target.maximum is None
                                 or value > target.maximum):
            target.maximum = value
    return True


def _merge_metrics(registry: MetricsRegistry,
                   blob: Dict[str, object]) -> None:
    job_key = str(blob.get("job_key", ""))
    metrics = blob.get("metrics") or {}

    counters = metrics.get("counters") or {}
    for name in sorted(counters):
        registry.counter(name).inc(int(counters[name]))
    dropped = int(blob.get("spans_dropped", 0))
    if dropped:
        registry.counter("obs.worker_spans_dropped").inc(dropped)

    gauges = metrics.get("gauges") or {}
    for name in sorted(gauges):
        registry.gauge(f"{name}@{job_key}").set(gauges[name])

    histograms = metrics.get("histograms") or {}
    for name in sorted(histograms):
        if not _merge_histogram(registry, name, histograms[name]):
            registry.counter("obs.merge_histogram_mismatch").inc()

    series = metrics.get("series") or {}
    for name in sorted(series):
        payload = series[name]
        target = registry.sampled(f"{name}@{job_key}")
        for timestamp, value in payload.get("samples") or ():
            target.append(timestamp, value)
        target.dropped += int(payload.get("dropped", 0))


def _merge_events(tracer, blob: Dict[str, object]) -> None:
    lane = str(blob.get("worker") or "worker")
    for record in blob.get("events") or ():
        tracer.emit(TraceEvent(
            str(record.get("name", "?")),
            str(record.get("ph", "i")),
            record.get("ts", 0),
            cat=str(record.get("cat", "obs")),
            dur=record.get("dur"),
            clock=str(record.get("clock", "host")),
            args=record.get("args"),
            lane=lane,
        ))


def merge_telemetry(obs, blobs: Iterable[Dict[str, object]]) -> int:
    """Merge shipped worker blobs into the parent observer.

    Blobs are processed in ``(job_key, attempt, worker)`` order, so the
    merged registry — and therefore the campaign metrics JSON-lines
    stream — is deterministic no matter which worker finished first.
    Shipped trace events re-emit through the parent tracer with their
    worker's lane label (flowing to the ring buffer, any JSON-lines
    trace sink, and ultimately the multi-lane Chrome export). Returns
    the number of blobs merged.
    """
    ordered: List[Dict[str, object]] = sorted(
        (blob for blob in blobs if isinstance(blob, dict)),
        key=_order_key,
    )
    registry = obs.registry
    tracer = obs.tracer
    for blob in ordered:
        _merge_metrics(registry, blob)
        _merge_events(tracer, blob)
    if ordered:
        registry.counter("obs.worker_blobs_merged").inc(len(ordered))
    return len(ordered)


__all__ = [
    "DEFAULT_RING_CAPACITY",
    "TelemetrySpec",
    "WorkerCollector",
    "merge_telemetry",
]
