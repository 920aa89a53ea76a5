"""``repro.obs`` — zero-overhead-when-off telemetry.

The observability layer the evaluation tables only hint at: counters,
gauges, fixed-bucket histograms, and sampled per-cycle series
(:mod:`repro.obs.metrics`); span-based tracing of memo-engine phases,
campaign job lifecycles, and pipeline cycles with ring-buffer /
JSON-lines sinks (:mod:`repro.obs.spans`); Chrome ``trace_event``
export viewable in Perfetto (:mod:`repro.obs.chrome`); and
schema-versioned JSON-lines records with a validator
(:mod:`repro.obs.schema`).

The contract, enforced by test and by the ``obs/`` lint family: with
observability **disabled** (the default — every hook resolves to
:data:`NULL_OBS`), all simulated statistics and canonical outputs are
byte-identical to an enabled run. Observers read simulation state,
never write it.

Quick start::

    from repro.api import simulate
    from repro.obs import make_observer

    obs = make_observer(sample_every=100)
    result = simulate("compress", engine="fast", scale="tiny", obs=obs)
    obs.write_trace("compress.trace.json")   # chrome://tracing
    print(obs.summary())

See docs/observability.md for the metric taxonomy and span naming
convention.
"""

from repro.obs.core import (
    NULL_OBS,
    NullObserver,
    Observer,
    ensure_observer,
    make_observer,
)
from repro.obs.chrome import (
    chrome_trace,
    render_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SampledSeries,
)
from repro.obs.schema import (
    CAMPAIGN_METRICS_SCHEMA,
    JOB_METRICS_SCHEMA,
    METRIC_SCHEMA,
    TRACE_SCHEMA,
    WORKER_TELEMETRY_SCHEMA,
    stamp,
    validate_chrome_trace,
    validate_file,
    validate_lines,
    validate_record,
)
from repro.obs.spans import (
    JsonlTraceSink,
    NullTraceSink,
    RingBufferSink,
    SpanTracer,
    TraceEvent,
    TraceSink,
)
from repro.obs.worker import (
    TelemetrySpec,
    WorkerCollector,
    merge_telemetry,
)

__all__ = [
    "CAMPAIGN_METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "JOB_METRICS_SCHEMA",
    "JsonlTraceSink",
    "METRIC_SCHEMA",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObserver",
    "NullTraceSink",
    "Observer",
    "RingBufferSink",
    "SampledSeries",
    "SpanTracer",
    "TRACE_SCHEMA",
    "TelemetrySpec",
    "TraceEvent",
    "TraceSink",
    "WORKER_TELEMETRY_SCHEMA",
    "WorkerCollector",
    "chrome_trace",
    "ensure_observer",
    "make_observer",
    "merge_telemetry",
    "render_chrome_trace",
    "stamp",
    "validate_chrome_trace",
    "validate_file",
    "validate_lines",
    "validate_record",
    "write_chrome_trace",
]
