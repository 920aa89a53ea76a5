"""Progress reporting — the campaign engine's one sink protocol.

The engine reports structured events (job started / finished /
retried) as well as plain log lines to a single :class:`ProgressSink`:

* :class:`TextSink` — human-readable one-liners to a stream;
* :class:`JsonlSink` — one JSON object per event (machine-readable,
  suitable for build logs and dashboards);
* :class:`NullSink` — silence;
* :class:`ObsSink` — mirrors events into a :class:`repro.obs.Observer`
  (instant trace events + job-outcome counters/histograms);
* :class:`TeeSink` — fans one event stream out to several sinks.

Events are free-form ``(kind, fields)`` pairs; the well-known kinds the
campaign engine emits are documented in ``docs/campaign.md``.
"""

from __future__ import annotations

import json
import sys
from typing import Optional, TextIO


class ProgressSink:
    """Protocol: receives structured progress events.

    Subclasses implement :meth:`emit`. ``kind`` names the event
    (``"log"``, ``"job-start"``, ``"job-ok"``, ``"job-retry"``,
    ``"job-failed"``, ``"campaign-start"``, ``"campaign-end"``) and the
    keyword fields carry its payload.
    """

    def emit(self, kind: str, **fields: object) -> None:
        raise NotImplementedError

    def log(self, message: str) -> None:
        """Convenience wrapper for plain log lines."""
        self.emit("log", message=message)


class NullSink(ProgressSink):
    """Drops every event."""

    def emit(self, kind: str, **fields: object) -> None:
        pass


def _render_text(kind: str, fields: dict) -> str:
    """One human-readable line per event."""
    if kind == "log":
        return str(fields.get("message", ""))
    parts = []
    if kind in ("cache-quarantined", "job-poisoned"):
        # Cache rot and a quarantined poison job must be visible to
        # operators, not silent.
        parts.append("WARNING:")
    parts.append(kind)
    key = fields.get("key")
    if key is not None:
        parts.append(str(key))
    detail = ", ".join(
        f"{name}={fields[name]}"
        for name in sorted(fields)
        if name not in ("key",) and fields[name] is not None
    )
    if detail:
        parts.append(f"({detail})")
    return " ".join(parts)


class TextSink(ProgressSink):
    """Human-readable progress lines on a stream (default stdout)."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream

    def emit(self, kind: str, **fields: object) -> None:
        stream = self.stream if self.stream is not None else sys.stdout
        print(_render_text(kind, fields), file=stream, flush=True)


class JsonlSink(ProgressSink):
    """One JSON object per event, keys sorted for stable output."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream

    def emit(self, kind: str, **fields: object) -> None:
        stream = self.stream if self.stream is not None else sys.stdout
        record = dict(fields)
        record["event"] = kind
        print(json.dumps(record, sort_keys=True, default=str),
              file=stream, flush=True)


class ObsSink(ProgressSink):
    """Mirrors progress events into an :class:`repro.obs.Observer`.

    Every event becomes an instant trace event (category
    ``"campaign"``); job outcomes additionally feed the event-based
    metrics (``campaign.jobs_ok`` / ``campaign.jobs_failed`` /
    ``campaign.retries`` counters and the ``campaign.job_ms``
    wall-time histogram). Stack it next to a Text/Jsonl sink with :class:`TeeSink`
    when both human output and telemetry are wanted.
    """

    def __init__(self, obs):
        self.obs = obs

    def emit(self, kind: str, **fields: object) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        obs.event(kind, cat="campaign",
                  **{k: v for k, v in sorted(fields.items())
                     if v is not None})
        if kind == "job-ok":
            obs.counter("campaign.jobs_ok")
            seconds = fields.get("seconds")
            if seconds is not None:
                # histogram buckets are integer-edged: record ms
                obs.observe("campaign.job_ms",
                            int(float(seconds) * 1000))
        elif kind == "job-failed":
            obs.counter("campaign.jobs_failed")
        elif kind == "job-poisoned":
            obs.counter("campaign.jobs_poisoned")
        elif kind == "job-retry":
            obs.counter("campaign.retries")
        elif kind == "job-resumed":
            obs.counter("campaign.jobs_resumed")


class TeeSink(ProgressSink):
    """Fans one event stream out to several sinks, in order."""

    def __init__(self, *sinks: ProgressSink):
        self.sinks = [sink for sink in sinks if sink is not None]

    def emit(self, kind: str, **fields: object) -> None:
        for sink in self.sinks:
            sink.emit(kind, **fields)


#: CLI-style mode name -> sink factory taking the output stream.
SINK_MODES = {
    "text": TextSink,
    "jsonl": JsonlSink,
    "silent": lambda stream: NullSink(),
}


def make_sink(
    mode: str = "text",
    stream: Optional[TextIO] = None,
) -> ProgressSink:
    """Build a sink from a CLI-style mode name."""
    if mode not in SINK_MODES:
        raise ValueError(f"unknown progress mode {mode!r}")
    return SINK_MODES[mode](stream)
