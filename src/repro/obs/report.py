"""``repro obs report`` — a text dashboard over campaign telemetry.

Reads the files a campaign run leaves behind — the merged metrics
JSON-lines stream (``repro.obs/metric/v1`` instrument records,
``repro.campaign/job-metrics/v3`` per-job records, the closing
``repro.campaign/campaign-metrics/v1`` record) and/or the multi-lane
Chrome trace — and renders the digest a person scanning a finished
campaign wants:

* campaign shape: jobs, failures, wall seconds, worker count, and the
  backend's mechanism counters (dispatches, steals, crashes, …);
* per-worker utilization: jobs run, busy seconds, and busy/wall ratio
  per lane, from the ``worker`` field job records carry;
* memo effectiveness: final hit ratio per job (the
  ``memo.hit_ratio@<job>`` sampled series the telemetry merge
  namespaces) plus encode/resync counters;
* turbo chain-compilation counters;
* reliability: retries, steals, crashes, timeouts.

Everything here is **read-only rendering of host-side diagnostics**;
nothing feeds back into canonical outputs. Sections with no data are
omitted, so the report degrades gracefully on partial inputs (a
metrics file alone, a trace alone, obs-off runs).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.obs.schema import (
    CAMPAIGN_METRICS_SCHEMA,
    JOB_METRICS_SCHEMA,
    METRIC_SCHEMA,
    SCHEMA_KEY,
    TRACE_SCHEMA,
)

class ReportData:
    """Everything :func:`render` needs, accumulated over input files."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, object] = {}
        self.series_last: Dict[str, object] = {}
        self.jobs: List[Dict[str, object]] = []
        self.campaigns: List[Dict[str, object]] = []
        #: lane label -> (event count, busy host microseconds)
        self.lanes: Dict[str, Tuple[int, float]] = {}
        self.files: List[str] = []

    def _lane(self, label: str, dur: object) -> None:
        count, busy = self.lanes.get(label, (0, 0.0))
        busy += float(dur) if isinstance(dur, (int, float)) else 0.0
        self.lanes[label] = (count + 1, busy)

    # -- record ingestion ------------------------------------------------

    def add_record(self, record: Dict[str, object]) -> None:
        schema = record.get(SCHEMA_KEY)
        if schema == METRIC_SCHEMA:
            kind = record.get("kind")
            name = str(record.get("name", "?"))
            if kind == "counter":
                self.counters[name] = (self.counters.get(name, 0)
                                       + int(record.get("value", 0)))
            elif kind == "gauge":
                self.gauges[name] = record.get("value")
            elif kind == "series":
                samples = record.get("samples") or []
                if samples:
                    self.series_last[name] = samples[-1][1]
        elif schema == JOB_METRICS_SCHEMA:
            self.jobs.append(record)
        elif schema == CAMPAIGN_METRICS_SCHEMA:
            self.campaigns.append(record)
        elif schema == TRACE_SCHEMA and record.get("lane") is not None:
            self._lane(str(record["lane"]), record.get("dur"))

    def add_chrome(self, document: Dict[str, object]) -> None:
        # Recover lane labels from the exporter's process_name
        # metadata ("fastsim worker <label>", pid >= 3).
        names: Dict[object, str] = {}
        events = document.get("traceEvents") or []
        for event in events:
            if (isinstance(event, dict)
                    and event.get("name") == "process_name"):
                label = str((event.get("args") or {}).get("name", ""))
                if label.startswith("fastsim worker "):
                    names[event.get("pid")] = label[len("fastsim worker "):]
        for event in events:
            if not isinstance(event, dict) or event.get("ph") != "X":
                continue
            label = names.get(event.get("pid"))
            if label is not None:
                self._lane(label, event.get("dur"))


def load(paths: List[str]) -> ReportData:
    """Parse metrics JSON-lines and/or Chrome trace files."""
    data = ReportData()
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        data.files.append(path)
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                document = json.loads(text)
            except ValueError:
                document = None
            if isinstance(document, dict) and "traceEvents" in document:
                data.add_chrome(document)
                continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                data.add_record(record)
    return data


# -- rendering ------------------------------------------------------------


def _prefixed(counters: Dict[str, int], prefix: str) -> Dict[str, int]:
    return {name: value for name, value in counters.items()
            if name.startswith(prefix)}


def _ratio(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    --"


def _campaign_section(data: ReportData, lines: List[str]) -> Optional[float]:
    wall: Optional[float] = None
    for record in data.campaigns:
        wall = float(record.get("wall_seconds", 0.0))
        lines.append(f"campaign {record.get('name', '?')}: "
                     f"{record.get('jobs', 0)} jobs, "
                     f"{record.get('failed', 0)} failed, "
                     f"{record.get('workers', 0)} workers, "
                     f"{wall:.3f}s wall")
        backend = record.get("backend") or {}
        if isinstance(backend, dict) and backend:
            pairs = ", ".join(f"{name}={backend[name]}"
                              for name in sorted(backend)
                              if name != "backend")
            name = backend.get("backend", "?")
            lines.append(f"  backend {name}: {pairs}")
    return wall


def _worker_section(data: ReportData, lines: List[str],
                    wall: Optional[float]) -> None:
    per_worker: Dict[str, Dict[str, float]] = {}
    for record in data.jobs:
        worker = record.get("worker")
        if worker is None:
            continue
        stats = per_worker.setdefault(
            str(worker), {"jobs": 0, "ok": 0, "busy": 0.0})
        stats["jobs"] += 1
        stats["ok"] += 1 if record.get("status") == "ok" else 0
        stats["busy"] += float(record.get("host_seconds") or 0.0)
    if not per_worker and not data.lanes:
        return
    lines.append("")
    lines.append("workers (jobs / ok / busy s / busy-wall ratio"
                 " / lane events):")
    labels = sorted(set(per_worker) | set(data.lanes))
    for label in labels:
        stats = per_worker.get(label, {"jobs": 0, "ok": 0, "busy": 0.0})
        events, lane_busy_us = data.lanes.get(label, (0, 0.0))
        busy = stats["busy"] or lane_busy_us / 1e6
        lines.append(
            f"  {label:20s} {int(stats['jobs']):4d} / "
            f"{int(stats['ok']):4d} / {busy:8.3f} / "
            f"{_ratio(busy, wall or 0.0)} / {events}"
        )


def _memo_section(data: ReportData, lines: List[str]) -> None:
    ratios = {name[len("memo.hit_ratio@"):]: value
              for name, value in data.series_last.items()
              if name.startswith("memo.hit_ratio@")}
    if "memo.hit_ratio" in data.series_last:
        ratios.setdefault("(serial)", data.series_last["memo.hit_ratio"])
    memo_counters = _prefixed(data.counters, "memo.")
    if not ratios and not memo_counters:
        return
    lines.append("")
    lines.append("memoization:")
    for job in sorted(ratios):
        value = ratios[job]
        shown = (f"{100.0 * value:5.1f}%"
                 if isinstance(value, (int, float)) else str(value))
        lines.append(f"  hit ratio {job:28s} {shown}")
    for name in sorted(memo_counters):
        lines.append(f"  {name:38s} {memo_counters[name]}")


def _turbo_section(data: ReportData, lines: List[str]) -> None:
    turbo: Dict[str, object] = {}
    turbo.update(_prefixed(data.counters, "turbo."))
    turbo.update({name: value for name, value in data.gauges.items()
                  if name.startswith("turbo.")})
    # Per-worker compile amortization from the job records: each job
    # carries its SegmentTable snapshot ("turbo") and, when a persisted
    # archive was installed, the install counters ("segstore").
    per_worker: Dict[str, Dict[str, int]] = {}
    seg_totals = {"installed": 0, "stale": 0, "mismatched": 0}
    for record in data.jobs:
        snapshot = record.get("turbo")
        if isinstance(snapshot, dict):
            worker = str(record.get("worker") or "(serial)")
            stats = per_worker.setdefault(
                worker, {"jobs": 0, "compiled": 0, "installed": 0,
                         "replays": 0})
            stats["jobs"] += 1
            stats["compiled"] += int(snapshot.get("segments_compiled")
                                     or 0)
            stats["installed"] += int(snapshot.get("segments_installed")
                                      or 0)
            stats["replays"] += int(snapshot.get("segment_replays") or 0)
        seg = record.get("segstore")
        if isinstance(seg, dict):
            for name in seg_totals:
                seg_totals[name] += int(seg.get(name) or 0)
    if not turbo and not per_worker:
        return
    lines.append("")
    lines.append("turbo (chain compilation):")
    for name in sorted(turbo):
        lines.append(f"  {name:38s} {turbo[name]}")
    if any(seg_totals.values()):
        shown = ", ".join(f"{name}={seg_totals[name]}"
                          for name in sorted(seg_totals))
        lines.append(f"  {'persisted segments':38s} {shown}")
    if per_worker:
        lines.append("  per-worker compile amortization "
                     "(jobs / compiled / installed / replays "
                     "/ replays-per-compile):")
        for worker in sorted(per_worker):
            stats = per_worker[worker]
            paid = stats["compiled"]
            amortized = (f"{stats['replays'] / paid:8.1f}" if paid
                         else "      --")
            lines.append(
                f"    {worker:18s} {stats['jobs']:4d} / "
                f"{stats['compiled']:5d} / {stats['installed']:5d} / "
                f"{stats['replays']:7d} / {amortized}"
            )


def _reliability_section(data: ReportData, lines: List[str]) -> None:
    entries: Dict[str, int] = {}
    retries = sum(int(record.get("retries") or 0) for record in data.jobs)
    if "campaign.retries" in data.counters:
        retries = max(retries, data.counters["campaign.retries"])
    if retries:
        entries["retries"] = retries
    for record in data.campaigns:
        backend = record.get("backend") or {}
        if not isinstance(backend, dict):
            continue
        for name in ("steals", "crashes", "timeouts", "respawns"):
            if backend.get(name):
                entries[name] = entries.get(name, 0) + int(backend[name])
    for name, value in _prefixed(data.counters, "backend.").items():
        tail = name.rsplit(".", 1)[-1]
        if tail in ("steals", "crashes", "timeouts", "respawns") and value:
            entries.setdefault(tail, int(value))
    if not entries:
        return
    lines.append("")
    lines.append("reliability:")
    for name in sorted(entries):
        lines.append(f"  {name:38s} {entries[name]}")


def render(data: ReportData) -> str:
    """The dashboard text for already-loaded telemetry."""
    lines: List[str] = []
    wall = _campaign_section(data, lines)
    if not lines:
        lines.append("campaign: (no campaign-metrics record found)")
    _worker_section(data, lines, wall)
    _memo_section(data, lines)
    _turbo_section(data, lines)
    _reliability_section(data, lines)
    if not data.jobs and not data.counters and not data.campaigns \
            and not data.lanes:
        lines.append("(no recognised telemetry records in "
                     f"{len(data.files)} file(s))")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    """CLI entry point: ``repro obs report FILE [FILE ...]``."""
    if not argv:
        print("usage: repro obs report FILE.jsonl|FILE.trace.json [...]",
              file=sys.stderr)
        return 2
    try:
        data = load(argv)
    except OSError as exc:
        print(f"cannot read telemetry: {exc}", file=sys.stderr)
        return 2
    print(render(data))
    return 0


__all__ = ["ReportData", "load", "main", "render"]
