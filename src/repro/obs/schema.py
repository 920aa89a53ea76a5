"""JSON-lines record schemas and the validator ``repro.obs`` exports.

Every machine-readable line the observability layer emits carries a
``"schema"`` field naming its record shape and version::

    {"schema": "repro.obs/metric/v1", "kind": "counter", ...}
    {"schema": "repro.obs/trace-event/v1", "name": "memo.record", ...}
    {"schema": "repro.campaign/job-metrics/v3", "key": "compress:fast:tiny", ...}

Versioned schemas are what make ``cmp``- and ``jq``-based CI checks
safe: a consumer can reject lines it does not understand instead of
silently misreading them, and a schema bump is an explicit, reviewable
event. :func:`validate_record` / :func:`validate_lines` implement a
deliberately small structural check (required fields + types) — not a
full JSON-Schema engine — and are what the CI job and the test suite
run over emitted streams. ``python -m repro.obs FILE...`` validates
files from the command line; a file whose whole body is one JSON
object with a ``traceEvents`` array is validated as a Chrome trace
document (:func:`validate_chrome_trace`) instead of line by line.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

SCHEMA_KEY = "schema"

#: One metric instrument (counter/gauge/histogram/series) snapshot.
METRIC_SCHEMA = "repro.obs/metric/v1"
#: One trace event (span/instant/counter sample).
TRACE_SCHEMA = "repro.obs/trace-event/v1"
#: One worker's shipped telemetry blob (registry snapshot + ring
#: events), carried inside the backend result channel and merged by
#: the engine — see :mod:`repro.obs.worker`.
WORKER_TELEMETRY_SCHEMA = "repro.obs/worker-telemetry/v1"
#: One campaign per-job metrics record (v3 added the ``worker`` lane
#: label); documented in docs/campaign.md.
JOB_METRICS_SCHEMA = "repro.campaign/job-metrics/v3"
#: One campaign-level summary record closing a metrics stream:
#: wall time, worker count, and the executor backend's mechanism
#: counters (forks/steals/respawns) under ``"backend"``.
CAMPAIGN_METRICS_SCHEMA = "repro.campaign/campaign-metrics/v1"
#: One durable campaign-journal record (CRC-framed on disk, written at
#: submit/attempt/outcome/merge boundaries; replayed by
#: ``CampaignRunner(resume=...)`` — see docs/robustness.md).
JOURNAL_SCHEMA = "repro.campaign/journal/v1"

_NUMBER = (int, float)

#: Required fields per schema: name -> (type or tuple of types).
_REQUIRED: Dict[str, Dict[str, tuple]] = {
    METRIC_SCHEMA: {
        "kind": (str,),
        "name": (str,),
    },
    TRACE_SCHEMA: {
        "name": (str,),
        "ph": (str,),
        "ts": _NUMBER,
        "cat": (str,),
        "clock": (str,),
    },
    WORKER_TELEMETRY_SCHEMA: {
        "job_key": (str,),
        "attempt": (int,),
        "worker": (str,),
        "metrics": (dict,),
        "events": (list,),
        "spans_dropped": (int,),
    },
    JOB_METRICS_SCHEMA: {
        "key": (str,),
        "status": (str,),
        "attempts": (int,),
        "retries": (int,),
        "host_seconds": _NUMBER,
    },
    CAMPAIGN_METRICS_SCHEMA: {
        "name": (str,),
        "jobs": (int,),
        "failed": (int,),
        "wall_seconds": _NUMBER,
        "workers": (int,),
        "backend": (dict,),
    },
    JOURNAL_SCHEMA: {
        "kind": (str,),
        "seq": (int,),
    },
}

#: Closed vocabularies for enum-like fields.
_ENUMS: Dict[Tuple[str, str], tuple] = {
    (METRIC_SCHEMA, "kind"): ("counter", "gauge", "histogram", "series"),
    (TRACE_SCHEMA, "ph"): ("X", "i", "C"),
    (TRACE_SCHEMA, "clock"): ("host", "sim"),
    (JOB_METRICS_SCHEMA, "status"): ("ok", "failed", "poisoned"),
    (JOURNAL_SCHEMA, "kind"): ("campaign-open", "campaign-resume",
                               "attempt", "outcome", "campaign-end"),
}

#: Chrome trace_event phases the exporter may emit ("M" = metadata).
_CHROME_PHASES = ("C", "M", "X", "i")


def stamp(schema: str, record: Dict[str, object]) -> Dict[str, object]:
    """Return *record* with its schema field set (copies, never mutates)."""
    stamped = dict(record)
    stamped[SCHEMA_KEY] = schema
    return stamped


def validate_record(record: object) -> List[str]:
    """Structural problems with one decoded record ([] when valid)."""
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    schema = record.get(SCHEMA_KEY)
    if not isinstance(schema, str):
        return ["missing or non-string 'schema' field"]
    required = _REQUIRED.get(schema)
    if required is None:
        return [f"unknown schema {schema!r}"]
    problems = []
    for field in sorted(required):
        types = required[field]
        if field not in record:
            problems.append(f"{schema}: missing required field {field!r}")
        elif not isinstance(record[field], types):
            problems.append(
                f"{schema}: field {field!r} is "
                f"{type(record[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    for (enum_schema, field), allowed in sorted(_ENUMS.items()):
        if enum_schema == schema and field in record:
            if record[field] not in allowed:
                problems.append(
                    f"{schema}: field {field!r} value "
                    f"{record[field]!r} not in {allowed}"
                )
    return problems


def validate_chrome_trace(document: object) -> List[str]:
    """Structural problems with a Chrome ``traceEvents`` document.

    The exporter's output (:mod:`repro.obs.chrome`) is not JSON lines,
    so it gets its own check: a ``traceEvents`` array whose entries
    carry the trace_event required fields, known phases, integer
    pid/tid lanes, and durations on complete ('X') events.
    """
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    if not events:
        return ["'traceEvents' is empty"]
    problems = []
    for number, event in enumerate(events):
        where = f"traceEvents[{number}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for field, types in (("name", (str,)), ("ph", (str,)),
                             ("pid", (int,)), ("tid", (int,)),
                             ("ts", _NUMBER)):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
            elif not isinstance(event[field], types):
                problems.append(
                    f"{where}: field {field!r} is "
                    f"{type(event[field]).__name__}"
                )
        phase = event.get("ph")
        if isinstance(phase, str) and phase not in _CHROME_PHASES:
            problems.append(
                f"{where}: phase {phase!r} not in {_CHROME_PHASES}"
            )
        if phase == "X" and not isinstance(event.get("dur"), _NUMBER):
            problems.append(f"{where}: 'X' event without numeric 'dur'")
    return problems


def validate_lines(lines: Iterable[str]) -> List[str]:
    """Validate a JSON-lines stream; returns per-line problems."""
    problems = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {number}: not JSON ({exc})")
            continue
        for problem in validate_record(record):
            problems.append(f"line {number}: {problem}")
    return problems


def validate_file(path: str) -> List[str]:
    """Validate one file — ``.jsonl`` streams or a Chrome trace JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        try:
            document = json.loads(text)
        except ValueError:
            document = None
        if isinstance(document, dict) and "traceEvents" in document:
            return [f"{path}: {problem}"
                    for problem in validate_chrome_trace(document)]
    return [f"{path}: {problem}"
            for problem in validate_lines(text.splitlines())]
