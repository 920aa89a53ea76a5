"""Crash-safe campaign supervision: the durable journal and helpers.

A campaign that dies at job 94/100 must not be re-driven from the top.
This module provides the pieces the engine composes into crash-safety
(see docs/robustness.md § *Crash-safe campaigns*):

* **The campaign journal** — a durable, append-only record of engine
  decisions (:class:`CampaignJournal` writes, :func:`read_journal`
  replays). Records are schema-stamped dicts
  (``repro.campaign/journal/v1``), pickled, in an open-ended
  :mod:`repro.framing` container (FSCJ): the shared preamble, then one
  CRC-framed record per append and **no whole-file trailer** — every
  append is self-contained and fsync'd, so a SIGKILL mid-write leaves
  a readable prefix plus at most one torn tail frame, which the reader
  drops and counts. ``CampaignRunner(resume=...)`` replays the journal,
  re-verifies the recorded job keys against the current campaign, and
  skips completed jobs — producing output byte-identical to an
  uninterrupted run because recorded :class:`JobResult` payloads
  round-trip losslessly.

* **Heartbeats** — the :data:`HEARTBEAT` sentinel workers interleave
  with results on the one connection each child process already has so
  the engine can tell a *hung* worker (silent beyond ``hang_after``)
  from a merely *slow* one, distinctly from deadline expiry.

* **Seeded retry jitter** — :func:`retry_delay` spreads the engine's
  exponential backoff deterministically per ``(job_key, attempt)`` so
  many workers retrying after one common failure don't synchronize.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import framing
from repro.errors import CampaignUsageError
from repro.obs.schema import JOURNAL_SCHEMA, stamp

__all__ = [
    "HEARTBEAT",
    "CampaignJournal",
    "Heartbeat",
    "JOURNAL_MAGIC",
    "JournalReplay",
    "heartbeat_interval",
    "read_journal",
    "retry_delay",
    "verify_resume",
]

JOURNAL_MAGIC = b"FSCJ"
_JOURNAL_VERSION = 1
_HEADER = framing.preamble(JOURNAL_MAGIC, _JOURNAL_VERSION)

#: Outcome statuses that are terminal for a job and safe to skip on
#: resume; a job recorded with any other status re-runs.
TERMINAL_STATUSES = ("ok", "failed", "poisoned")


class Heartbeat:
    """Picklable liveness sentinel a worker sends between results."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Heartbeat()"


HEARTBEAT = Heartbeat()


def heartbeat_interval(hang_after: Optional[float]) -> Optional[float]:
    """Beat period for a *hang_after* budget (several beats per budget)."""
    if hang_after is None:
        return None
    return max(min(hang_after / 4.0, 1.0), 0.02)


def retry_delay(backoff: float, job_key: str, attempt: int) -> float:
    """Exponential backoff with deterministic, seeded jitter.

    Base delay is the engine's historical ``backoff * 2**(attempt-1)``;
    the jitter factor in ``[1.0, 1.5)`` is drawn from a SHA-256 of
    ``job_key`` and *attempt*, so it is identical across runs and
    hosts (asserted in tests) while de-synchronizing distinct jobs
    that fail simultaneously (e.g. on one full disk).
    """
    base = backoff * (2 ** (attempt - 1))
    digest = hashlib.sha256(
        f"{job_key}#{attempt}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base * (1.0 + 0.5 * fraction)


class CampaignJournal:
    """Append-only, CRC-framed writer for campaign journal records.

    Opening an empty (or absent) file writes the header; opening an
    existing journal scans it to continue the record sequence. Every
    :meth:`append` flushes and fsyncs before returning, so a record the
    engine has moved past is durable — the property the engine-kill
    chaos drill relies on.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        existing = 0
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            existing = len(read_journal(path).records)
        self._stream = open(path, "ab")
        self._seq = existing
        if fresh:
            self._stream.write(_HEADER)
            self._sync()

    @property
    def records_written(self) -> int:
        """Records in the file, including any written by prior runs."""
        return self._seq

    def append(self, kind: str, **fields: object) -> Dict[str, object]:
        """Durably append one schema-stamped record; returns it."""
        record = stamp(JOURNAL_SCHEMA,
                       {"kind": kind, "seq": self._seq, **fields})
        self._stream.write(framing.frame(
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)))
        self._sync()
        self._seq += 1
        return record

    def _sync(self) -> None:
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class JournalReplay:
    """Decoded journal state, ready for the engine to resume from."""

    path: str
    #: Campaign identity from the ``campaign-open`` record (None when
    #: the journal died before the open record landed).
    name: Optional[str] = None
    backend: Optional[str] = None
    job_keys: List[str] = field(default_factory=list)
    #: Terminal per-job outcomes (``ok``/``failed``/``poisoned``),
    #: keyed by job key — exactly what a resumed run may skip.
    outcomes: Dict[str, object] = field(default_factory=dict)
    records: List[Dict[str, object]] = field(default_factory=list)
    #: Damaged/torn tail frames dropped by the reader (0 or 1: the
    #: reader stops at the first bad frame).
    torn_records: int = 0
    #: ``campaign-end`` when the run closed cleanly; None for a
    #: journal cut short by a crash.
    terminal: Optional[str] = None

    @property
    def completed(self) -> int:
        """Jobs with a durable terminal outcome."""
        return len(self.outcomes)


def read_journal(path: str) -> JournalReplay:
    """Replay a campaign journal, tolerating a torn tail.

    Raises :class:`CampaignUsageError` only for files that are not
    journals at all (wrong magic); damage *after* the header is expected
    crash evidence and degrades to a shorter replay.
    """
    replay = JournalReplay(path=path)
    with open(path, "rb") as stream:
        data = stream.read()
    if not data:
        return replay
    if not data.startswith(_HEADER):
        raise CampaignUsageError(
            f"{path}: not a campaign journal (bad magic/version)")
    payloads, intact = framing.Reader(data, pos=len(_HEADER)).frames(
        None, strict=False)
    replay.torn_records = 0 if intact else 1
    for payload in payloads:
        try:
            record = pickle.loads(payload)
        except Exception:
            record = None
        if not isinstance(record, dict):
            replay.torn_records = 1
            break
        replay.records.append(record)
    for record in replay.records:
        kind = record.get("kind")
        if kind == "campaign-open":
            replay.name = record.get("name")
            replay.backend = record.get("backend")
            replay.job_keys = list(record.get("jobs") or ())
        elif kind == "outcome":
            result = record.get("result")
            status = getattr(result, "status", None)
            if status in TERMINAL_STATUSES:
                replay.outcomes[record.get("key")] = result
        elif kind == "campaign-end":
            replay.terminal = kind
    return replay


def verify_resume(replay: JournalReplay, name: str,
                  job_keys: Sequence[str]) -> None:
    """Check a journal actually belongs to the campaign being resumed.

    Raises :class:`CampaignUsageError` naming the first mismatch —
    resuming a different campaign's journal would silently merge
    foreign results. An empty journal (crash before the open record) passes:
    resuming it is just a fresh run.
    """
    if replay.name is None:
        return
    if replay.name != name:
        raise CampaignUsageError(
            f"{replay.path}: journal records campaign "
            f"{replay.name!r}, not {name!r}")
    current = list(job_keys)
    if replay.job_keys != current:
        recorded = set(replay.job_keys)
        wanted = set(current)
        missing = sorted(wanted - recorded)
        extra = sorted(recorded - wanted)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"extra {extra}")
        if not detail:
            detail.append("job order changed")
        raise CampaignUsageError(
            f"{replay.path}: journal does not match campaign "
            f"{name!r} ({'; '.join(detail)})")
    stale = sorted(set(replay.outcomes) - set(current))
    if stale:
        raise CampaignUsageError(
            f"{replay.path}: journal has outcomes for unknown jobs "
            f"{stale}")
