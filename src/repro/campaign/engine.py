"""The campaign engine — parallel, fault-tolerant job execution.

A :class:`Campaign` is a declarative, ordered set of unique jobs. A
:class:`CampaignRunner` executes one, on the executor backend the
runner was built with:

* ``workers=0`` — serially, in-process (no backend, no timeout
  enforcement);
* ``workers>=1`` — sharded across an
  :class:`~repro.campaign.backends.ExecutorBackend` (``fork`` —
  per-job forked processes, the default; ``subprocess`` —
  spawn-isolated stdio workers; ``queue`` — in-process work-stealing
  threads) with per-job timeout where the backend can enforce it,
  bounded retry with exponential backoff for infrastructure failures,
  and crash isolation on the process-based backends.

Result merging is deterministic: :class:`CampaignResult` holds job
results in campaign order, keyed by :attr:`Job.key`, so the merged
output is byte-identical no matter which backend ran the jobs or which
workers finished first — ``workers=1`` and ``workers=N``, ``fork`` and
``queue``, cold and warm caches all produce the same
:meth:`CampaignResult.canonical_json`. Host-dependent measurements
(wall times, retries, memoization hit counts under warm-start, steal
counts) are deliberately kept out of the canonical
payload and emitted as JSON lines / backend metrics instead
(:meth:`CampaignResult.metrics_jsonl`,
:attr:`CampaignRunner.backend_metrics`).

The engine owns scheduling *policy* (order, retries, deadlines,
merge); backends own placement *mechanism* — see
:mod:`repro.campaign.backends.base` for the boundary and
docs/distributed.md for the capability matrix. Warm state lives on
disk in the shared :class:`~repro.campaign.cachedir.CacheStore`, not
in worker memory, so it survives worker recycling, entire campaigns,
and placement changes.

:meth:`CampaignRunner.run` runs on the caller's thread. An interrupt
(or any other exception) unwinds through ``backend.shutdown()`` and the
journal's ``close()``, so no worker outlives it; a journaled run is
resumed with ``resume=`` as after any other death.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.backends import (
    DEFAULT_BACKEND,
    BackendContext,
    ExecutorBackend,
    make_backend,
    validate_backend,
)
from repro.campaign.backends.base import Attempt
from repro.campaign.cachedir import StoreSpec
from repro.campaign.jobs import Job, JobResult
from repro.campaign.progress import NullSink, ObsSink, ProgressSink, TeeSink
from repro.campaign.supervise import (
    CampaignJournal,
    read_journal,
    retry_delay,
    verify_resume,
)
from repro.campaign.worker import execute_job
from repro.errors import PoisonedJobError
from repro.guard import faults
from repro.obs.core import ensure_observer
from repro.obs.schema import CAMPAIGN_METRICS_SCHEMA, stamp
from repro.obs.worker import TelemetrySpec, merge_telemetry

FORMAT_VERSION = 1

#: Base delay (seconds) before an infrastructure failure's retry,
#: doubled per attempt and jittered by
#: :func:`~repro.campaign.supervise.retry_delay`.
RETRY_BACKOFF = 0.25
#: Worker crashes per job key before the job is quarantined as poison
#: (``status="poisoned"``) instead of retried further.
POISON_THRESHOLD = 3


@dataclass(frozen=True)
class Campaign:
    """An ordered set of jobs with unique keys.

    Placement is not part of a campaign: the executor backend belongs
    to the :class:`CampaignRunner` that runs it and, like ``turbo``,
    never changes canonical results.
    """

    jobs: Tuple[Job, ...]
    name: str = "campaign"

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        seen = {}
        for job in self.jobs:
            if job.key in seen:
                raise ValueError(
                    f"duplicate job key {job.key!r}; give jobs with "
                    "identical coordinates distinct `variant` labels"
                )
            seen[job.key] = job

    def __len__(self) -> int:
        return len(self.jobs)

    @classmethod
    def grid(
        cls,
        workloads: Sequence[str],
        simulators: Sequence[str] = ("fast", "slow", "baseline"),
        scale: str = "test",
        params=None,
        include_native: bool = False,
        name: str = "campaign",
    ) -> "Campaign":
        """The common workload × simulator cross-product campaign."""
        jobs = []
        for workload in workloads:
            if include_native:
                jobs.append(Job(workload=workload, simulator="native",
                                scale=scale))
            for simulator in simulators:
                jobs.append(Job(workload=workload, simulator=simulator,
                                scale=scale, params=params))
        return cls(jobs=tuple(jobs), name=name)


@dataclass
class CampaignResult:
    """Merged results of one campaign run, in campaign (job) order."""

    campaign: Campaign
    results: List[JobResult]
    wall_seconds: float = 0.0
    workers: int = 0
    #: Executor-backend mechanism counters of the run
    #: (``{"backend": name, "forks": …, "steals": …}``; empty on the
    #: serial path) — host diagnostics, surfaced in the campaign-level
    #: metrics record, never in canonical output.
    backend_metrics: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_key: Dict[str, JobResult] = {}
        for result in self.results:
            self._by_key[result.key] = result

    def __getitem__(self, key: str) -> JobResult:
        return self._by_key[key]

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failed(self) -> List[JobResult]:
        return [result for result in self.results if not result.ok]

    def canonical_dict(self) -> Dict[str, object]:
        """Host-independent merged payload, in campaign order.

        Deliberately excludes the backend and worker count —
        placement is invisible in canonical output.
        """
        return {
            "format_version": FORMAT_VERSION,
            "name": self.campaign.name,
            "jobs": [result.canonical() for result in self.results],
        }

    def canonical_json(self) -> str:
        """The byte-identical merged document (sorted keys, indented)."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          indent=2) + "\n"

    def campaign_metrics_record(self) -> Dict[str, object]:
        """The campaign-level summary record closing a metrics stream.

        Carries the run's wall time, worker count, and the executor
        backend's mechanism counters (forks/steals/respawns) — the
        uniform home for host-side mechanism metrics, whichever
        backend ran the jobs. Schema
        ``repro.campaign/campaign-metrics/v1``.
        """
        return stamp(CAMPAIGN_METRICS_SCHEMA, {
            "name": self.campaign.name,
            "jobs": len(self.results),
            "failed": len(self.failed),
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "backend": {str(name): self.backend_metrics[name]
                        for name in sorted(self.backend_metrics)},
        })

    def metrics_jsonl(self) -> str:
        """One JSON line of structured metrics per job, plus one
        campaign-level summary line.

        Per-job records carry
        ``"schema": "repro.campaign/job-metrics/v3"``; the closing
        line carries ``repro.campaign/campaign-metrics/v1`` with the
        backend mechanism counters. Everything validates under
        ``python -m repro.obs`` (see docs/campaign.md for the field
        inventory).
        """
        lines = [
            json.dumps(result.metrics_record(), sort_keys=True,
                       default=str)
            for result in self.results
        ]
        lines.append(json.dumps(self.campaign_metrics_record(),
                                sort_keys=True, default=str))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class _Pending:
    index: int
    job: Job
    attempt: int = 1
    ready_at: float = 0.0


class CampaignRunner:
    """Executes campaigns; see the module docstring for semantics."""

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        sink: Optional[ProgressSink] = None,
        obs=None,
        backend: Optional[str] = None,
        journal: Optional[str] = None,
        resume: Optional[str] = None,
        hang_after: Optional[float] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if hang_after is not None and hang_after <= 0:
            raise ValueError("hang_after must be > 0")
        if (journal is not None and resume is not None
                and journal != resume):
            raise ValueError(
                "journal and resume must name the same file when both "
                "are given (a resumed run keeps appending in place)")
        self.workers = workers
        self.store_spec = StoreSpec(cache_dir=cache_dir)
        self.timeout = timeout
        self.retries = retries
        #: Durable journal path (``--journal``); every submit/outcome
        #: boundary appends a fsync'd record here. ``resume`` implies
        #: journalling to the same file.
        self.journal_path = journal if journal is not None else resume
        #: Journal to replay before running (``--resume``): completed
        #: jobs are verified against the campaign and skipped.
        self.resume_path = resume
        #: Supervisor hang budget (seconds): workers silent longer are
        #: presumed hung and replaced; None disables (the default).
        self.hang_after = hang_after
        #: Jobs skipped via journal replay on the last :meth:`run`.
        self.resumed = 0
        self._journal: Optional[CampaignJournal] = None
        self._crash_counts: Dict[str, int] = {}
        self._durable_outcomes = 0
        self.obs = ensure_observer(obs)
        #: Executor backend of the pool path (``workers >= 1``).
        self.backend = validate_backend(
            backend if backend is not None else DEFAULT_BACKEND)
        self.sink = sink if sink is not None else NullSink()
        if self.obs.enabled:
            # Telemetry rides the same event stream the progress sinks
            # see; job lifecycle becomes instants + outcome metrics.
            self.sink = TeeSink(self.sink, ObsSink(self.obs))
        #: Mechanism counters of the backend that ran the last
        #: campaign (forks/steals/respawns/…) — host diagnostics.
        self.backend_metrics: Dict[str, object] = {}
        #: Worker telemetry blobs collected during the current run
        #: (observed backend paths only), merged after the run.
        self._telemetry: List[Dict[str, object]] = []

    # ------------------------------------------------------------------

    def run(self, campaign: Campaign) -> CampaignResult:
        """Execute every job; merged results come back in job order.

        With ``resume=`` set, the journal at that path is replayed
        first: recorded job keys are verified against *campaign*
        (:func:`~repro.campaign.supervise.verify_resume`), jobs with a
        durable terminal outcome are skipped, and their recorded
        results merge in place — byte-identical to an uninterrupted
        run. With ``journal=`` set, every attempt and outcome boundary
        appends a durable record for a later resume.
        """
        self.backend_metrics = {}
        self._telemetry = []
        self._crash_counts = {}
        self._durable_outcomes = 0
        resumed = self._load_resume(campaign)
        self.resumed = len(resumed)
        self._journal = (CampaignJournal(self.journal_path)
                         if self.journal_path is not None else None)
        try:
            if self._journal is not None:
                if self._journal.records_written == 0:
                    self._journal.append(
                        "campaign-open", name=campaign.name,
                        backend=self.backend,
                        jobs=[job.key for job in campaign.jobs],
                    )
                else:
                    self._journal.append("campaign-resume",
                                         name=campaign.name,
                                         skipped=len(resumed))
            self.sink.emit(
                "campaign-start", name=campaign.name, jobs=len(campaign),
                workers=self.workers, cache_dir=self.store_spec.cache_dir,
                backend=self.backend,
            )
            for index in sorted(resumed):
                replayed = resumed[index]
                self.sink.emit("job-resumed", key=replayed.key,
                               status=replayed.status,
                               attempt=replayed.attempts)
            started = time.monotonic()  # repro-lint: disable=det/time-dependent
            with self.obs.span("campaign.run", cat="campaign",
                               campaign=campaign.name, jobs=len(campaign),
                               workers=self.workers):
                if self.workers == 0:
                    results = self._run_inline(campaign, resumed)
                else:
                    results = self._run_backend(campaign, resumed)
            if self._telemetry:
                # Shipped worker blobs → one campaign-wide registry and a
                # multi-lane trace, in deterministic (job_key, attempt)
                # order — see repro.obs.worker. Never touches results.
                with self.obs.span("campaign.merge_telemetry",
                                   cat="campaign",
                                   blobs=len(self._telemetry)):
                    merge_telemetry(self.obs, self._telemetry)
                self._telemetry = []
            wall = time.monotonic() - started  # repro-lint: disable=det/time-dependent
            outcome = CampaignResult(
                campaign=campaign, results=results, wall_seconds=wall,
                workers=self.workers,
                backend_metrics=dict(self.backend_metrics),
            )
            self.sink.emit(
                "campaign-end", name=campaign.name, jobs=len(campaign),
                failed=len(outcome.failed), wall_seconds=round(wall, 3),
            )
            if self._journal is not None:
                # Terminal record: distinguishes a run that *finished*
                # from a journal cut short by a crash or an interrupt.
                self._journal.append(
                    "campaign-end", name=campaign.name,
                    failed=len(outcome.failed),
                )
            return outcome
        finally:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def _load_resume(self, campaign: Campaign) -> Dict[int, JobResult]:
        """Replay + verify the resume journal; index → recorded result.

        A missing or empty journal resumes as a fresh run (the crash
        may have come before anything durable landed).
        """
        if self.resume_path is None or not os.path.exists(self.resume_path):
            return {}
        replay = read_journal(self.resume_path)
        verify_resume(replay, campaign.name,
                      [job.key for job in campaign.jobs])
        return {
            index: replay.outcomes[job.key]
            for index, job in enumerate(campaign.jobs)
            if job.key in replay.outcomes
        }

    def _journal_outcome(self, result: JobResult) -> None:
        """Durably record one terminal job outcome.

        Also drives the engine-kill chaos hook, which counts *durable*
        outcomes — the kill always lands just after a record the resume
        path can replay.
        """
        if self._journal is None:
            return
        self._journal.append("outcome", key=result.key,
                             status=result.status,
                             attempts=result.attempts, result=result)
        self._durable_outcomes += 1
        plan = faults.active_plan()
        if plan is not None:
            faults.maybe_kill_engine(self._durable_outcomes, plan)

    # -- serial in-process path -----------------------------------------

    def _run_inline(self, campaign: Campaign,
                    resumed: Optional[Dict[int, JobResult]] = None,
                    ) -> List[JobResult]:
        resumed = resumed or {}
        store = self.store_spec.build(obs=self.obs, sink=self.sink)
        results = []
        for position, job in enumerate(campaign.jobs):
            if position in resumed:
                results.append(resumed[position])
                continue
            self.sink.emit("job-start", key=job.key, attempt=1)
            if self._journal is not None:
                self._journal.append("attempt", key=job.key, attempt=1)
            with self.obs.span("campaign.job", cat="campaign",
                               key=job.key):
                outcome = execute_job(job, store, obs=self.obs)
            self._emit_outcome(outcome)
            self._journal_outcome(outcome)
            results.append(outcome)
        return results

    # -- backend pool path ----------------------------------------------

    def _run_backend(self, campaign: Campaign,
                     resumed: Optional[Dict[int, JobResult]] = None,
                     ) -> List[JobResult]:
        resumed = resumed or {}
        backend = make_backend(self.backend)
        backend.start(BackendContext(
            workers=self.workers, store_spec=self.store_spec,
            timeout=self.timeout,
            telemetry=TelemetrySpec.from_observer(self.obs),
            hang_after=self.hang_after,
        ))
        pending: List[_Pending] = [
            _Pending(index=i, job=job)
            for i, job in enumerate(campaign.jobs)
            if i not in resumed
        ]
        in_flight: Dict[int, Attempt] = {}
        finished: Dict[int, JobResult] = dict(resumed)
        try:
            while pending or in_flight:
                now = time.monotonic()  # repro-lint: disable=det/time-dependent
                self._launch_ready(backend, pending, in_flight, now)
                self._wait(backend, pending, in_flight, now)
                now = time.monotonic()  # repro-lint: disable=det/time-dependent
                self._collect(backend, pending, in_flight, finished, now)
        finally:
            backend.shutdown()
            counters = backend.metrics()
            self.backend_metrics = dict(backend=backend.name,
                                        **counters)
            # Mirror mechanism counters into the merged registry after
            # shutdown: the backend's internal counters are the single
            # source of truth, so the obs view can never disagree with
            # metrics() (the old per-event bumps could — see the
            # queue backend's steal accounting).
            for name in sorted(counters):
                self.obs.counter(f"backend.{backend.name}.{name}",
                                 int(counters[name]))
        return [finished[i] for i in range(len(campaign.jobs))]

    def _launch_ready(self, backend: ExecutorBackend,
                      pending: List[_Pending],
                      in_flight: Dict[int, Attempt], now: float) -> None:
        while backend.active() < backend.capacity():
            slot_item = None
            for item in pending:
                if item.ready_at <= now:
                    slot_item = item
                    break
            if slot_item is None:
                return
            pending.remove(slot_item)
            deadline = (now + self.timeout
                        if self.timeout is not None else None)
            attempt = Attempt(index=slot_item.index, job=slot_item.job,
                              attempt=slot_item.attempt,
                              deadline=deadline)
            backend.submit(attempt)
            in_flight[attempt.index] = attempt
            self.sink.emit("job-start", key=slot_item.job.key,
                           attempt=slot_item.attempt)
            if self._journal is not None:
                self._journal.append("attempt", key=slot_item.job.key,
                                     attempt=slot_item.attempt)

    def _wait(self, backend: ExecutorBackend, pending: List[_Pending],
              in_flight: Dict[int, Attempt], now: float) -> None:
        """Block until a result, a deadline, or a backoff expiry."""
        bounds = [attempt.deadline for attempt in in_flight.values()
                  if attempt.deadline is not None]
        bounds.extend(item.ready_at for item in pending
                      if item.ready_at > now)
        if self.hang_after is not None and in_flight:
            # Wake at least twice per hang budget so the supervisor's
            # reap sweep runs even when nothing else bounds the wait.
            bounds.append(now + self.hang_after / 2.0)
        timeout = None
        if bounds:
            timeout = max(min(bounds) - now, 0.0)
            if timeout == 0.0:
                # A bound already passed; the next reap resolves it.
                # The tiny floor keeps the loop from spinning in the
                # window where it cannot.
                timeout = 0.02
        backend.wait(timeout)

    def _collect(self, backend: ExecutorBackend,
                 pending: List[_Pending], in_flight: Dict[int, Attempt],
                 finished: Dict[int, JobResult], now: float) -> None:
        for outcome in backend.reap(now):
            attempt = outcome.attempt
            in_flight.pop(attempt.index, None)

            if outcome.result is not None:
                outcome.result.attempts = attempt.attempt
                blob = outcome.result.telemetry
                if blob is not None:
                    # Strip the shipped blob off the result *before*
                    # anything canonical can see it; the engine's
                    # attempt number is authoritative for merge order.
                    outcome.result.telemetry = None
                    if self.obs.enabled and isinstance(blob, dict):
                        blob["attempt"] = attempt.attempt
                        self._telemetry.append(blob)
                if outcome.result.worker is None:
                    label = (blob.get("worker")
                             if isinstance(blob, dict) else None)
                    if label is None and outcome.worker is not None:
                        label = str(outcome.worker)
                    outcome.result.worker = label
                self._emit_outcome(outcome.result, worker=outcome.worker)
                finished[attempt.index] = outcome.result
                self._journal_outcome(outcome.result)
                continue

            # Infrastructure failure: quarantine a poison job, else
            # retry with jittered backoff, else fail.
            failure = outcome.failure or "worker lost"
            kind = outcome.failure_kind or "crash"
            if kind == "crash":
                key = attempt.job.key
                crashes = self._crash_counts.get(key, 0) + 1
                self._crash_counts[key] = crashes
                if crashes >= POISON_THRESHOLD:
                    # A job that keeps killing workers is isolated
                    # instead of burning the retry budget (and more
                    # workers) on it; sibling jobs keep running.
                    result = JobResult(
                        job=attempt.job, status="poisoned",
                        attempts=attempt.attempt,
                        error=str(PoisonedJobError(key, crashes, failure)),
                    )
                    self._emit_outcome(result, worker=outcome.worker)
                    finished[attempt.index] = result
                    self._journal_outcome(result)
                    continue
            if attempt.attempt <= self.retries:
                delay = retry_delay(RETRY_BACKOFF, attempt.job.key,
                                    attempt.attempt)
                self.sink.emit(
                    "job-retry", key=attempt.job.key,
                    attempt=attempt.attempt, error=failure,
                    backoff_seconds=round(delay, 4),
                )
                pending.append(_Pending(
                    index=attempt.index, job=attempt.job,
                    attempt=attempt.attempt + 1, ready_at=now + delay,
                ))
            else:
                result = JobResult(
                    job=attempt.job, status="failed",
                    attempts=attempt.attempt, error=failure,
                )
                self._emit_outcome(result, worker=outcome.worker)
                finished[attempt.index] = result
                self._journal_outcome(result)

    def _emit_outcome(self, outcome: JobResult,
                      worker: Optional[object] = None) -> None:
        if outcome.ok:
            kind = "job-ok"
        elif outcome.status == "poisoned":
            kind = "job-poisoned"
        else:
            kind = "job-failed"
        fields = {
            "key": outcome.key,
            "attempt": outcome.attempts,
            "seconds": round(outcome.host_seconds, 3),
        }
        if worker is not None:
            fields["worker"] = worker
        if outcome.result is not None:
            fields["cycles"] = outcome.result.cycles
            fields["instructions"] = outcome.result.instructions
        if outcome.error is not None:
            fields["error"] = outcome.error
        self.sink.emit(kind, **fields)
