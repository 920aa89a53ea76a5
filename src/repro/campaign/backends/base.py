"""The executor boundary — where campaign scheduling meets placement.

The :class:`~repro.campaign.engine.CampaignRunner` owns *policy*:
campaign order, retry budgets, backoff, deadline arithmetic, result
merging, progress events. An :class:`ExecutorBackend` owns *mechanism*:
where an attempt physically runs (a supervised child process — forked
per attempt or spawned once and reused, one mechanism in
:mod:`~repro.campaign.backends.process` — or a work-stealing thread)
and how its outcome gets back.
Keeping the split here is what lets one declarative
:class:`~repro.campaign.engine.Campaign` fan out over any placement
while the merged canonical output stays byte-identical — the backend
never sees (and so can never reorder, drop, or mutate) the merge.

The engine drives a backend through a strict lifecycle::

    backend.start(context)
    while work remains:
        while backend.active() < backend.capacity() and ready jobs:
            backend.submit(Attempt(...))
        backend.wait(timeout)          # block until progress is possible
        for done in backend.reap(now): # completed / crashed / timed out
            ...retry or record...
    backend.shutdown()

Every attempt comes back exactly once, as an :class:`AttemptOutcome`:
either a :class:`~repro.campaign.jobs.JobResult` (including
deterministic failures — the executor raised) or an *infrastructure*
failure string (worker death, timeout), which is the engine's cue to
retry. Backends report host-side mechanism metrics (forks, respawns,
steals) through :meth:`ExecutorBackend.metrics`; these are
diagnostics, never part of canonical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.cachedir import StoreSpec
from repro.campaign.jobs import Job, JobResult


@dataclass(frozen=True)
class Attempt:
    """One scheduled execution attempt of one campaign job."""

    index: int  #: Position of the job in the campaign (merge order).
    job: Job
    attempt: int  #: 1-based attempt number (retries increment it).
    #: Absolute ``time.monotonic()`` deadline, or None for no timeout.
    #: The process backends enforce it preemptively (SIGKILL, then
    #: reap); the ``queue`` backend enforces it cooperatively —
    #: expired queued attempts are failed without running, expired
    #: running attempts are abandoned and their worker replaced (see
    #: docs/distributed.md's capability matrix).
    deadline: Optional[float] = None


@dataclass
class AttemptOutcome:
    """What became of one attempt — a result or an infra failure."""

    attempt: Attempt
    #: The job's result (ok *or* deterministic failure), when the
    #: attempt ran to completion.
    result: Optional[JobResult] = None
    #: Infrastructure failure description (worker crash, timeout) when
    #: ``result`` is None; the engine retries these.
    failure: Optional[str] = None
    #: Classification of an infrastructure failure: ``"crash"`` /
    #: ``"timeout"`` / ``"hang"``. Crashes feed the engine's
    #: poison-job quarantine; the distinction also keeps hang
    #: detection separate from deadline expiry in events and metrics.
    failure_kind: Optional[str] = None
    #: Host-side identity of the worker that ran the attempt (pid,
    #: thread label) — progress-event colour, never canonical.
    worker: Optional[object] = None


@dataclass
class BackendContext:
    """Everything a backend may need at :meth:`ExecutorBackend.start`."""

    workers: int
    store_spec: StoreSpec = field(default_factory=StoreSpec)
    #: The engine's per-job timeout (seconds) — backends that enforce
    #: deadlines use it to phrase the failure; None means no timeout.
    timeout: Optional[float] = None
    #: Worker-side telemetry recipe
    #: (:class:`~repro.obs.worker.TelemetrySpec`) the backend ships to
    #: each attempt, or None when observability is off — the
    #: zero-overhead contract: backends test this once per submit and
    #: put nothing in the envelope when it is None.
    telemetry: object = None
    #: Supervisor hang budget (seconds): a worker silent for longer —
    #: no heartbeat on its result channel (fork/subprocess), no
    #: completion since dispatch (queue) — is presumed hung and
    #: replaced. None disables hang detection (the default).
    hang_after: Optional[float] = None


class ExecutorBackend:
    """Protocol: executes attempts somewhere, reports outcomes once.

    Subclasses implement the six methods below; see the module
    docstring for the driving loop and docs/distributed.md for the
    capability matrix (isolation, timeout enforcement, crash retry)
    of the built-in ``fork`` / ``subprocess`` / ``queue`` backends.
    """

    #: Registry name (``fork`` / ``subprocess`` / ``queue``).
    name: str = "?"

    def start(self, context: BackendContext) -> None:
        raise NotImplementedError

    def capacity(self) -> int:
        """Max attempts this backend wants in flight at once."""
        raise NotImplementedError

    def active(self) -> int:
        """Attempts currently submitted and not yet reaped."""
        raise NotImplementedError

    def submit(self, attempt: Attempt) -> None:
        raise NotImplementedError

    def wait(self, timeout: Optional[float]) -> None:
        """Block until an outcome may be available (or *timeout*)."""
        raise NotImplementedError

    def reap(self, now: float) -> List[AttemptOutcome]:
        """Outcomes completed since the last call (may be empty).

        *now* is the engine's ``time.monotonic()`` reading; backends
        that enforce deadlines compare it against each in-flight
        attempt's :attr:`Attempt.deadline`.
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Tear down workers; in-flight attempts may be abandoned."""
        raise NotImplementedError

    def metrics(self) -> Dict[str, int]:
        """Host-side mechanism counters (sorted-key rendered)."""
        return {}
