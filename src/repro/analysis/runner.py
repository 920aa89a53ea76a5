"""Suite runner — a memoizing facade over the campaign engine.

Tables 2–5 and Figure 7 all consume the same underlying measurements; a
:class:`SuiteRunner` runs each (workload, simulator, scale) combination
at most once per process and also times plain functional execution (the
stand-in for native hardware in the paper's slowdown columns).

Since the campaign engine landed, the runner no longer executes
anything itself: every measurement flows through
:func:`repro.campaign.worker.execute_job` — in-process for incremental
``run()`` calls, or sharded across a
:class:`~repro.campaign.engine.CampaignRunner` worker pool when
``workers >= 1`` and several measurements are needed at once
(:meth:`SuiteRunner.prefetch` / :meth:`SuiteRunner.run_all`). Passing
``cache_dir`` warm-starts FastSim runs from the shared on-disk p-action
cache store. Progress goes through one
:class:`~repro.campaign.progress.ProgressSink` (``verbose=True`` is
shorthand for a :class:`~repro.campaign.progress.TextSink`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.cachedir import make_store
from repro.campaign.engine import Campaign, CampaignRunner
from repro.campaign.jobs import Job, JobResult, NativeRun, PolicySpec
from repro.campaign.progress import NullSink, ProgressSink, TextSink
from repro.campaign.worker import execute_job
from repro.sim.results import SimulationResult
from repro.uarch.params import ProcessorParams
from repro.workloads.suite import WORKLOAD_ORDER, get_workload

SIMULATORS = ("fast", "slow", "baseline")

__all__ = ["SIMULATORS", "NativeRun", "SuiteRunner"]


class SuiteError(RuntimeError):
    """A suite measurement failed (surfaced from a campaign job)."""


@dataclass
class SuiteRunner:
    """Runs and caches (workload × simulator) measurements."""

    scale: str = "test"
    params: Optional[ProcessorParams] = None
    verbose: bool = False
    #: Worker processes for batch methods (0 = serial, in-process).
    workers: int = 0
    #: Shared p-action cache directory for warm-started FastSim runs.
    cache_dir: Optional[str] = None
    #: Per-job timeout / retry budget for the parallel path.
    timeout: Optional[float] = None
    retries: int = 2
    sink: Optional[ProgressSink] = None
    #: Optional :class:`repro.obs.Observer`; telemetry off when None.
    obs: Optional[object] = None
    #: Executor backend for the parallel path (``fork`` / ``subprocess``
    #: / ``queue``); None keeps the campaign default.
    backend: Optional[str] = None
    _results: Dict[Tuple[str, str], SimulationResult] = field(
        default_factory=dict
    )
    _native: Dict[str, NativeRun] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sink is None:
            self.sink = TextSink() if self.verbose else NullSink()
        self._store = make_store(self.cache_dir)

    def _log(self, message: str) -> None:
        self.sink.log(message)

    # ------------------------------------------------------------------

    def job(self, name: str, simulator: str,
            policy: Optional[PolicySpec] = None) -> Job:
        """The campaign job for one suite measurement."""
        get_workload(name)  # fail fast on unknown names
        return Job(
            workload=name, simulator=simulator, scale=self.scale,
            params=self.params, policy=policy,
        )

    def _execute(self, job: Job) -> JobResult:
        """Run one job in-process; raise on failure."""
        self._log(f"running {job.workload} [{job.scale}] "
                  f"under {job.simulator}...")
        outcome = execute_job(job, self._store, obs=self.obs)
        if not outcome.ok:
            raise SuiteError(f"{job.key}: {outcome.error}")
        return outcome

    def native(self, name: str) -> NativeRun:
        """Functional-execution timing for workload *name*."""
        if name not in self._native:
            outcome = self._execute(self.job(name, "native"))
            self._native[name] = outcome.native
        return self._native[name]

    def run(self, name: str, simulator: str,
            policy: Optional[PolicySpec] = None) -> SimulationResult:
        """Simulate workload *name* under *simulator*.

        Runs with a policy are never cached (the policy is part of the
        experiment).
        """
        key = (name, simulator)
        if policy is None and key in self._results:
            return self._results[key]
        outcome = self._execute(self.job(name, simulator, policy))
        if policy is None:
            self._results[key] = outcome.result
        return outcome.result

    # -- batch execution ------------------------------------------------

    def run_batch(self, jobs: Sequence[Job]) -> Dict[str, JobResult]:
        """Execute *jobs* (serially or on the worker pool) and return
        results keyed by job key. Raises on any failed job."""
        jobs = list(jobs)
        if not jobs:
            return {}
        if self.workers >= 1 and len(jobs) > 1:
            runner = CampaignRunner(
                workers=self.workers, cache_dir=self.cache_dir,
                timeout=self.timeout, retries=self.retries,
                sink=self.sink, obs=self.obs, backend=self.backend,
            )
            outcome = runner.run(Campaign(
                jobs=tuple(jobs), name=f"suite-{self.scale}"
            ))
            failures = outcome.failed
            if failures:
                summary = "; ".join(
                    f"{r.key}: {r.error}" for r in failures[:5]
                )
                raise SuiteError(
                    f"{len(failures)} campaign job(s) failed: {summary}"
                )
            results = list(outcome.results)
        else:
            results = [self._execute(job) for job in jobs]
        return {result.key: result for result in results}

    def prefetch(self, workloads: Optional[Iterable[str]] = None,
                 simulators: Iterable[str] = SIMULATORS,
                 include_native: bool = False) -> None:
        """Ensure measurements exist for every (workload, simulator)
        pair, executing the missing ones as one (possibly parallel)
        campaign."""
        names = (list(workloads) if workloads is not None
                 else list(WORKLOAD_ORDER))
        wanted: List[Job] = []
        for name in names:
            if include_native and name not in self._native:
                wanted.append(self.job(name, "native"))
            for simulator in simulators:
                if (name, simulator) not in self._results:
                    wanted.append(self.job(name, simulator))
        if not wanted:
            return
        for outcome in self.run_batch(wanted).values():
            if outcome.native is not None:
                self._native[outcome.job.workload] = outcome.native
            else:
                self._results[(outcome.job.workload,
                               outcome.job.simulator)] = outcome.result

    def run_all(self, workloads: Optional[Iterable[str]] = None,
                simulators: Iterable[str] = SIMULATORS,
                ) -> Dict[str, Dict[str, SimulationResult]]:
        """Run every (workload, simulator) pair; returns nested dict."""
        names = (list(workloads) if workloads is not None
                 else list(WORKLOAD_ORDER))
        simulators = list(simulators)
        self.prefetch(names, simulators)
        return {
            name: {
                simulator: self._results[(name, simulator)]
                for simulator in simulators
            }
            for name in names
        }
