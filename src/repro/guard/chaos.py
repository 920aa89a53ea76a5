"""The chaos drill — prove robustness end-to-end, deterministically.

:func:`run_chaos` stages the full failure gauntlet against a real
campaign and checks the one property everything in this repo hangs on:
**canonical output is byte-identical no matter what breaks**.

The drill:

1. run the campaign clean — cold caches, serial, unguarded — and keep
   its :meth:`~repro.campaign.engine.CampaignResult.canonical_json` as
   the baseline;
2. run it again with a shared cache directory to persist p-action
   caches;
3. corrupt the persisted files per a seeded :class:`FaultPlan`
   (bit flips + truncations), and install the plan so warm-loading
   workers also corrupt their in-memory caches (forced divergence on
   the root chain) and the first attempt of one job crashes outright;
4. run the campaign warm, guarded (``audit_every=1``), across a worker
   pool — every layer of defence fires: FSPC checksums quarantine the
   damaged files, the :class:`~repro.guard.engine.GuardedEngine`
   detects the divergences and falls back to detailed simulation, the
   campaign engine retries the crashed worker;
5. byte-compare the canonical documents and report what fired.

Everything is seeded; the same arguments injure the same bytes and the
drill passes or fails reproducibly. The CI ``chaos`` job runs this via
``fastsim-repro chaos`` (see docs/robustness.md).

One further drill rides on the same machinery: ``hang=True`` wedges
one worker mid-job (heartbeats stop; the supervisor must detect and
replace it) — still demanding byte-identical output.
:func:`run_resume_drill` is the engine-kill counterpart: it SIGKILLs
the campaign *engine* mid-campaign (via
:func:`~repro.guard.faults.maybe_kill_engine`), resumes from the
durable journal, and ``cmp``s the merged document against a clean cold
run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.campaign.cachedir import QUARANTINE_SUFFIX
from repro.campaign.engine import Campaign, CampaignRunner
from repro.campaign.progress import NullSink, ProgressSink
from repro.guard.faults import (
    ENGINE_KILL_EXIT_CODE,
    FaultPlan,
    clear_plan,
    inject_disk_faults,
    install_plan,
)
from repro.options import HostOptions

#: Default workload subset — small enough for CI, varied enough to
#: exercise loads, stores, branches, and rollbacks.
DEFAULT_WORKLOADS = ("compress", "go", "tomcatv")


@dataclass
class ChaosReport:
    """What the drill did and whether the invariant held."""

    identical: bool
    jobs: int
    failed: int
    workers: int
    crash_job: str
    crashed: bool
    backend: str = "fork"
    disk_faults: List[Dict[str, object]] = field(default_factory=list)
    memory_faults: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    divergences: int = 0
    audits: int = 0
    baseline_json: str = ""
    chaos_json: str = ""

    #: Whether the plan asked for a forced in-memory divergence.
    expected_divergence: bool = True
    #: Whether the plan injected on-disk corruption (the quarantine
    #: gates only apply when it did).
    expected_disk_damage: bool = True
    #: Job wedged by the injected hang ("" = no hang drill) and
    #: whether it actually fired (marker file seen).
    hang_job: str = ""
    hung: bool = False

    @property
    def ok(self) -> bool:
        """The drill passes only if output survived *and* the faults
        actually fired (a drill that injures nothing proves nothing)."""
        return (self.identical and self.failed == 0
                and (bool(self.disk_faults) and bool(self.quarantined)
                     or not self.expected_disk_damage)
                and (self.divergences > 0
                     or not self.expected_divergence)
                and (self.crashed or not self.crash_job)
                and (self.hung or not self.hang_job))

    def render(self) -> str:
        lines = [
            f"chaos drill: {'PASS' if self.ok else 'FAIL'}",
            f"  jobs                 {self.jobs} "
            f"({self.failed} failed), workers={self.workers}, "
            f"backend={self.backend}",
            f"  canonical identical  {self.identical}",
            f"  disk faults          {len(self.disk_faults)} "
            f"({', '.join(sorted({str(f['kind']) for f in self.disk_faults}))})"
            if self.disk_faults else "  disk faults          0",
            f"  quarantined files    {len(self.quarantined)}",
            f"  memory faults        "
            f"{', '.join(self.memory_faults) if self.memory_faults else 0}",
            f"  audits / divergences {self.audits} / {self.divergences}",
        ]
        if self.crash_job:
            status = "crashed+retried" if self.crashed else "NO CRASH"
            lines.append(f"  worker crash         {self.crash_job} "
                         f"({status})")
        if self.hang_job:
            status = "hung+replaced" if self.hung else "NO HANG"
            lines.append(f"  worker hang          {self.hang_job} "
                         f"({status})")
        return "\n".join(lines)


def _collect_guard_metrics(report: ChaosReport, results) -> None:
    for job_result in results:
        metrics = job_result.metrics
        report.divergences += int(metrics.get("audit_divergences", 0))
        report.audits += int(metrics.get("audits", 0))
        for label in metrics.get("faults_injected", ()):
            report.memory_faults.append(f"{job_result.key}:{label}")


def run_chaos(
    workloads: Optional[Sequence[str]] = None,
    scale: str = "tiny",
    workers: int = 2,
    seed: int = 0,
    disk_bit_flips: int = 1,
    disk_truncations: int = 1,
    force_divergence: bool = True,
    crash: bool = True,
    audit_every: int = 1,
    work_dir: Optional[str] = None,
    sink: Optional[ProgressSink] = None,
    obs=None,
    backend: str = "fork",
    hang: bool = False,
) -> ChaosReport:
    """Run the deterministic chaos drill; returns a :class:`ChaosReport`.

    *work_dir* holds the cache store and crash marker (a temporary
    directory is created — and left for inspection on failure — when
    omitted). ``crash`` requires ``workers >= 1``: the injected crash
    kills the executing process, which on the serial path would be the
    caller. It also requires a process-isolated *backend* — the
    ``queue`` backend runs jobs on caller threads, so the injected
    ``os._exit`` would take the drill itself down (pass
    ``crash=False`` to drill the queue backend). Disk faults must
    leave at least one persisted cache intact or the forced divergence
    has no warm chain to corrupt. Any installed :class:`FaultPlan` is
    cleared on exit.

    *hang* additionally wedges the last job's first attempt (the
    worker goes silent mid-job); the chaotic runner supervises with a
    short ``hang_after`` budget and must detect, replace, and retry —
    any backend works.
    """
    if workers < 1:
        raise ValueError("chaos needs a worker pool (workers >= 1); "
                         "the injected crash would kill the caller")
    if crash and backend == "queue":
        raise ValueError(
            "the queue backend has no process isolation — the "
            "injected crash would kill the drill itself; pass "
            "crash=False (--no-crash) or a process-isolated backend"
        )
    names = list(workloads) if workloads else list(DEFAULT_WORKLOADS)
    if force_divergence and disk_bit_flips + disk_truncations >= len(names):
        raise ValueError(
            "disk faults would corrupt every persisted cache; leave at "
            "least one intact so the forced divergence can warm-load "
            "(fewer faults, or more workloads)"
        )
    sink = sink if sink is not None else NullSink()

    if work_dir is None:
        work_dir = tempfile.mkdtemp(prefix="fastsim-chaos-")
    cache_dir = os.path.join(work_dir, "pcache")
    scratch = os.path.join(work_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    def build_campaign(audited: bool) -> Campaign:
        campaign = Campaign.grid(names, simulators=("fast",),
                                 scale=scale, name=f"chaos-{scale}")
        if not audited:
            return campaign
        host = HostOptions(audit_every=audit_every)
        return replace(campaign, jobs=tuple(
            replace(job, host=host) for job in campaign.jobs))

    # 1. Clean cold serial baseline — the ground truth.
    sink.log("chaos: baseline (cold, serial, unguarded)")
    baseline = CampaignRunner(workers=0, sink=sink,
                              obs=obs).run(build_campaign(False))
    baseline_json = baseline.canonical_json()

    # 2. Populate the shared cache store.
    sink.log("chaos: recording persisted caches")
    CampaignRunner(workers=0, cache_dir=cache_dir, sink=sink,
                   obs=obs).run(build_campaign(False))

    jobs = build_campaign(False).jobs
    crash_job = jobs[0].key if crash else ""
    hang_job = jobs[-1].key if hang else ""
    plan = FaultPlan(
        seed=seed,
        disk_bit_flips=disk_bit_flips,
        disk_truncations=disk_truncations,
        force_divergence=force_divergence,
        crash_job=crash_job,
        hang_job=hang_job,
        scratch=scratch,
    )

    # 3. Injure the store and arm the in-process injectors.
    disk_faults = inject_disk_faults(cache_dir, plan)
    sink.log(f"chaos: injected {len(disk_faults)} disk faults")
    install_plan(plan)
    try:
        # 4. The fault-riddled warm, guarded, parallel run.
        sink.log(f"chaos: warm guarded campaign (workers={workers}, "
                 f"backend={backend})")
        chaotic = CampaignRunner(
            workers=workers, cache_dir=cache_dir, sink=sink, obs=obs,
            backend=backend, hang_after=1.5 if hang else None,
        ).run(build_campaign(True))
    finally:
        clear_plan()
    chaos_json = chaotic.canonical_json()

    # 5. Verdict.
    report = ChaosReport(
        identical=chaos_json == baseline_json,
        jobs=len(chaotic),
        failed=len(chaotic.failed),
        workers=workers,
        crash_job=crash_job,
        crashed=bool(crash_job) and os.path.exists(os.path.join(
            scratch, "crashed-" + crash_job.replace(":", "_"))),
        disk_faults=disk_faults,
        quarantined=sorted(
            name for name in os.listdir(cache_dir)
            if name.endswith(QUARANTINE_SUFFIX)
        ),
        baseline_json=baseline_json,
        chaos_json=chaos_json,
        expected_divergence=force_divergence,
        expected_disk_damage=disk_bit_flips + disk_truncations > 0,
        backend=backend,
        hang_job=hang_job,
        hung=bool(hang_job) and os.path.exists(os.path.join(
            scratch, "hung-" + hang_job.replace(":", "_"))),
    )
    _collect_guard_metrics(report, chaotic.results)
    if obs is not None and getattr(obs, "enabled", False):
        obs.event("guard.chaos-drill", cat="guard",
                  ok=report.ok, identical=report.identical,
                  divergences=report.divergences,
                  quarantined=len(report.quarantined))
    return report


def main_json(report: ChaosReport) -> str:
    """A machine-readable drill summary (CI artifact)."""
    payload = {
        "ok": report.ok,
        "identical": report.identical,
        "jobs": report.jobs,
        "failed": report.failed,
        "workers": report.workers,
        "disk_faults": report.disk_faults,
        "memory_faults": report.memory_faults,
        "quarantined": report.quarantined,
        "audits": report.audits,
        "divergences": report.divergences,
        "crash_job": report.crash_job,
        "crashed": report.crashed,
        "backend": report.backend,
        "hang_job": report.hang_job,
        "hung": report.hung,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# The engine-kill resume drill (journal + resume, cmp-identical)
# ----------------------------------------------------------------------

@dataclass
class ResumeReport:
    """What the engine-kill resume drill did and whether it held."""

    identical: bool
    jobs: int
    #: Jobs the resumed run skipped via journal replay.
    resumed: int
    kill_after: int
    #: Exit code of the doomed engine process (must be
    #: :data:`~repro.guard.faults.ENGINE_KILL_EXIT_CODE`).
    exit_code: Optional[int]
    backend: str = "fork"
    baseline_json: str = ""
    resumed_json: str = ""

    @property
    def killed(self) -> bool:
        return self.exit_code == ENGINE_KILL_EXIT_CODE

    @property
    def ok(self) -> bool:
        """Pass = the engine really died mid-campaign, the resumed run
        skipped exactly the journaled outcomes, and the merged document
        is byte-identical to an uninterrupted cold run."""
        return (self.identical and self.killed
                and self.resumed == self.kill_after)

    def render(self) -> str:
        return "\n".join([
            f"resume drill: {'PASS' if self.ok else 'FAIL'}",
            f"  backend              {self.backend}",
            f"  engine killed        {self.killed} "
            f"(exit code {self.exit_code})",
            f"  journaled outcomes   {self.kill_after}",
            f"  jobs resumed/total   {self.resumed}/{self.jobs}",
            f"  canonical identical  {self.identical}",
        ])


def _run_doomed(names, scale, workers, backend, journal,
                kill_after, scratch) -> None:
    """Child-process body: run journaled until the injected kill.

    The kill is ``os._exit`` (no cleanup, no atexit) — the closest
    in-process approximation of SIGKILL that still lets the fault plan
    choose the moment: immediately after the ``kill_after``-th outcome
    record became durable.
    """
    install_plan(FaultPlan(kill_engine_after=kill_after,
                           scratch=scratch))
    try:
        CampaignRunner(
            workers=workers, backend=backend, journal=journal,
            sink=NullSink(),
        ).run(Campaign.grid(names, simulators=("fast",), scale=scale,
                            name=f"resume-{scale}"))
    finally:
        clear_plan()
    # Reaching this line means the kill never fired; exit 0 so the
    # parent's exit-code assertion flags the drill as failed.
    os._exit(0)


def run_resume_drill(
    workloads: Optional[Sequence[str]] = None,
    scale: str = "tiny",
    workers: int = 2,
    backend: str = "fork",
    kill_after: int = 1,
    work_dir: Optional[str] = None,
    sink: Optional[ProgressSink] = None,
) -> ResumeReport:
    """Kill the engine mid-campaign, resume from the journal, compare.

    The sequence the crash-safety claim rests on (docs/robustness.md):

    1. clean cold serial run — baseline canonical document;
    2. the same campaign, journaled, in a forked child engine whose
       fault plan kills it (``os._exit``) right after *kill_after*
       outcomes are durably journaled — the parent asserts the child
       died with :data:`~repro.guard.faults.ENGINE_KILL_EXIT_CODE`;
    3. ``CampaignRunner(resume=journal)`` replays the journal, skips
       the recorded jobs, runs the rest on *backend*;
    4. the resumed merged document must be byte-identical to the
       baseline, with exactly *kill_after* jobs skipped.
    """
    names = list(workloads) if workloads else list(DEFAULT_WORKLOADS)
    if kill_after < 1:
        raise ValueError("kill_after must be >= 1 (a kill before any "
                         "durable outcome is just a fresh run)")
    if kill_after >= len(names):
        raise ValueError(
            "kill_after must leave at least one job unfinished, or "
            "the resume has nothing to prove")
    sink = sink if sink is not None else NullSink()
    if work_dir is None:
        work_dir = tempfile.mkdtemp(prefix="fastsim-resume-")
    journal = os.path.join(work_dir, "campaign.journal")
    scratch = os.path.join(work_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    def build_campaign() -> Campaign:
        return Campaign.grid(names, simulators=("fast",), scale=scale,
                             name=f"resume-{scale}")

    # 1. Clean cold serial baseline — the ground truth.
    sink.log("resume drill: baseline (cold, serial)")
    baseline_json = CampaignRunner(
        workers=0, sink=sink).run(build_campaign()).canonical_json()

    # 2. The doomed journaled run, in its own engine process.
    sink.log(f"resume drill: doomed engine (kill after {kill_after} "
             f"outcomes, backend={backend})")
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        context = multiprocessing.get_context()
    child = context.Process(
        target=_run_doomed,
        args=(names, scale, workers, backend, journal, kill_after,
              scratch),
    )
    child.start()
    child.join(timeout=300)
    if child.is_alive():  # pragma: no cover - only on a wedged drill
        child.terminate()
        child.join()
    exit_code = child.exitcode

    # 3 + 4. Resume from the journal; compare against the baseline.
    sink.log("resume drill: resuming from journal")
    resumer = CampaignRunner(workers=workers, backend=backend,
                             resume=journal, sink=sink)
    resumed_json = resumer.run(build_campaign()).canonical_json()
    return ResumeReport(
        identical=resumed_json == baseline_json,
        jobs=len(names),
        resumed=resumer.resumed,
        kill_after=kill_after,
        exit_code=exit_code,
        backend=backend,
        baseline_json=baseline_json,
        resumed_json=resumed_json,
    )
