"""Job execution — the one code path every backend drives.

:func:`execute_job` turns a :class:`~repro.campaign.jobs.Job` into a
:class:`~repro.campaign.jobs.JobResult`. The
:class:`~repro.campaign.engine.CampaignRunner` calls it in-process on
the serial path and inside a worker via :func:`execute_attempt` on
the pool path — in a child process under :func:`serve_attempt`, the
one worker-side harness (heartbeat thread, send lock, "a result always
crosses the pipe") of both process backends. Keeping one executor is
what makes "bit-identical under any worker count" a structural
property rather than a test-enforced accident.

Job *kinds* are pluggable: ``simulate`` (the default) runs a workload
under one of the four simulators with optional warm-start through a
:class:`~repro.campaign.cachedir.CacheStore`; tests register
fault-injecting kinds to exercise the engine's crash/timeout/retry
paths. Registrations made before workers fork are inherited by them
(the engine uses the ``fork`` start method where available).

Failure semantics: an exception raised by a kind executor is a
*deterministic* failure — it is reported once and not retried (re-running
the same pure function on the same job would fail the same way). Worker
death and timeouts are *infrastructure* failures and are retried by the
engine.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Optional

from repro.campaign.cachedir import CacheStore, StoreSpec
from repro.campaign.jobs import Job, JobResult, NativeRun
from repro.campaign.supervise import HEARTBEAT
from repro.emulator.functional import Interpreter
from repro.guard import faults
from repro.memo.engine import run_signature
from repro.options import HostOptions
from repro.sim.fastsim import FastSim
from repro.uarch.params import ProcessorParams
from repro.workloads.suite import load_workload

#: A kind's executor: ``(job, store, obs=None) -> JobResult``.
JobExecutor = Callable[..., JobResult]

_JOB_KINDS: Dict[str, JobExecutor] = {}


def register_job_kind(name: str, executor: JobExecutor) -> None:
    """Register an executor for ``Job.kind == name``."""
    _JOB_KINDS[name] = executor


def native_run(executable) -> NativeRun:
    """Time plain functional execution of *executable*."""
    interpreter = Interpreter(executable)
    started = time.perf_counter()  # repro-lint: disable=det/time-dependent
    interpreter.run()
    elapsed = time.perf_counter() - started  # repro-lint: disable=det/time-dependent
    return NativeRun(
        seconds=elapsed,
        instructions=interpreter.state.instret,
        output=list(interpreter.state.output),
    )


def simulate_executable(
    executable,
    simulator: str = "fast",
    params: Optional[ProcessorParams] = None,
    policy=None,
    store: Optional[CacheStore] = None,
    obs=None,
    host: HostOptions = HostOptions(),
):
    """Run one simulator over *executable*; returns (result, metrics).

    *policy* is a live :class:`~repro.memo.policies.ReplacementPolicy`
    (already built from a spec, or caller-supplied). Warm-start through
    *store* only applies to unbounded ``fast`` runs: a bounded policy's
    eviction behaviour is part of the experiment, so it must start from
    the same (cold) cache every time. *obs* is an
    :class:`~repro.obs.Observer` (or None — telemetry off); observers
    read simulation state and never influence results. *host* holds
    the host-side speed and audit knobs (``fast`` only; see
    :class:`~repro.options.HostOptions`) — canonical results are
    bit-identical under every value. When warm-starting with turbo on,
    the compiled-segment archive persisted next to the p-cache
    (``.fsseg``, :mod:`repro.memo.segstore`) is loaded and installed so
    the run skips segment re-warm-up, and the run's own live segments
    are captured back to the store afterwards.
    """
    metrics: Dict[str, object] = {}

    if simulator == "fast":
        signature = None
        pcache = None
        known_nodes = 0
        if store is not None and policy is None:
            effective = (params if params is not None
                         else ProcessorParams.r10k())
            signature = run_signature(executable, effective)
            pcache = store.load(signature)
            if pcache is not None:
                known_nodes = (pcache.configs_allocated
                               + pcache.actions_allocated)
                metrics["warm_start"] = True
                if obs is not None:
                    obs.counter("campaign.warm_starts")
        if pcache is not None:
            plan = faults.active_plan()
            if plan is not None:
                injected = faults.apply_memory_faults(pcache, plan)
                if injected:
                    metrics["faults_injected"] = injected
        seg_archive = None
        if pcache is not None and host.turbo:
            # Segments only install against the graph they were captured
            # from, so a cold p-cache makes the archive useless — skip
            # the read entirely.
            seg_archive = store.load_segments(signature)
        sim = FastSim(executable, params=params, policy=policy,
                      pcache=pcache, obs=obs, segstore=seg_archive,
                      **host.fastsim_kwargs())
        result = sim.run()
        table = sim.pcache.turbo
        if sim.engine.turbo and table is not None:
            # Host-side diagnostics (metrics, not canonical output).
            metrics["turbo"] = dict(table.snapshot(),
                                    threshold=sim.engine.turbo_threshold)
        if sim.segstore_stats is not None:
            metrics["segstore"] = dict(sim.segstore_stats)
        if host.audit_every is not None:
            metrics["audits"] = sim.engine.audits
            metrics["audit_divergences"] = sim.engine.divergences
            if sim.engine.reports:
                metrics["divergence_reports"] = [
                    report.as_dict() for report in sim.engine.reports
                ]
        if signature is not None:
            metrics["cache_saved"] = store.store(
                signature, sim.pcache, known_nodes
            )
            if obs is not None and metrics["cache_saved"]:
                obs.counter("campaign.cache_saves")
            if sim.engine.turbo and table is not None:
                from repro.memo.segstore import capture

                metrics["segments_saved"] = store.store_segments(
                    signature, capture(sim.pcache))
    elif simulator == "slow":
        from repro.sim.slowsim import SlowSim

        result = SlowSim(executable, params=params, obs=obs).run()
    elif simulator == "baseline":
        from repro.sim.baseline import IntegratedSimulator

        result = IntegratedSimulator(
            executable, params=params, obs=obs
        ).run()
    else:
        raise ValueError(f"unknown simulator {simulator!r}")

    if policy is not None:
        metrics["collections"] = result.memo.evictions
        rates = getattr(policy, "survival_rates", None)
        if rates:
            metrics["survival_rates"] = list(rates)

    return result, metrics


def _simulate(job: Job, store: Optional[CacheStore],
              obs=None) -> JobResult:
    """The default kind: run one workload under one simulator."""
    executable = load_workload(job.workload, job.scale)

    if job.simulator == "native":
        return JobResult(job=job, status="ok",
                         native=native_run(executable))

    policy = job.policy.build() if job.policy is not None else None
    result, metrics = simulate_executable(
        executable, job.simulator, params=job.params, policy=policy,
        store=store, obs=obs, host=job.host,
    )
    if store is not None and store.quarantined:
        metrics["cache_quarantined"] = list(store.quarantined)
    return JobResult(job=job, status="ok", result=result, metrics=metrics)


register_job_kind("simulate", _simulate)


def execute_job(job: Job, store: Optional[CacheStore] = None,
                obs=None) -> JobResult:
    """Run one job to a JobResult; never raises.

    Exceptions become ``status="failed"`` results (deterministic
    failures — see the module docstring for why these are not retried).
    *obs* reaches the job's simulator only on the in-process (serial)
    path; pool workers run in their own processes and keep their
    telemetry local.
    """
    started = time.perf_counter()  # repro-lint: disable=det/time-dependent
    plan = faults.active_plan()
    if plan is not None:
        # Chaos hooks: may os._exit() this process (crash-once per
        # plan) or sleep past the supervisor's hang budget (hang-once).
        faults.maybe_crash(job.key, plan)
        faults.maybe_hang(job.key, plan)
    executor = _JOB_KINDS.get(job.kind)
    if executor is None:
        outcome = JobResult(
            job=job, status="failed",
            error=f"unknown job kind {job.kind!r}",
        )
    else:
        try:
            outcome = executor(job, store, obs=obs)
        except Exception as exc:
            outcome = JobResult(
                job=job, status="failed",
                error=f"{type(exc).__name__}: {exc}",
            )
    outcome.host_seconds = time.perf_counter() - started  # repro-lint: disable=det/time-dependent
    return outcome


def execute_attempt(job: Job, store_spec: StoreSpec, telemetry=None,
                    worker: object = None, attempt: int = 1) -> JobResult:
    """Run one attempt, optionally under a worker-side collector.

    The single path every backend worker drives. *store_spec* is the
    :class:`~repro.campaign.cachedir.StoreSpec` recipe the worker
    builds its own store handles from. *telemetry* is a
    :class:`~repro.obs.worker.TelemetrySpec` or None — the disabled
    path costs exactly this one ``is None`` test and ships nothing.
    When set, the attempt runs against a local
    :class:`~repro.obs.worker.WorkerCollector` (same observer surface
    as the serial path — memo spans, sampled series, quarantine
    counters — collected locally), wrapped in a ``worker.job`` span
    labelled *worker*, and the rendered blob rides back on
    ``result.telemetry`` for the engine to merge.
    """
    if telemetry is None:
        return execute_job(job, store_spec.build())
    collector = telemetry.collector(worker if worker is not None
                                    else "worker")
    observer = collector.observer
    store = store_spec.build(obs=observer)
    with observer.span("worker.job", cat="campaign", key=job.key,
                       attempt=attempt):
        result = execute_job(job, store, obs=observer)
    result.telemetry = collector.blob(job.key, attempt)
    return result


def serve_attempt(connection, label: str, job: Job,
                  store_spec: StoreSpec, telemetry=None,
                  attempt: int = 1, heartbeat=None) -> None:
    """The worker-side harness: run one attempt, send one result home.

    Both process backends end here — the forked child calls it once as
    its process target, the stdio worker once per envelope — over the
    same kind of *connection* (a ``multiprocessing`` ``Connection``).
    Exactly one :class:`JobResult` crosses the pipe whatever the job
    does: anything that escapes :func:`execute_attempt` (a job kind
    raising ``SystemExit`` / ``KeyboardInterrupt``, a result that will
    not pickle) becomes a ``failed`` result ``worker error: …``,
    because a worker that sends nothing is a crash to its parent.
    *label* (``fork`` / ``spawn``) prefixes the worker's pid in
    telemetry. *heartbeat* (seconds, or None) makes a daemon thread
    interleave :data:`~repro.campaign.supervise.HEARTBEAT` sentinels
    with the result, under a send lock, so the supervisor can tell
    hung from slow; the beats stop before the result is sent, and
    :func:`~repro.guard.faults.hang_active` silences them so an
    injected hang looks hung.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(message: object) -> None:
        with send_lock:
            connection.send(message)

    def _beat() -> None:
        while not stop.wait(heartbeat):
            if faults.hang_active():
                continue
            try:
                _send(HEARTBEAT)
            except (OSError, ValueError):  # parent gone
                return

    beater = None
    if heartbeat is not None:
        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
    try:
        try:
            result = execute_attempt(
                job, store_spec, telemetry=telemetry,
                worker=f"{label}-{os.getpid()}", attempt=attempt,
            )
        finally:
            stop.set()
            if beater is not None:
                beater.join(timeout=1.0)
        _send(result)
    except BaseException as exc:
        try:
            _send(JobResult(
                job=job, status="failed",
                error=f"worker error: {type(exc).__name__}: {exc}",
            ))
        except Exception:  # parent gone: nobody left to tell
            pass
