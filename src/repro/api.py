"""The documented entry points: ``simulate`` and ``run_campaign``.

This facade is the supported way in::

    import repro.api as api

    # One measurement — a suite workload, an Executable, or a file.
    result = api.simulate("compress", engine="fast", scale="tiny")

    # Many measurements — parallel, fault-tolerant, warm-started.
    campaign = api.run_campaign(
        workloads=["compress", "go"],
        simulators=("fast", "slow"),
        scale="tiny", workers=4, cache_dir=".fastsim-cache",
    )
    print(campaign["compress:fast:tiny"].result.summary())

``run_campaign`` blocks: the engine runs on the calling thread, so an
interrupt unwinds through it and stops the workers (a journaled run is
then resumed with ``resume=``).

Host-side speed and audit knobs travel as one value,
``host=HostOptions(...)`` (:mod:`repro.options`): they change host
time only, never a job key, a cache signature or canonical output.

Everything here is re-exported lazily from the top-level ``repro``
namespace (``repro.simulate``, ``repro.run_campaign``). These are the
two entry points: the tables, figures and sweeps of
:mod:`repro.analysis` are functions of a ``run_campaign`` result.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence, Union

from repro.campaign.engine import (
    Campaign,
    CampaignResult,
    CampaignRunner,
)
from repro.campaign.jobs import Job, PolicySpec
from repro.campaign.cachedir import make_store
from repro.campaign.progress import ProgressSink, make_sink
from repro.campaign.worker import simulate_executable
from repro.errors import CampaignUsageError
from repro.isa.program import Executable
from repro.memo.policies import ReplacementPolicy
from repro.options import HostOptions
from repro.sim.results import SimulationResult
from repro.uarch.params import ProcessorParams
from repro.workloads.suite import WORKLOAD_ORDER, WORKLOADS, load_workload

__all__ = [
    "HostOptions",
    "simulate",
    "run_campaign",
]


def _resolve_executable(exe_or_name: Union[Executable, str],
                        scale: str) -> Executable:
    """Accept an Executable, a suite workload name, or a file path."""
    if isinstance(exe_or_name, Executable):
        return exe_or_name
    if exe_or_name in WORKLOADS:
        return load_workload(exe_or_name, scale)
    if exe_or_name.endswith(".fsx"):
        from repro.isa.objfile import load_executable

        return load_executable(exe_or_name)
    if exe_or_name.endswith(".s"):
        from repro.isa.assembler import assemble

        with open(exe_or_name) as handle:
            return assemble(handle.read(), name=exe_or_name)
    raise ValueError(
        f"cannot resolve {exe_or_name!r}: not an Executable, not a "
        f"suite workload (choose from {list(WORKLOAD_ORDER)}), and not "
        "a .fsx/.s path"
    )


def simulate(
    exe_or_name: Union[Executable, str],
    *,
    engine: str = "fast",
    scale: str = "test",
    params: Optional[ProcessorParams] = None,
    policy: Optional[Union[PolicySpec, ReplacementPolicy]] = None,
    cache_dir: Optional[str] = None,
    obs=None,
    host: HostOptions = HostOptions(),
) -> SimulationResult:
    """Simulate one program under one engine; returns the result.

    *exe_or_name* may be an assembled :class:`Executable`, the name of
    a suite workload (built at *scale*), or a path to an ``.fsx``
    binary / ``.s`` source. *engine* is ``fast`` (memoized), ``slow``
    (direct-execution only), or ``baseline`` (integrated). With
    *cache_dir*, ``fast`` runs warm-start from (and update) the shared
    p-action cache store. *obs* is an optional
    :class:`repro.obs.Observer`; telemetry is off (and free) without
    one, and never changes simulated results either way — see
    docs/observability.md. *host* (``fast`` only) is a
    :class:`~repro.options.HostOptions`: chain compilation, the
    frontend/memory-hierarchy speed layers and online replay audits —
    results are bit-identical under every value; see
    docs/performance.md and docs/robustness.md.
    """
    executable = _resolve_executable(exe_or_name, scale)
    if isinstance(policy, PolicySpec):
        policy = policy.build()
    store = make_store(cache_dir, obs=obs)
    result, _ = simulate_executable(
        executable, engine, params=params, policy=policy, store=store,
        obs=obs, host=host,
    )
    return result


def _build_campaign(
    workloads: Optional[Iterable[str]],
    simulators: Sequence[str],
    scale: str,
    params: Optional[ProcessorParams],
    include_native: bool,
    jobs: Optional[Sequence[Job]],
    name: str,
    host: Optional[HostOptions],
) -> Campaign:
    """The campaign :func:`run_campaign` runs — grid or explicit jobs,
    with *host* (when given) imposed on the ``fast`` simulate jobs."""
    if jobs is not None:
        campaign = Campaign(jobs=tuple(jobs), name=name)
    else:
        names = (list(workloads) if workloads is not None
                 else list(WORKLOAD_ORDER))
        campaign = Campaign.grid(
            names, simulators, scale=scale, params=params,
            include_native=include_native, name=name,
        )
    if host is not None:
        campaign = replace(campaign, jobs=tuple(
            replace(job, host=host)
            if job.simulator == "fast" and job.kind == "simulate"
            else job
            for job in campaign.jobs
        ))
    return campaign


def run_campaign(
    workloads: Optional[Iterable[str]] = None,
    simulators: Sequence[str] = ("fast", "slow", "baseline"),
    *,
    scale: str = "test",
    params: Optional[ProcessorParams] = None,
    include_native: bool = False,
    jobs: Optional[Sequence[Job]] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    progress: Union[ProgressSink, str, None] = None,
    name: str = "campaign",
    obs=None,
    host: Optional[HostOptions] = None,
    backend: Optional[str] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    hang_after: Optional[float] = None,
) -> CampaignResult:
    """Execute a simulation campaign; returns merged results.

    Either pass explicit *jobs*, or let the workload × simulator grid
    be built from *workloads* (default: the full 18-workload suite)
    and *simulators*. ``workers=0`` runs serially in-process;
    ``workers>=1`` shards across the selected executor *backend*
    (``fork`` — the default — ``subprocess``, or ``queue``; see
    docs/distributed.md) with per-job *timeout* and bounded *retries*.
    *progress* is a :class:`~repro.campaign.progress.ProgressSink` or
    one of ``"text"`` / ``"jsonl"`` / ``"silent"``.
    Merged results are deterministic: see
    :meth:`~repro.campaign.engine.CampaignResult.canonical_json`.
    *obs* is an optional :class:`repro.obs.Observer`; the runner traces
    job lifecycles through it (and, on the serial ``workers=0`` path,
    the simulations themselves). *host*, when given, replaces the
    :class:`~repro.options.HostOptions` of every ``fast`` job (chain
    compilation, speed layers, online replay audits — none of which
    changes canonical output); ``None`` leaves each job's own value.
    *journal* makes the engine keep a durable crash journal at that
    path; *resume* replays one, skipping jobs already completed
    (byte-identical merge — see docs/robustness.md § Crash-safe
    campaigns); *hang_after* (seconds) arms worker hang detection via
    heartbeats. The engine runs on the calling thread: an interrupt
    tears the workers down and closes the journal on its way out.
    Whatever refuses the campaign before a job runs — an option value
    out of range, a *resume* file that is not this campaign's journal —
    raises :class:`~repro.errors.CampaignUsageError` (a ``ValueError``).
    """
    try:
        campaign = _build_campaign(
            workloads, simulators, scale, params, include_native, jobs,
            name, host,
        )
        sink = (make_sink(progress) if isinstance(progress, str)
                else progress)
        runner = CampaignRunner(
            workers=workers, cache_dir=cache_dir, timeout=timeout,
            retries=retries, sink=sink, obs=obs, backend=backend,
            journal=journal, resume=resume, hang_after=hang_after,
        )
    except ValueError as exc:
        raise CampaignUsageError(str(exc)) from exc
    return runner.run(campaign)
