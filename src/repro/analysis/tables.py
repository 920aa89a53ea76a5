"""Regenerate the paper's evaluation tables (Tables 2, 3, 4, 5).

Each ``tableN`` function returns a list of per-benchmark row
dataclasses carrying exactly the columns the paper reports, plus a
``paper`` reference band where the paper states one, so EXPERIMENTS.md
can be produced mechanically. Rendering to text lives in
:mod:`repro.analysis.report`.

A table is a function of a campaign result: it names the jobs it
reads, gets them through :func:`measure` — out of the ``result=`` the
caller already holds (one :func:`repro.api.run_campaign` over the suite
with ``include_native=True`` feeds all four tables), or by running them
as one campaign with the remaining keywords as ``run_campaign``'s pool
options — and computes its rows from the job results, looked up by
:attr:`Job.key <repro.campaign.jobs.Job.key>`.

Slowdowns are measured against plain functional execution — the
reproduction's stand-in for "time to execute the original,
uninstrumented executables" (see DESIGN.md, Substitutions): every
quantity the paper's claims rest on is a *ratio between simulators*,
which survives the Python-for-hardware substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import api
from repro.campaign.jobs import Job, JobResult
from repro.workloads.suite import WORKLOAD_ORDER, WORKLOADS


@dataclass
class Table2Row:
    """Performance of FastSim vs. SlowSim (paper Table 2)."""

    benchmark: str
    spec_name: str
    program_seconds: float  #: functional-execution time ("Program")
    slow_slowdown: float  #: SlowSim time / program time
    fast_slowdown: float  #: FastSim time / program time
    speedup: float  #: "Slow / Fast" — the memoization factor


@dataclass
class Table3Row:
    """FastSim vs. the SimpleScalar surrogate (paper Table 3)."""

    benchmark: str
    spec_name: str
    cycles: int  #: "Program cycles" from out-of-order simulation
    instructions: int  #: retired instructions
    baseline_kinsts: float  #: baseline simulator Kinsts/second
    slow_kinsts: float  #: SlowSim Kinsts/second
    fast_kinsts: float  #: FastSim Kinsts/second
    fast_vs_baseline: float  #: the paper's final column
    slow_vs_baseline: float  #: direct-execution-only gain (§1: 1.1-2.1x)


@dataclass
class Table4Row:
    """Detailed vs. replayed instruction counts (paper Table 4)."""

    benchmark: str
    spec_name: str
    detailed_instructions: int
    replayed_instructions: int
    detailed_fraction: float  #: "Detailed / Total"


@dataclass
class Table5Row:
    """Memoization measurements (paper Table 5)."""

    benchmark: str
    spec_name: str
    cache_bytes: int  #: modelled p-action cache footprint
    static_configs: int
    static_actions: int
    actions_per_config: float  #: dynamic (paper: 3.4-4.9)
    cycles_per_config: float  #: dynamic (paper: 1.0-1.6)
    avg_chain: float  #: mean replayed-chain length
    max_chain: int  #: longest replayed chain


def suite_names(workloads: Optional[Iterable[str]]) -> List[str]:
    return list(workloads) if workloads is not None else list(WORKLOAD_ORDER)


def measure(jobs: Iterable[Job], result=None, **pool):
    """The campaign result holding *jobs*, every one of them ok.

    *result* is a :class:`~repro.campaign.engine.CampaignResult` the
    caller already has; without one the jobs run as one campaign,
    ``run_campaign(jobs=jobs, **pool)``. The one place in
    :mod:`repro.analysis` where a failed job becomes an exception.
    """
    jobs = list(jobs)
    if result is None:
        result = api.run_campaign(jobs=jobs, **pool)
    failed = [outcome for outcome in (result[job.key] for job in jobs)
              if not outcome.ok]
    if failed:
        raise RuntimeError(
            f"{len(failed)} job(s) failed: "
            + "; ".join(f"{r.key}: {r.error}" for r in failed[:5]))
    return result


def suite_runs(names: Sequence[str], simulators: Sequence[str],
               scale: str, result=None,
               **pool) -> Dict[Tuple[str, str], JobResult]:
    """The *names* × *simulators* measurements at *scale*, keyed by
    ``(name, simulator)`` (``"native"`` is functional execution)."""
    jobs = {
        (name, simulator): Job(workload=name, simulator=simulator,
                               scale=scale)
        for name in names for simulator in simulators
    }
    result = measure(jobs.values(), result, **pool)
    return {coords: result[job.key] for coords, job in jobs.items()}


def table2(workloads: Optional[Iterable[str]] = None, *,
           scale: str = "test", result=None, **pool) -> List[Table2Row]:
    """Slowdowns of SlowSim and FastSim, and the memoization speedup."""
    names = suite_names(workloads)
    runs = suite_runs(names, ("native", "slow", "fast"), scale, result,
                      **pool)
    rows = []
    for name in names:
        native = runs[name, "native"].native
        slow = runs[name, "slow"].result
        fast = runs[name, "fast"].result
        rows.append(Table2Row(
            benchmark=name,
            spec_name=WORKLOADS[name].spec_name,
            program_seconds=native.seconds,
            slow_slowdown=slow.host_seconds / native.seconds,
            fast_slowdown=fast.host_seconds / native.seconds,
            speedup=slow.host_seconds / fast.host_seconds,
        ))
    return rows


def table3(workloads: Optional[Iterable[str]] = None, *,
           scale: str = "test", result=None, **pool) -> List[Table3Row]:
    """Simulation rates against the integrated (SimpleScalar-role)
    baseline."""
    names = suite_names(workloads)
    runs = suite_runs(names, ("slow", "fast", "baseline"), scale, result,
                      **pool)
    rows = []
    for name in names:
        slow = runs[name, "slow"].result
        fast = runs[name, "fast"].result
        base = runs[name, "baseline"].result
        rows.append(Table3Row(
            benchmark=name,
            spec_name=WORKLOADS[name].spec_name,
            cycles=fast.cycles,
            instructions=fast.instructions,
            baseline_kinsts=base.kinsts_per_second,
            slow_kinsts=slow.kinsts_per_second,
            fast_kinsts=fast.kinsts_per_second,
            fast_vs_baseline=base.host_seconds / fast.host_seconds,
            slow_vs_baseline=base.host_seconds / slow.host_seconds,
        ))
    return rows


def table4(workloads: Optional[Iterable[str]] = None, *,
           scale: str = "test", result=None, **pool) -> List[Table4Row]:
    """Fraction of instructions simulated in detail vs. replayed."""
    names = suite_names(workloads)
    runs = suite_runs(names, ("fast",), scale, result, **pool)
    rows = []
    for name in names:
        memo = runs[name, "fast"].result.memo
        rows.append(Table4Row(
            benchmark=name,
            spec_name=WORKLOADS[name].spec_name,
            detailed_instructions=memo.detailed_instructions,
            replayed_instructions=memo.replayed_instructions,
            detailed_fraction=memo.detailed_fraction,
        ))
    return rows


def table5(workloads: Optional[Iterable[str]] = None, *,
           scale: str = "test", result=None, **pool) -> List[Table5Row]:
    """P-action cache contents and chain statistics."""
    names = suite_names(workloads)
    runs = suite_runs(names, ("fast",), scale, result, **pool)
    rows = []
    for name in names:
        memo = runs[name, "fast"].result.memo
        rows.append(Table5Row(
            benchmark=name,
            spec_name=WORKLOADS[name].spec_name,
            cache_bytes=memo.peak_cache_bytes,
            static_configs=memo.configs_allocated,
            static_actions=memo.actions_allocated,
            actions_per_config=memo.actions_per_config,
            cycles_per_config=memo.cycles_per_config,
            avg_chain=memo.avg_chain_length,
            max_chain=memo.max_chain_length,
        ))
    return rows
