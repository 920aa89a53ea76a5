"""Regenerate the paper's Figure 7 and the §4.3 / §5 GC policy study.

Figure 7 sweeps the p-action cache size limit under the flush-on-full
policy and reports the memoization speedup (SlowSim time / FastSim
time) at each limit. The paper sweeps 512 KB – 256 MB against caches of
up to 889 MB; our workloads produce caches of tens-to-hundreds of
kilobytes, so the sweep covers the same *relative* range — from a small
fraction of each workload's natural cache size up past all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.tables import measure, suite_names, suite_runs
from repro.campaign.jobs import Job, PolicySpec

#: Default relative cache limits (fraction of the workload's unbounded
#: p-action cache size). Spans "an order-of-magnitude reduction" and
#: more, like the paper's 512KB..256MB axis.
DEFAULT_FRACTIONS = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5)


@dataclass
class Figure7Point:
    """One (workload, cache-limit) measurement."""

    benchmark: str
    limit_bytes: int
    limit_fraction: float  #: limit / unbounded cache size
    speedup: float  #: SlowSim host time / FastSim host time
    flushes: int
    detailed_fraction: float


@dataclass
class PolicyStudyRow:
    """One (workload, policy) measurement for the GC comparison."""

    benchmark: str
    policy: str
    limit_bytes: int
    speedup: float
    collections: int
    detailed_fraction: float
    survival_rate: Optional[float] = None  #: mean bytes surviving a GC


def _bounded_runs(
    names: Sequence[str], policies: Sequence[Tuple[str, float]],
    scale: str, result, pool: dict,
) -> Iterator[tuple]:
    """The two campaigns behind Figure 7 and the GC study.

    The unbounded ``slow`` + ``fast`` pass (out of *result* when the
    caller has it) sizes each workload's limits; then every (policy
    kind, fraction of the natural cache size) in *policies* runs as one
    campaign, deduplicated by key — two fractions can clamp to the same
    byte limit and therefore the same job. Yields ``(name, fraction,
    SlowSim result, bounded JobResult)`` per grid cell; the policy that
    ran is ``outcome.job.policy``.
    """
    unbounded = suite_runs(names, ("slow", "fast"), scale, result,
                           **pool)
    grid = []
    for name in names:
        natural = unbounded[name, "fast"].result.memo.peak_cache_bytes
        for kind, fraction in policies:
            limit = max(int(natural * fraction), 512)
            grid.append((name, fraction, Job(
                workload=name, simulator="fast", scale=scale,
                policy=PolicySpec(kind, limit))))
    bounded = measure({job.key: job for _, _, job in grid}.values(),
                      **pool)
    for name, fraction, job in grid:
        slow = unbounded[name, "slow"].result
        outcome = bounded[job.key]
        assert outcome.result.cycles == slow.cycles, (
            f"policy changed results for {name}")
        yield name, fraction, slow, outcome


def figure7(
    workloads: Optional[Iterable[str]] = None,
    fractions: Iterable[float] = DEFAULT_FRACTIONS,
    *, scale: str = "test", result=None, **pool,
) -> List[Figure7Point]:
    """Speedup vs. p-action cache limit, flush-on-full policy.

    *result* may supply the unbounded ``slow`` and ``fast`` runs; the
    bounded grid always runs, as one campaign with *pool* as
    :func:`repro.api.run_campaign`'s options.
    """
    points = []
    for name, fraction, slow, outcome in _bounded_runs(
            suite_names(workloads), [("flush", f) for f in fractions],
            scale, result, pool):
        fast = outcome.result
        points.append(Figure7Point(
            benchmark=name,
            limit_bytes=outcome.job.policy.limit_bytes,
            limit_fraction=fraction,
            speedup=slow.host_seconds / fast.host_seconds,
            flushes=fast.memo.evictions,
            detailed_fraction=fast.memo.detailed_fraction,
        ))
    return points


def gc_policy_study(
    workloads: Optional[Iterable[str]] = None,
    fraction: float = 0.35,
    *, scale: str = "test", result=None, **pool,
) -> List[PolicyStudyRow]:
    """Flush vs. copying GC vs. generational GC at one cache limit.

    Reproduces §5's negative result: the collectors are no better than
    flushing, and little of the cache survives each collection.
    *result* and *pool* are as for :func:`figure7`.
    """
    rows = []
    for name, _, slow, outcome in _bounded_runs(
            suite_names(workloads),
            [(kind, fraction)
             for kind in ("flush", "copying-gc", "generational-gc")],
            scale, result, pool):
        fast = outcome.result
        policy = outcome.job.policy
        rates = outcome.metrics.get("survival_rates")
        rows.append(PolicyStudyRow(
            benchmark=name,
            policy=policy.kind,
            limit_bytes=policy.limit_bytes,
            speedup=slow.host_seconds / fast.host_seconds,
            collections=fast.memo.evictions,
            detailed_fraction=fast.memo.detailed_fraction,
            survival_rate=sum(rates) / len(rates) if rates else None,
        ))
    return rows


def figure7_series(points: List[Figure7Point]) -> Dict[str, List[Figure7Point]]:
    """Group Figure 7 points by benchmark (one line per benchmark)."""
    series: Dict[str, List[Figure7Point]] = {}
    for point in points:
        series.setdefault(point.benchmark, []).append(point)
    for line in series.values():
        line.sort(key=lambda p: p.limit_bytes)
    return series
