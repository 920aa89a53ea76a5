"""Architecture-study sweeps — the downstream use-case of a fast simulator.

The point of making simulation 10× faster (the paper's motivation:
"Microarchitectural simulation is an essential tool in the research and
design of processors") is to afford *more design points*. This module
sweeps processor-parameter variants over workloads with FastSim and
collates cycles/IPC per design point.

Each variant gets its own p-action cache (recorded actions encode one
pipeline's timing; the engine enforces this), but within a variant the
cache persists across that variant's workloads' repeated runs.

Example::

    from repro.analysis.sweeps import sweep_parameters, render_sweep
    from repro.uarch.params import ProcessorParams

    variants = {
        "1-alu": ProcessorParams(int_alus=1),
        "2-alu (R10K)": ProcessorParams.r10k(),
        "4-alu": ProcessorParams(int_alus=4),
    }
    points = sweep_parameters(variants, workloads=["go", "mgrid"])
    print(render_sweep(points))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.analysis.tables import measure, suite_names
from repro.campaign.jobs import Job
from repro.uarch.params import ProcessorParams


@dataclass(frozen=True)
class SweepPoint:
    """One (variant, workload) design-space measurement."""

    variant: str
    workload: str
    cycles: int
    instructions: int
    ipc: float
    mispredictions: int
    l1_miss_rate: float
    host_seconds: float


def sweep_parameters(
    variants: Dict[str, ProcessorParams],
    workloads: Optional[Iterable[str]] = None,
    scale: str = "test",
    **pool,
) -> List[SweepPoint]:
    """Simulate every workload under every parameter variant.

    Design points are independent, so the sweep is one campaign, run
    with *pool* as :func:`repro.api.run_campaign`'s options:
    ``workers >= 1`` shards it across a process pool, and ``cache_dir``
    warm-starts each variant's p-action cache from previous sweeps (the
    cache store keys on (binary, parameters), so variants never share
    recorded timing).
    """
    names = suite_names(workloads)
    jobs = [
        Job(workload=name, simulator="fast", scale=scale,
            params=params, variant=label)
        for label, params in variants.items()
        for name in names
    ]
    outcome = measure(jobs, **pool)
    points: List[SweepPoint] = []
    for job in jobs:
        result = outcome[job.key].result
        cache = result.cache_stats
        accesses = cache.l1_load_hits + cache.l1_load_misses
        miss_rate = cache.l1_load_misses / accesses if accesses else 0.0
        points.append(SweepPoint(
            variant=job.variant,
            workload=job.workload,
            cycles=result.cycles,
            instructions=result.instructions,
            ipc=result.ipc,
            mispredictions=result.sim_stats.mispredictions,
            l1_miss_rate=miss_rate,
            host_seconds=result.host_seconds,
        ))
    return points


def render_sweep(points: List[SweepPoint]) -> str:
    """Render a sweep as workload rows × variant IPC columns."""
    variants: List[str] = []
    workloads: List[str] = []
    for point in points:
        if point.variant not in variants:
            variants.append(point.variant)
        if point.workload not in workloads:
            workloads.append(point.workload)
    by_key = {(p.variant, p.workload): p for p in points}
    header = ["workload"] + [f"{v} IPC" for v in variants]
    widths = [max(len(header[0]), max(len(w) for w in workloads))]
    widths += [max(len(h), 8) for h in header[1:]]
    lines = ["Design-space sweep (IPC per variant)", ""]
    lines.append("  ".join(
        h.ljust(widths[i]) if i == 0 else h.rjust(widths[i])
        for i, h in enumerate(header)
    ))
    lines.append("  ".join("-" * w for w in widths))
    for workload in workloads:
        row = [workload.ljust(widths[0])]
        for i, variant in enumerate(variants, start=1):
            point = by_key.get((variant, workload))
            cell = f"{point.ipc:.2f}" if point else "-"
            row.append(cell.rjust(widths[i]))
        lines.append("  ".join(row))
    return "\n".join(lines)


def best_variant(points: List[SweepPoint]) -> Dict[str, str]:
    """Per workload, the variant with the fewest cycles."""
    best: Dict[str, SweepPoint] = {}
    for point in points:
        current = best.get(point.workload)
        if current is None or point.cycles < current.cycles:
            best[point.workload] = point
    return {workload: point.variant for workload, point in best.items()}
