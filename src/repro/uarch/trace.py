"""Pipeline tracing — human-readable per-cycle iQ dumps for debugging.

A simulator library needs a way to *see* the pipeline. The tracer
iterates :meth:`SlowSim.cycles <repro.sim.slowsim.SlowSim.cycles>` (no
memoization — traces want every cycle; one loop, so a complete trace
has SlowSim's cycle count) and renders each cycle's iQ as one line per
in-flight instruction::

    cycle 14
      [ 0] 0x00010010  add %l1, %l0, %l1      EXEC   t=1
      [ 1] 0x00010014  subcc %l0, 1, %l0      QUEUE
      [ 2] 0x00010018  bne 0x10010            FETCHED  pred=T

Use :func:`trace_pipeline` for a list of rendered cycles, or
:class:`PipelineTracer` to observe cycles programmatically (e.g. to
assert on occupancy in tests). An observed run's pipeline occupancy is
on the simulated-clock track already (``pipeline.iq_occupancy``, see
docs/observability.md), so the tracer emits no events of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.branch.predictor import BranchPredictor
from repro.isa.disasm import format_instruction
from repro.isa.program import Executable
from repro.uarch.iq import IQEntry, Stage
from repro.uarch.params import ProcessorParams


@dataclass
class CycleSnapshot:
    """The pipeline contents at the end of one cycle."""

    cycle: int
    entries: List[IQEntry]
    retired_so_far: int

    def occupancy(self) -> int:
        return len(self.entries)

    def count_stage(self, stage: Stage) -> int:
        return sum(1 for e in self.entries if e.stage is stage)


def copy_entry(entry: IQEntry) -> IQEntry:
    """An independent copy of *entry* (snapshots must not alias the
    live iQ)."""
    return IQEntry(entry.instr, entry.stage, entry.timer, entry.pred_taken,
                   entry.mispredicted, entry.jump_target)


class PipelineTracer:
    """Drives :meth:`SlowSim.cycles`, invoking a callback every cycle."""

    def __init__(
        self,
        executable: Executable,
        params: Optional[ProcessorParams] = None,
        predictor: Optional[BranchPredictor] = None,
    ):
        # Imported here: repro.sim imports repro.uarch submodules, so a
        # module-level import would be circular via the package __init__.
        from repro.sim.slowsim import SlowSim

        self.slowsim = SlowSim(executable, params, predictor)

    def run(self, on_cycle: Callable[[CycleSnapshot], None],
            max_cycles: int = 10_000) -> int:
        """Simulate, calling *on_cycle* at every boundary.

        Returns the final cycle count. Stops at *max_cycles* without
        error (traces are usually of prefixes); a model that stops
        without finishing raises, as in SlowSim.
        """
        slowsim = self.slowsim
        world = slowsim.world
        simulator = slowsim.simulator
        for _ in slowsim.cycles():
            snapshot = CycleSnapshot(
                cycle=world.cycle - 1,
                entries=[copy_entry(e) for e in simulator.iq.entries],
                retired_so_far=world.retired_instructions,
            )
            on_cycle(snapshot)
            if world.cycle >= max_cycles:
                break
        return world.cycle


def format_snapshot(snapshot: CycleSnapshot) -> str:
    """Render one cycle's pipeline contents."""
    lines = [f"cycle {snapshot.cycle}  "
             f"(retired {snapshot.retired_so_far})"]
    if not snapshot.entries:
        lines.append("  <pipeline empty>")
    for position, entry in enumerate(snapshot.entries):
        text = format_instruction(entry.instr)
        detail = entry.stage.name
        if entry.stage in (Stage.EXEC, Stage.CACHE, Stage.STWAIT):
            detail += f" t={entry.timer}"
        flags = ""
        if entry.is_cond_branch:
            flags = f"  pred={'T' if entry.pred_taken else 'N'}"
            if entry.mispredicted:
                flags += " MISPREDICTED"
        elif entry.is_indirect and entry.jump_target is not None:
            flags = f"  ->0x{entry.jump_target:x}"
        lines.append(
            f"  [{position:2d}] 0x{entry.instr.address:08x}  "
            f"{text:32s} {detail:10s}{flags}"
        )
    return "\n".join(lines)


def trace_pipeline(
    executable: Executable,
    max_cycles: int = 100,
    params: Optional[ProcessorParams] = None,
    predictor: Optional[BranchPredictor] = None,
) -> List[str]:
    """Trace the first *max_cycles* cycles; returns rendered cycles."""
    rendered: List[str] = []
    tracer = PipelineTracer(executable, params, predictor)
    tracer.run(lambda snap: rendered.append(format_snapshot(snap)),
               max_cycles=max_cycles)
    return rendered
