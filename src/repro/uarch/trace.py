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
assert on occupancy in tests).

The tracer is built on the :mod:`repro.obs` span-sink protocol: pass
``sink=`` any :class:`~repro.obs.spans.TraceSink` (a ring buffer, a
JSON-lines stream, or an :class:`~repro.obs.Observer`'s ring) and every
cycle is also emitted as a simulated-clock counter event, so a pipeline
trace lands on the same timeline as the memo-engine spans in a Chrome
trace export. :func:`trace_pipeline` remains the thin
render-to-strings wrapper it always was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.branch.predictor import BranchPredictor
from repro.isa.disasm import format_instruction
from repro.isa.program import Executable
from repro.obs.spans import CLOCK_SIM, TraceEvent, TraceSink
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


def snapshot_event(snapshot: CycleSnapshot) -> TraceEvent:
    """One simulated-clock counter event for a cycle snapshot.

    The counter tracks (occupancy plus per-stage breakdown) render as
    stacked series on the sim-clock timeline in Perfetto, next to the
    memo-engine sample track.
    """
    values = {"occupancy": snapshot.occupancy(),
              "retired": snapshot.retired_so_far}
    for stage in Stage:
        count = snapshot.count_stage(stage)
        if count:
            values[stage.name.lower()] = count
    return TraceEvent("pipeline.cycle", "C", snapshot.cycle,
                      cat="pipeline", clock=CLOCK_SIM, args=values)


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
        sink: Optional[TraceSink] = None,
    ):
        # Imported here: repro.sim imports repro.uarch submodules, so a
        # module-level import would be circular via the package __init__.
        from repro.sim.slowsim import SlowSim

        self.slowsim = SlowSim(executable, params, predictor)
        self.sink = sink

    def run(self, on_cycle: Optional[Callable[[CycleSnapshot], None]] = None,
            max_cycles: int = 10_000) -> int:
        """Simulate, calling *on_cycle* at every boundary.

        Returns the final cycle count. Stops at *max_cycles* without
        error (traces are usually of prefixes); a model that stops
        without finishing raises, as in SlowSim. When the tracer was
        built with a ``sink``, every cycle is also emitted to it as a
        :func:`snapshot_event`; *on_cycle* may then be omitted.
        """
        slowsim = self.slowsim
        world = slowsim.world
        simulator = slowsim.simulator
        sink = self.sink
        for _ in slowsim.cycles():
            snapshot = CycleSnapshot(
                cycle=world.cycle - 1,
                entries=[copy_entry(e) for e in simulator.iq.entries],
                retired_so_far=world.stats.retired_instructions,
            )
            if on_cycle is not None:
                on_cycle(snapshot)
            if sink is not None:
                sink.emit(snapshot_event(snapshot))
            if world.cycle >= max_cycles:
                break
        return world.stats.cycles


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
