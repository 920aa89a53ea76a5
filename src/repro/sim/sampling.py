"""Trace-sampling simulation — the accuracy-trading alternative (§2).

The paper positions FastSim against techniques that *"trade-off
accuracy for speed"*, citing Conte et al.'s sampled simulation of an
out-of-order processor and its "state loss between sample clusters"
problem. This module implements that alternative so the trade-off can
be measured: alternate fast functional skipping with detailed
measurement windows, then extrapolate the cycle count.

The comparison ``examples/accuracy_tradeoff.py`` draws: sampling
gains speed by *estimating* — its error grows as windows shrink —
while fast-forwarding gains more speed with **zero** error.

Mechanics per window:

1. skip ``period - window`` instructions with the plain interpreter,
   optionally *functionally warming* the shared cache tags with every
   load/store (``warm_caches=True``, the Conte-style mitigation of the
   state-loss problem — ablate it off to see why it matters);
2. run a fresh detailed pipeline over the live architectural state
   until ``window`` instructions retire, discarding the first
   ``warmup`` instructions' cycles from the measurement (pipeline
   state loss is mitigated by warmup; cache state carries over). The
   window answers each request through
   :meth:`~repro.sim.world.World.answer` from its own loop rather than
   iterating :meth:`SlowSim.cycles <repro.sim.slowsim.SlowSim.cycles>`:
   it stops right after the ``Retire`` that fills it, because running
   on to the cycle boundary would issue the rest of that cycle's loads
   to the shared memory system and move every later window;
3. roll back any outstanding wrong-path speculation so the
   architectural stream stays exact, and continue.

The program still *executes* completely and exactly (outputs are
checked); only the cycle count is an estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.branch.predictor import BimodalPredictor, BranchPredictor
from repro.emulator.functional import Interpreter
from repro.emulator.state import ArchState
from repro.errors import SimulationError
from repro.isa.program import Executable
from repro.sim.world import World
from repro.uarch.detailed import DetailedSimulator
from repro.uarch.interactions import CycleBoundary, Finished, Retire
from repro.uarch.params import ProcessorParams


@dataclass
class WindowMeasurement:
    """One detailed sample window."""

    start_instruction: int
    instructions: int  #: measured (post-warmup) instructions
    cycles: int  #: measured (post-warmup) cycles


@dataclass
class SamplingResult:
    """Outcome of a sampled simulation."""

    name: str
    estimated_cycles: float
    instructions: int  #: total committed instructions (exact)
    output: List[int]  #: program output (exact)
    windows: List[WindowMeasurement] = field(default_factory=list)
    host_seconds: float = 0.0

    @property
    def measured_instructions(self) -> int:
        return sum(w.instructions for w in self.windows)

    @property
    def measured_fraction(self) -> float:
        if not self.instructions:
            return 0.0
        return self.measured_instructions / self.instructions

    def error_vs(self, exact_cycles: int) -> float:
        """Relative cycle-count error against an exact simulation."""
        if not exact_cycles:
            return 0.0
        return abs(self.estimated_cycles - exact_cycles) / exact_cycles


class SamplingSimulator:
    """Sampled out-of-order simulation with functional fast-skipping."""

    name = "Sampling"

    def __init__(
        self,
        executable: Executable,
        params: Optional[ProcessorParams] = None,
        predictor: Optional[BranchPredictor] = None,
        period: int = 2000,
        window: int = 400,
        warmup: Optional[int] = None,
        warm_caches: bool = True,
    ):
        if warmup is None:
            warmup = window // 4  # discard the cold-start quarter
        if not 0 < window <= period:
            raise ValueError("need 0 < window <= period")
        if not 0 <= warmup < window:
            raise ValueError("need 0 <= warmup < window")
        self.executable = executable
        self.params = params if params is not None else ProcessorParams.r10k()
        self.predictor = (predictor if predictor is not None
                          else BimodalPredictor(self.params.bht_entries))
        self.period = period
        self.window = window
        self.warmup = warmup
        self.warm_caches = warm_caches
        from repro.cache.hierarchy import MemorySystem

        #: One cache hierarchy shared by every window (tags persist;
        #: timing state is reset per window).
        self.memory_system = MemorySystem(self.params.memory)

    # ------------------------------------------------------------------

    def run(self, max_instructions: int = 50_000_000) -> SamplingResult:
        started = time.perf_counter()
        state = ArchState.boot(self.executable)
        interpreter = Interpreter(self.executable, state)
        windows: List[WindowMeasurement] = []
        skip = self.period - self.window
        self._max_instructions = max_instructions

        while not state.halted:
            self._functional_skip(interpreter, skip, max_instructions)
            if state.halted:
                break
            if state.instret > max_instructions:
                raise SimulationError(
                    f"exceeded {max_instructions} instructions"
                )
            windows.append(self._detailed_window(state))
        elapsed = time.perf_counter() - started

        total = state.instret
        measured_insts = sum(w.instructions for w in windows)
        measured_cycles = sum(w.cycles for w in windows)
        if measured_insts:
            cpi = measured_cycles / measured_insts
        else:
            # Program shorter than one skip: fall back to a nominal CPI.
            cpi = 1.0
        return SamplingResult(
            name=self.name,
            estimated_cycles=cpi * total,
            instructions=total,
            output=list(state.output),
            windows=windows,
            host_seconds=elapsed,
        )

    # ------------------------------------------------------------------

    def _functional_skip(self, interpreter: Interpreter, count: int,
                         max_instructions: int) -> None:
        state = interpreter.state
        memory_system = self.memory_system
        warm = self.warm_caches
        executed = 0
        while executed < count and not state.halted:
            instr = interpreter.step()
            executed += 1
            if warm and interpreter.last_mem_addr is not None:
                memory_system.warm_access(interpreter.last_mem_addr,
                                          instr.is_store)
            if state.instret > max_instructions:
                raise SimulationError(
                    f"exceeded {max_instructions} instructions"
                )

    def _detailed_window(self, state: ArchState) -> WindowMeasurement:
        """Measure one window of detailed execution on the live state."""
        start_instret = state.instret
        simulator = DetailedSimulator(self.executable, self.params)
        simulator.fetch_pc = state.pc
        self.memory_system.reset_timing()
        # The frontend inherits the overall instruction budget, so a
        # non-terminating program cannot hang a measurement window.
        budget = max(self._max_instructions - state.instret,
                     self.window * 4)
        world = World(self.executable, self.params, self.predictor,
                      state=state, memory_system=self.memory_system,
                      frontend_max_instructions=budget)
        generator = simulator.run()
        reply = None
        warmup_cycles: Optional[int] = None
        retired = 0
        cycle_guard = self.window * 1000 + 100_000
        while retired < self.window:
            if world.cycle > cycle_guard:  # pragma: no cover - safety net
                raise SimulationError("sample window made no progress")
            try:
                request = generator.send(reply)
            except StopIteration:
                raise SimulationError("detailed simulator ended unexpectedly")
            kind = type(request)
            if kind is CycleBoundary:
                world.advance_cycles(1)
                reply = None
            elif kind is Finished:
                break
            else:
                reply = world.answer(request)
                if kind is Retire:
                    retired += request.count
                    if warmup_cycles is None and retired >= self.warmup:
                        warmup_cycles = world.cycle
        generator.close()
        self._unwind_speculation(world)
        if warmup_cycles is None:
            warmup_cycles = 0
        measured = max(retired - self.warmup, 0) or retired
        cycles = world.cycle - warmup_cycles
        return WindowMeasurement(
            start_instruction=start_instret,
            instructions=measured,
            cycles=max(cycles, 1),
        )

    def _unwind_speculation(self, world: World) -> None:
        """Roll back outstanding wrong paths so the architectural state
        the next skip resumes from is clean (the frontend may have run
        ahead down mispredicted paths)."""
        frontend = world.frontend
        outstanding = frontend.bq.outstanding()
        if outstanding:
            frontend.rollback_to(outstanding[0])
