"""The SimpleScalar surrogate — a conventional integrated OOO simulator.

The paper benchmarks FastSim against the SimpleScalar out-of-order
simulator, "one of the fastest out-of-order simulators using
traditional technology": comparable processor model, equivalent level
of detail, but **no direct execution and no memoization** — functional
emulation is interleaved with the timing model, instruction by
instruction, inside the simulation loop.

:class:`IntegratedSimulator` recreates that role. It models the same
R10000-like pipeline with the same parameters and cache hierarchy as
:class:`~repro.uarch.detailed.DetailedSimulator`, but:

* every instruction is **decoded from the binary text image at fetch
  time** (SimpleScalar decodes at fetch; FastSim's binary rewriting
  pre-translates — our frontend's pre-decoded instruction cache is the
  analogue, which this simulator deliberately does not use);
* functional execution (register/memory updates, effective addresses,
  branch conditions) happens inline at fetch, inside the timing loop,
  with speculative state checkpointed and rolled back on mispredicted
  branches;
* there is no action recording and no fast-forwarding: every cycle runs
  the full pipeline walk — the detailed model's own
  :func:`~repro.uarch.detailed.cycle_walk`, so that Table 3 measures
  where functional execution happens, not two pipeline loops of
  different quality.

Timing results are *comparable* to SlowSim/FastSim, not bit-identical —
it is a different simulator, which is exactly the role SimpleScalar
plays in the paper's Table 3.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.branch.predictor import BimodalPredictor, BranchPredictor
from repro.cache.hierarchy import MemorySystem
from repro.emulator.functional import Interpreter
from repro.emulator.state import ArchState
from repro.errors import SimulationError
from repro.isa.encoding import decode
from repro.isa.instruction import QUEUE_ADDR, Instruction
from repro.isa.program import Executable
from repro.obs.core import ensure_observer
from repro.sim.results import SimulationResult
from repro.sim.world import SimStats
from repro.uarch.detailed import cycle_walk, scan_limits
from repro.uarch.iq import CACHE, DONE, FETCHED
from repro.uarch.params import ProcessorParams


class _RobEntry:
    """One in-flight instruction, with its functional results attached."""

    __slots__ = ("instr", "stage", "timer", "pred_taken", "mispredicted",
                 "actual_taken", "next_pc", "mem_addr", "mem_width",
                 "store_undo", "token", "checkpoint")

    def __init__(self, instr: Instruction):
        self.instr = instr
        self.stage = FETCHED
        self.timer = 0
        self.pred_taken = False
        self.mispredicted = False
        self.actual_taken = False
        self.next_pc = instr.address + 4  #: where execution really went
        self.mem_addr: Optional[int] = None
        self.mem_width = 0
        self.store_undo: Optional[bytes] = None
        self.token: Optional[int] = None
        self.checkpoint = None  #: register snapshot if mispredicted


class IntegratedSimulator:
    """Conventional fused functional + timing OOO simulation."""

    name = "Baseline"

    def __init__(
        self,
        executable: Executable,
        params: Optional[ProcessorParams] = None,
        predictor: Optional[BranchPredictor] = None,
        obs=None,
    ):
        self.executable = executable
        self.params = params if params is not None else ProcessorParams.r10k()
        self.obs = ensure_observer(obs)
        if predictor is None:
            predictor = BimodalPredictor(self.params.bht_entries)
        self.predictor = predictor
        self.state = ArchState.boot(executable)
        self.interpreter = Interpreter(executable, self.state)
        self.cache = MemorySystem(self.params.memory)
        self._next_token = 0  #: cache key of the next issued load
        self.stats = SimStats()
        self.rob: List[_RobEntry] = []
        self.fetch_pc: Optional[int] = executable.entry
        self.fetch_stalled = False
        self.fetch_halted = False
        self.cycle = 0
        self.rollbacks = 0
        self.fetched_instructions = 0

    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 50_000_000) -> SimulationResult:
        obs = self.obs
        obs_on = obs.enabled
        limits = scan_limits(self.params)
        started = time.perf_counter()
        with obs.span("sim.run", cat="sim", simulator=self.name):
            while True:
                if self._retire():
                    break
                self._fetch(self._walk(limits))
                self.cycle += 1
                self.stats.cycles += 1
                if self.cycle > max_cycles:
                    raise SimulationError(f"exceeded {max_cycles} cycles")
                if obs_on:
                    obs.sample_pipeline(self.cycle, len(self.rob))
        elapsed = time.perf_counter() - started
        if obs_on:
            obs.gauge("sim.cycles", self.stats.cycles)
            obs.gauge(
                "sim.instructions", self.stats.retired_instructions
            )
            obs.gauge("frontend.rollbacks", self.rollbacks)
        return SimulationResult(
            name=self.name,
            cycles=self.stats.cycles,
            instructions=self.stats.retired_instructions,
            output=list(self.state.output),
            sim_stats=self.stats,
            cache_stats=self.cache.stats,
            host_seconds=elapsed,
            frontend_instructions=self.fetched_instructions,
            rollbacks=self.rollbacks,
        )

    # -- fetch: functional execution happens here ---------------------------

    def _fetch_decode(self, address: int) -> Instruction:
        """Decode from the raw text image (no pre-decoded cache)."""
        offset = address - self.executable.text_base
        word = int.from_bytes(self.executable.text[offset:offset + 4], "big")
        return decode(word, address)

    def _fetch(self, unresolved: int) -> None:
        """Fetch one group; *unresolved* is the number of conditional
        branches in flight that have not resolved."""
        if self.fetch_halted or self.fetch_stalled or self.fetch_pc is None:
            return
        params = self.params
        fetched = 0
        while (fetched < params.fetch_width
               and len(self.rob) < params.iq_capacity):
            instr = self._fetch_decode(self.fetch_pc)
            facts = instr.static
            if facts.is_cond:
                if unresolved >= params.max_spec_branches:
                    break
                unresolved += 1
            entry = _RobEntry(instr)
            self._execute_functionally(entry)
            self.rob.append(entry)
            fetched += 1
            self.fetched_instructions += 1
            if facts.is_halt:
                self.fetch_halted = True
                self.fetch_pc = None
                break
            next_pc = self._next_fetch_pc(entry)
            if next_pc is None:
                self.fetch_stalled = True
                self.fetch_pc = None
                break
            taken_transfer = next_pc != instr.address + 4
            self.fetch_pc = next_pc
            if taken_transfer:
                break

    def _execute_functionally(self, entry: _RobEntry) -> None:
        """Run one instruction on the speculative state, at fetch time."""
        interpreter = self.interpreter
        state = self.state
        instr = entry.instr
        facts = instr.static
        state.pc = instr.address
        if facts.is_halt:
            state.halted = True
            return
        interpreter.step()
        state.instret -= 1  # retirement is counted by the timing model
        entry.next_pc = state.pc
        if facts.queue == QUEUE_ADDR:
            entry.mem_addr = interpreter.last_mem_addr
            entry.mem_width = interpreter.last_mem_width
            entry.store_undo = interpreter.last_store_old
        if facts.is_cond:
            entry.actual_taken = interpreter.last_taken
            entry.pred_taken = self.predictor.predict_and_update(
                instr.address, entry.actual_taken
            )
            entry.mispredicted = entry.pred_taken != entry.actual_taken
            if entry.mispredicted:
                # Checkpoint with PC at the correct destination, then
                # follow the predicted (wrong) path.
                entry.checkpoint = state.snapshot_registers()
                state.pc = (
                    instr.target if entry.pred_taken
                    else instr.address + 4
                )
                entry.next_pc = state.pc

    def _next_fetch_pc(self, entry: _RobEntry) -> Optional[int]:
        instr = entry.instr
        facts = instr.static
        if facts.is_indirect:
            return None  # stall until the jump executes
        if facts.is_cond:
            return instr.target if entry.pred_taken else instr.address + 4
        return entry.next_pc

    # -- retire ---------------------------------------------------------------

    def _retire(self) -> bool:
        rob = self.rob
        stats = self.stats
        retire_width = self.params.retire_width
        count = 0
        halted = False
        for entry in rob:
            if count == retire_width or entry.stage is not DONE:
                break
            count += 1
            facts = entry.instr.static
            if facts.is_load:
                stats.retired_loads += 1
            elif facts.is_store:
                stats.retired_stores += 1
            elif facts.is_cond:
                stats.retired_branches += 1
            elif facts.is_halt:
                halted = True
        if count:
            del rob[:count]
            stats.retired_instructions += count
        return halted

    # -- advance, issue, dispatch ------------------------------------------------

    def _walk(self, limits) -> int:
        """One :func:`cycle_walk` over the ROB; the unresolved count."""
        walk = cycle_walk(self.rob, limits)
        try:
            index = next(walk)
            while True:
                index = walk.send(self._complete(index))
        except StopIteration as walked:
            return walked.value

    def _complete(self, index: int) -> Optional[int]:
        """The world's side of an expiry :func:`cycle_walk` hands back:
        cache interval or poll reply, rollback, or fetch's jump target."""
        entry = self.rob[index]
        facts = entry.instr.static
        if facts.is_load:
            if entry.stage is CACHE:
                return self.cache.poll_load(entry.token, self.cycle)
            entry.token = token = self._next_token
            self._next_token = token + 1
            return self.cache.issue_load(token, entry.mem_addr, self.cycle)
        if facts.is_store:
            return self.cache.issue_store(entry.mem_addr, entry.mem_width,
                                          self.cycle)
        if facts.is_cond:  # mispredicted, now resolved
            self._rollback(index, entry)
        elif self.fetch_stalled and index == len(self.rob) - 1:
            self.fetch_stalled = False
            self.fetch_pc = entry.next_pc
        return None

    def _rollback(self, index: int, entry: _RobEntry) -> None:
        """Mispredicted branch resolved: undo what the walk squashes."""
        squashed = self.rob[index + 1:]
        # Undo wrong-path stores in reverse order, drop load tokens.
        memory = self.state.memory
        for victim in reversed(squashed):
            if victim.store_undo is not None:
                memory.load_bytes(victim.mem_addr, victim.store_undo)
            if victim.token is not None:
                self.cache.cancel_load(victim.token)
        self.state.restore_registers(entry.checkpoint)
        self.state.halted = False
        entry.checkpoint = None
        self.stats.mispredictions += 1
        self.stats.squashed_entries += len(squashed)
        self.rollbacks += 1
        self.fetch_pc = (
            entry.instr.target if entry.actual_taken
            else entry.instr.address + 4
        )
        self.fetch_stalled = False
        self.fetch_halted = False
