"""Speculative direct-execution — the frontend that runs ahead of timing.

This is the reproduction of FastSim §3.2. The frontend functionally
executes the target program **in the direction the branch predictor
chooses**, not the direction the program actually computes: when the
predictor disagrees with the evaluated branch condition, the frontend
saves a register checkpoint (the ``bQ``), then continues down the
*predicted* — wrong — path, logging pre-store values so memory can be
restored. The μ-architecture simulator later detects the misprediction
when the branch executes in the pipeline and calls :meth:`rollback_to`,
which restores registers and memory and resumes execution on the
correct path.

Along the way the frontend records everything the timing models need:
load/store effective addresses (``lQ``/``sQ``) and one control record
per conditional branch / indirect jump / halt.

The frontend advances one *control event* at a time
(:meth:`run_one_event`): the caller — the μ-architecture simulator's
"return to direct execution" action — asks for the next event exactly
when fetch needs a control record that does not exist yet.
"""

from __future__ import annotations

from repro.branch.predictor import BranchPredictor
from repro.emulator.checkpoint import BQ_CAPACITY, BranchCheckpointQueue
from repro.emulator.functional import Interpreter
from repro.emulator.threaded import BlockCache
from repro.emulator.queues import ControlKind, ControlRecord, RecordQueues
from repro.errors import SimulationError
from repro.isa.program import Executable


class SpeculativeFrontend:
    """Runs the program ahead of the timing model, speculatively."""

    def __init__(
        self,
        executable: Executable,
        predictor: BranchPredictor,
        max_instructions: int = 500_000_000,
        bq_capacity: int = BQ_CAPACITY,
        state=None,
        threaded: bool = True,
    ):
        """*state* (optional) lets the frontend pick up mid-program from
        an existing :class:`~repro.emulator.state.ArchState` — used by
        the sampling simulator to alternate functional skipping with
        detailed measurement windows.

        *threaded* (default on) runs each hot block and the control
        event that ends it as one generated function
        (:mod:`repro.emulator.threaded`) instead of per-instruction
        ``step()`` dispatch. Control events, records, and every
        canonical result are byte-identical either way — the knob
        exists for ablation benchmarks."""
        self.executable = executable
        self.predictor = predictor
        self.interpreter = Interpreter(executable, state)
        self.queues = RecordQueues()
        self.bq = BranchCheckpointQueue(bq_capacity)
        self.max_instructions = max_instructions
        # Generated code binds the state, queues, predictor and bQ of
        # this frontend: all four are identity-stable for its lifetime
        # (queues are truncated in place, the others never replaced).
        self._blocks = BlockCache(self) if threaded else None
        #: Total instructions functionally executed, wrong paths included.
        self.executed_instructions = 0
        #: Instructions undone by misprediction rollbacks.
        self.squashed_instructions = 0
        #: Number of rollbacks performed.
        self.rollbacks = 0

    @property
    def state(self):
        """The (speculative) architectural state."""
        return self.interpreter.state

    @property
    def committed_instructions(self) -> int:
        """Instructions executed minus those later squashed."""
        return self.executed_instructions - self.squashed_instructions

    # ------------------------------------------------------------------

    def run_one_event(self) -> ControlRecord:
        """Execute up to (and including) the next control event.

        Appends an ``lQ``/``sQ`` entry for every memory instruction
        passed, appends and returns the new control record. At a
        mispredicted conditional branch, checkpoints state and diverts
        execution down the predicted path before returning.
        """
        interpreter = self.interpreter
        state = interpreter.state
        if state.halted:
            # The program halted at the previous event; every further
            # request sees a HALT record (fetch will stop consuming).
            return self._record(ControlKind.HALT, state.pc)

        # The executed-instruction counter lives in a local and is
        # written back at every exit (including the budget raise), so
        # observers always see it current. Nothing else is hoisted: the
        # common call is one trip through the threaded branch below.
        cache = self._blocks
        executed = self.executed_instructions
        limit = self.max_instructions
        try:
            while True:
                if cache is not None:
                    # Threaded fast path: the block at the current PC,
                    # and when it is hot the control event that ends it,
                    # in one call. It only runs when all of it fits the
                    # remaining budget; otherwise the step path below
                    # re-executes it one instruction at a time, so it
                    # sees exactly the state (and raises exactly the
                    # errors) it always did.
                    fn, count, end_pc, fused = (
                        cache.blocks.get(state.pc) or cache.decode(state.pc))
                    if count + fused <= limit - executed:
                        if fused:
                            # A fault in the body propagates from here
                            # with no effect of the event applied.
                            record = fn()
                            executed += count
                            if count:
                                cache.block_runs += 1
                                cache.threaded_instructions += count
                            if record is not None:
                                executed += 1
                                cache.fused_branches += 1
                                return record
                        else:
                            # None: generated code ran the body; False:
                            # a cold op stepped it; True: just compiled.
                            ran = fn() if fn is not None else False
                            if ran:
                                continue  # dispatch again
                            if count:
                                state.pc = end_pc
                                state.instret += count
                                executed += count
                                if ran is None:
                                    cache.block_runs += 1
                                    cache.threaded_instructions += count
                if executed >= limit:
                    raise SimulationError(
                        f"frontend exceeded {limit} instructions"
                    )
                instr = interpreter.step()
                executed += 1

                self.queues.log_access(instr, interpreter)
                if instr.is_conditional_branch:
                    actual_taken = interpreter.last_taken
                    # (An attribute call, not a pre-bound one: the flow
                    # lint resolves the predictor layer through it.)
                    predicted_taken = self.predictor.predict_and_update(
                        instr.address, actual_taken)
                    record = self._record(ControlKind.COND, instr.address,
                                          actual_taken, predicted_taken)
                    if predicted_taken != actual_taken:
                        # Checkpoint with PC at the *correct*
                        # destination, then divert execution down the
                        # predicted (wrong) path.
                        self.bq.save(len(self.queues.controls) - 1, state,
                                     state.pc)
                        state.pc = (instr.target if predicted_taken
                                    else instr.fall_through)
                    return record
                if instr.is_indirect_jump:
                    return self._record(ControlKind.INDIRECT, instr.address,
                                        True, target=interpreter.last_target)
                if state.halted:
                    return self._record(ControlKind.HALT, instr.address)
        finally:
            self.executed_instructions = executed

    def _record(self, kind: ControlKind, pc: int, taken: bool = False,
                predicted_taken: bool = False,
                target: int = 0) -> ControlRecord:
        """Append (and return) the step path's record of a control event
        at the current queue lengths."""
        queues = self.queues
        record = ControlRecord(kind, pc, taken, predicted_taken, target,
                               len(queues.loads), len(queues.stores))
        queues.controls.append(record)
        return record

    # ------------------------------------------------------------------

    def rollback_to(self, control_index: int) -> None:
        """Undo execution past mispredicted branch *control_index*.

        Restores pre-store memory values in reverse order, restores the
        ``bQ`` register checkpoint (leaving PC at the corrected target),
        and truncates the wrong-path queue entries.
        """
        queues = self.queues
        if control_index >= len(queues.controls):
            raise SimulationError(
                f"rollback to unknown control record {control_index}"
            )
        record = queues.controls[control_index]
        if not record.mispredicted:
            raise SimulationError(
                f"control record {control_index} was not mispredicted"
            )
        state = self.interpreter.state
        state.memory.undo_stores(queues.stores, queues.store_olds,
                                 record.sq_len)
        instret_before = state.instret
        self.bq.restore(control_index, state)
        self.squashed_instructions += instret_before - state.instret
        queues.truncate(control_index + 1, record.lq_len, record.sq_len)
        self.rollbacks += 1

    # ------------------------------------------------------------------

    def frontend_stats(self) -> dict:
        """Host-side dispatcher counters (never canonical; all zero on
        the reference path)."""
        return {name: getattr(self._blocks, name, 0)
                for name in BlockCache.STATS}
