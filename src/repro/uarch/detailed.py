"""The detailed, cycle-accurate out-of-order pipeline simulator.

Models a MIPS R10000-like core (paper Figure 1 / Table 1): 4-wide fetch,
decode, and retire; 16-entry integer, floating-point, and address
queues; 2 integer ALUs, 2 FPUs, and one load/store address adder;
64 + 64 physical registers; speculation through up to 4 conditional
branches; and non-blocking caches reached through the issue/poll
interface of :class:`repro.cache.MemorySystem`.

Two properties are load-bearing for memoization (paper §4.1):

1. **The iQ is the only state carried between cycles.** Register
   renaming, issue-queue occupancy, functional-unit availability, the
   speculative-branch count, and the fetch PC are all *recomputed every
   cycle* from the iQ (the fetch PC is cached in an attribute but is a
   pure function of the youngest iQ entry and is rebuilt on restore).
2. **All interaction with the outside goes through yielded
   requests** (:mod:`repro.uarch.interactions`): the simulator is a
   generator that yields requests and receives outcomes, so its
   behaviour is a deterministic function of (iQ state, outcome
   sequence). That is what the p-action cache records and replays.

A cycle walks ``iq.entries`` twice (docs/performance.md, "detailed
pipeline"): once to advance executing entries — the walk that yields —
and once in :func:`issue_and_dispatch`, which is yield-free and shared
with :class:`repro.sim.baseline.IntegratedSimulator`. Everything either
walk asks about an instruction comes from its cached
:class:`~repro.isa.instruction.StaticFacts`.

Model simplifications (documented in DESIGN.md): in-order dispatch
stalls at the first blocked instruction; multiply/divide share one
non-pipelined slot (as do FP divide/sqrt); loads may not issue to the
cache before every older store has issued, and stores do not issue
speculatively under an unresolved branch — an address-blind ordering
policy, keeping data addresses out of the μ-architecture exactly as
FastSim does.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.emulator.queues import ControlKind, ControlRecord
from repro.errors import SimulationError
from repro.isa.instruction import QUEUE_ADDR
from repro.isa.program import Executable
from repro.uarch.interactions import (
    CYCLE_BOUNDARY,
    FINISHED,
    GET_CONTROL,
    IssueLoad,
    IssueStore,
    PollLoad,
    Request,
    Retire,
    Rollback,
)
from repro.uarch.iq import (
    CACHE,
    DONE,
    EXEC,
    FETCHED,
    QUEUE,
    STWAIT,
    IQEntry,
    InstructionQueue,
)
from repro.uarch.params import ProcessorParams


def scan_limits(params: ProcessorParams) -> Tuple:
    """The parameters :func:`issue_and_dispatch` consults, flattened
    once per run: functional units and issue-queue sizes indexed by
    queue kind, the two rename budgets, and the decode width."""
    return (
        (params.int_alus, params.fp_units, params.agen_units),
        (params.int_queue, params.fp_queue, params.addr_queue),
        params.int_renames, params.fp_renames, params.decode_width,
    )


def _serial_unit_busy(entries, unit: int) -> bool:
    """True while an instruction occupies non-pipelined unit *unit*."""
    for entry in entries:
        if entry.stage is EXEC and entry.instr.static.serial_unit == unit:
            return True
    return False


def _tally(entries) -> Tuple[int, int, int]:
    """``(loads, stores, control-record consumers)`` among *entries* —
    over the entries older than some position these are its ordinals."""
    loads = stores = controls = 0
    for entry in entries:
        facts = entry.instr.static
        if facts.is_load:
            loads += 1
        elif facts.is_store:
            stores += 1
        elif facts.consumes_control:
            controls += 1
    return loads, stores, controls


def issue_and_dispatch(entries, limits: Tuple) -> int:
    """One cycle's issue and decode/dispatch over *entries* (oldest
    first; anything with ``instr``/``stage``/``timer``), in one walk.

    Issue is oldest-first out of the three queues: an entry leaves
    QUEUE for EXEC when no older in-flight instruction still produces
    one of its sources, a unit of its kind is free this cycle, and —
    for mul/div and FP div/sqrt — the shared non-pipelined unit is
    idle. The scoreboard is an integer bitmask
    (:class:`~repro.isa.instruction.StaticFacts` gives each
    instruction's source and destination bits, the two address-blind
    memory-ordering rules included). Fetched entries are always the
    youngest, so by the time the walk reaches them the occupancy of
    every issue queue and rename file is known and they dispatch in
    order, stalling at the first one that does not fit.

    Returns the number of unresolved conditional branches, which bounds
    how far fetch may speculate.
    """
    units, queue_sizes, int_rename_limit, fp_rename_limit, room = limits
    free = list(units)
    held = [0, 0, 0]  # issue-queue slots in use, by queue kind
    int_renames = fp_renames = 0
    undone = 0  # scoreboard bits with an older in-flight producer
    unresolved = 0
    for entry in entries:
        stage = entry.stage
        facts = entry.instr.static
        if stage is DONE:
            int_renames += facts.int_dests
            fp_renames += facts.fp_dests
            continue
        if facts.is_cond:
            unresolved += 1
        queue = facts.queue
        if stage is FETCHED:
            if not room:
                continue
            if (held[queue] >= queue_sizes[queue]
                    or (facts.int_dests and int_renames >= int_rename_limit)
                    or (facts.fp_dests and fp_renames >= fp_rename_limit)):
                room = 0  # in-order: nothing younger dispatches either
                continue
            entry.stage = QUEUE
            room -= 1
            held[queue] += 1
        elif (stage is QUEUE and not facts.src_mask & undone and free[queue]
              and not (facts.serial_unit
                       and _serial_unit_busy(entries, facts.serial_unit))):
            entry.stage = EXEC
            entry.timer = facts.latency
            free[queue] -= 1
            if queue == QUEUE_ADDR:
                held[queue] += 1
        elif stage is QUEUE or queue == QUEUE_ADDR:
            # Address-queue entries keep their slot until completion.
            held[queue] += 1
            if stage is STWAIT:
                continue  # issued to the cache: no longer a pending store
        int_renames += facts.int_dests
        fp_renames += facts.fp_dests
        undone |= facts.dst_mask
    return unresolved


class DetailedSimulator:
    """Cycle-by-cycle out-of-order pipeline model (a generator)."""

    def __init__(self, executable: Executable,
                 params: Optional[ProcessorParams] = None):
        self.executable = executable
        self.params = params if params is not None else ProcessorParams.r10k()
        self.iq = InstructionQueue(self.params.iq_capacity)
        self.fetch_pc: Optional[int] = executable.entry
        self.fetch_stalled = False  #: waiting for an indirect jump
        self.fetch_halted = False  #: a halt instruction was fetched

    @property
    def occupancy(self) -> int:
        """In-flight instruction count — the sampled iQ-occupancy
        series' source (read-only; observers must never mutate)."""
        return len(self.iq.entries)

    # ------------------------------------------------------------------
    # Restore (used when fast-forwarding falls back to detailed mode)
    # ------------------------------------------------------------------

    def restore(self, iq_entries, fetch_pc, fetch_stalled,
                fetch_halted) -> None:
        """Adopt a decoded configuration as the current pipeline state."""
        self.iq = InstructionQueue(self.params.iq_capacity)
        self.iq.extend(iq_entries)
        self.fetch_pc = fetch_pc
        self.fetch_stalled = fetch_stalled
        self.fetch_halted = fetch_halted

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> Generator[Request, object, None]:
        """Simulate cycles until the program's halt retires.

        Yields :class:`Request` objects; the driver must ``send()`` the
        outcome (or None for outcome-less requests).

        A cycle is retire, one walk that advances executing entries
        (the only phase besides fetch that talks to the world),
        :func:`issue_and_dispatch`, then fetch. Nothing but the iQ and
        the three fetch attributes survives from one cycle to the next.
        """
        params = self.params
        instruction_at = self.executable.instruction_at
        limits = scan_limits(params)
        retire_width = params.retire_width
        fetch_width = params.fetch_width
        max_spec_branches = params.max_spec_branches
        capacity = params.iq_capacity
        while True:
            entries = self.iq.entries

            # -- retire: the oldest DONE entries, in order ----------------
            count = loads = stores = controls = branches = 0
            halted = False
            for entry in entries:
                if count == retire_width or entry.stage is not DONE:
                    break
                count += 1
                facts = entry.instr.static
                if facts.is_load:
                    loads += 1
                elif facts.is_store:
                    stores += 1
                elif facts.consumes_control:
                    controls += 1
                    if facts.is_cond:
                        branches += 1
                    elif facts.is_halt:
                        halted = True
            if count:
                del entries[:count]
                yield Retire(count, loads, stores, controls, branches)
                if halted:
                    if entries:
                        raise SimulationError(
                            "halt retired with younger instructions in flight"
                        )
                    yield CYCLE_BOUNDARY
                    yield FINISHED
                    return

            # -- execution progress ---------------------------------------
            for index, entry in enumerate(entries):
                stage = entry.stage
                if stage is EXEC:
                    entry.timer = timer = entry.timer - 1
                    if timer > 0:
                        continue
                    facts = entry.instr.static
                    if facts.is_load:
                        interval = yield IssueLoad(_tally(entries[:index])[0])
                        entry.stage = CACHE
                        entry.timer = interval
                    elif facts.is_store:
                        interval = yield IssueStore(_tally(entries[:index])[1])
                        entry.stage = STWAIT
                        entry.timer = interval
                    elif facts.is_cond and entry.mispredicted:
                        entry.stage = DONE
                        # From now on the stored bit describes the
                        # (corrected) fetch path.
                        entry.pred_taken = taken = not entry.pred_taken
                        entry.mispredicted = False
                        control_ordinal = _tally(entries[:index])[2]
                        squashed = entries[index + 1:]
                        del entries[index + 1:]
                        yield Rollback(control_ordinal, *_tally(squashed))
                        instr = entry.instr
                        self.fetch_pc = (instr.target if taken
                                         else instr.fall_through)
                        self.fetch_stalled = False
                        self.fetch_halted = False
                    else:
                        entry.stage = DONE
                        if (facts.is_indirect and self.fetch_stalled
                                and index == len(entries) - 1):
                            # Fetch was waiting on this jump's target.
                            self.fetch_stalled = False
                            self.fetch_pc = entry.jump_target
                elif stage is CACHE:
                    entry.timer = timer = entry.timer - 1
                    if timer <= 0:
                        reply = yield PollLoad(_tally(entries[:index])[0])
                        if reply == 0:
                            entry.stage = DONE
                        else:
                            entry.timer = reply
                elif stage is STWAIT:
                    entry.timer = timer = entry.timer - 1
                    if timer <= 0:
                        entry.stage = DONE

            unresolved = issue_and_dispatch(entries, limits)

            # -- fetch ----------------------------------------------------
            pc = self.fetch_pc
            if pc is not None and not (self.fetch_stalled
                                       or self.fetch_halted):
                room = min(fetch_width, capacity - len(entries))
                while room > 0:
                    instr = instruction_at(pc)
                    facts = instr.static
                    if facts.is_cond:
                        if unresolved >= max_spec_branches:
                            break  # speculation limit: wait for one
                        unresolved += 1
                    entry = IQEntry(instr)
                    if facts.consumes_control:
                        record = yield GET_CONTROL
                        self._apply_control_record(entry, record)
                    entries.append(entry)
                    room -= 1
                    if facts.is_halt:
                        self.fetch_halted = True
                        self.fetch_pc = None
                        break
                    if facts.is_indirect:
                        self.fetch_stalled = True  # until the jump executes
                        self.fetch_pc = None
                        break
                    fall_through = instr.fall_through
                    if facts.is_cond and not entry.pred_taken:
                        pc = fall_through
                    else:  # ba / call have a single static target
                        pc = instr.target
                        if pc is None:
                            pc = fall_through
                    self.fetch_pc = pc
                    if pc != fall_through:
                        break  # a fetch group ends at a taken transfer

            yield CYCLE_BOUNDARY

    def _apply_control_record(self, entry: IQEntry,
                              record: ControlRecord) -> None:
        instr = entry.instr
        facts = instr.static
        if facts.is_cond:
            if record.kind is not ControlKind.COND or record.pc != instr.address:
                raise SimulationError(
                    f"control record mismatch at 0x{instr.address:x}: {record}"
                )
            entry.pred_taken = record.predicted_taken
            entry.mispredicted = record.mispredicted
        elif facts.is_indirect:
            if record.kind is not ControlKind.INDIRECT or record.pc != instr.address:
                raise SimulationError(
                    f"control record mismatch at 0x{instr.address:x}: {record}"
                )
            entry.jump_target = record.target
        else:  # halt
            if record.kind is not ControlKind.HALT:
                raise SimulationError(
                    f"expected HALT record at 0x{instr.address:x}, got {record}"
                )
