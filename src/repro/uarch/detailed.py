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

A cycle walks ``iq.entries`` once, in :func:`cycle_walk`, which is
shared with :class:`repro.sim.baseline.IntegratedSimulator`.
Everything the walk asks about an instruction comes from its cached
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
    """What :func:`cycle_walk` consults, flattened once per run: units
    and queue sizes by queue kind, rename budgets, decode width."""
    return (
        (params.int_alus, params.fp_units, params.agen_units),
        (params.int_queue, params.fp_queue, params.addr_queue),
        params.int_renames, params.fp_renames, params.decode_width,
    )


def _unit_taken(entries, index: int, unit: int) -> bool:
    """True while non-pipelined *unit* is busy for the entry at *index*
    once all have advanced: a younger EXEC timer of 1 frees it, and a
    resolving misprediction squashes everything behind it."""
    for position, entry in enumerate(entries):
        if entry.stage is EXEC:
            if position < index or entry.timer > 1:
                if entry.instr.static.serial_unit == unit:
                    return True
            elif entry.instr.static.is_cond and entry.mispredicted:
                return False  # it squashes everything younger
    return False


def _out_of_renames(older, facts, int_limit: int, fp_limit: int) -> bool:
    """True when a fetched entry with *facts* finds a rename file it
    writes full: every *older* entry past dispatch holds its dests."""
    held = [e.instr.static for e in older if e.stage is not FETCHED]
    return bool(
        facts.int_dests and sum(f.int_dests for f in held) >= int_limit
        or facts.fp_dests and sum(f.fp_dests for f in held) >= fp_limit)


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


def cycle_walk(entries, limits: Tuple) -> Generator[int, None, int]:
    """One cycle's progress, issue and dispatch over *entries* (oldest
    first; anything with ``instr``, ``stage``, ``timer`` and
    ``mispredicted``): each entry is advanced and then, in the same
    visit, issued or dispatched (docs/performance.md, "The detailed
    pipeline", has the rules and why the order is exact).

    The walk makes every stage change. An expiry that needs the world —
    a load or store leaving EXEC, a CACHE poll, a mispredicted branch
    (before the younger entries are squashed), an indirect jump — is
    yielded as the entry's index; the owner resumes the walk with the
    cache's reply (None for the last two). The return value is the
    number of unresolved conditional branches, which bounds fetch.
    """
    units, queue_sizes, int_rename_limit, fp_rename_limit, room = limits
    free = list(units)
    held = [0, 0, 0]  # issue-queue slots in use, by queue kind
    undone = 0  # scoreboard bits with an older in-flight producer
    unresolved = 0
    for index, entry in enumerate(entries):
        stage = entry.stage
        if stage is DONE:
            continue
        facts = entry.instr.static
        if stage is QUEUE:
            queue = facts.queue
            if (facts.src_mask & undone or not free[queue]
                    or (facts.serial_unit
                        and _unit_taken(entries, index, facts.serial_unit))):
                held[queue] += 1
            else:
                entry.stage = EXEC
                entry.timer = facts.latency
                free[queue] -= 1
                if queue == QUEUE_ADDR:
                    held[queue] += 1  # kept until the access completes
        elif stage is FETCHED:
            queue = facts.queue
            if room and not (
                    held[queue] >= queue_sizes[queue]
                    or ((facts.int_dests and index >= int_rename_limit
                         or facts.fp_dests and index >= fp_rename_limit)
                        and _out_of_renames(entries[:index], facts,
                                            int_rename_limit,
                                            fp_rename_limit))):
                entry.stage = QUEUE
                room -= 1
                held[queue] += 1
            else:
                room = 0  # in-order: nothing younger dispatches either
                if facts.is_cond:
                    unresolved += 1
                continue
        elif stage is EXEC:
            entry.timer = timer = entry.timer - 1
            if timer <= 0:
                if facts.queue != QUEUE_ADDR:
                    entry.stage = DONE
                    if facts.is_cond and entry.mispredicted:
                        # From now on the stored bit describes the
                        # (corrected) fetch path.
                        entry.pred_taken = not entry.pred_taken
                        entry.mispredicted = False
                        yield index  # the owner rolls back the younger
                        del entries[index + 1:]
                    elif facts.is_indirect:
                        yield index  # fetch may be waiting on its target
                    continue
                entry.timer = yield index  # the cache's interval
                held[QUEUE_ADDR] += 1
                if facts.is_store:
                    entry.stage = STWAIT
                    continue  # issued to the cache: no longer pending
                entry.stage = CACHE
            elif facts.queue == QUEUE_ADDR:
                held[QUEUE_ADDR] += 1
        elif stage is CACHE:
            entry.timer = timer = entry.timer - 1
            if timer <= 0:
                reply = yield index  # the cache's answer to a poll
                if reply == 0:
                    entry.stage = DONE
                    continue
                entry.timer = reply
            held[QUEUE_ADDR] += 1
        else:  # STWAIT
            entry.timer = timer = entry.timer - 1
            if timer <= 0:
                entry.stage = DONE
            else:
                held[QUEUE_ADDR] += 1
            continue
        undone |= facts.dst_mask
        if facts.is_cond:
            unresolved += 1
    return unresolved


class DetailedSimulator:
    """Cycle-by-cycle out-of-order pipeline model (a generator).

    Slotted to exactly the ``pipeline`` and ``signature`` groups of
    :data:`~repro.uarch.config_codec.CONFIG_FIELD_MANIFEST`, as
    :class:`IQEntry` and :class:`InstructionQueue` are to theirs: a
    field the configuration key does not capture cannot be stored on
    an instance (``AttributeError``)."""

    __slots__ = ("executable", "params", "iq", "fetch_pc", "fetch_stalled",
                 "fetch_halted")

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

        A cycle is retire, :func:`cycle_walk`, then fetch. Nothing but
        the iQ and the three fetch attributes survives from one cycle to
        the next.
        """
        params = self.params
        instruction_at = self.executable.instruction_at
        limits = scan_limits(params)
        retire_width = params.retire_width
        fetch_width = params.fetch_width
        max_spec_branches = params.max_spec_branches
        capacity = params.iq_capacity
        if self.fetch_halted and not self.iq.entries:
            # Restored at the terminal configuration: the boundary that
            # took the snapshot is spent, so only the end remains.
            yield FINISHED
            return
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

            # -- advance, issue, dispatch: one walk ------------------------
            walk = cycle_walk(entries, limits)
            try:
                index = next(walk)
                while True:
                    entry = entries[index]
                    facts = entry.instr.static
                    older = _tally(entries[:index])
                    reply = None
                    if facts.is_load:
                        reply = yield (PollLoad if entry.stage is CACHE
                                       else IssueLoad)(older[0])
                    elif facts.is_store:
                        reply = yield IssueStore(older[1])
                    elif facts.is_cond:  # mispredicted, now resolved
                        yield Rollback(older[2], *_tally(entries[index + 1:]))
                        self.fetch_pc = entry.next_fetch_address()
                        self.fetch_stalled = self.fetch_halted = False
                    elif self.fetch_stalled and index == len(entries) - 1:
                        # Fetch was waiting on this indirect jump's target.
                        self.fetch_stalled = False
                        self.fetch_pc = entry.next_fetch_address()
                    index = walk.send(reply)
            except StopIteration as walked:
                unresolved = walked.value

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
