"""The ``iQ`` — the single central data structure of the μ-architecture.

Paper §4.1: *"FastSim's µ-architecture simulator is built around one
central data structure, the iQ, which contains one entry for every
instruction currently in the out-of-order pipeline. Between simulated
cycles, the iQ contains the entire configuration of the µ-architecture
simulator."*

Everything else the pipeline needs — register renaming, issue-queue
occupancy, functional-unit availability, the count of speculative
branches — is **recomputed every cycle** from the iQ so that the iQ
alone is the memoization key. An entry records only:

* which instruction it is (the decoded :class:`Instruction`, which is
  recoverable from its address);
* which stage it occupies and a small timer (the paper's "minimum
  number of cycles before this stage might change");
* for conditional branches: the predicted direction and whether the
  prediction was wrong (updated to the actual direction at
  resolution, since from then on it describes the fetch path);
* for indirect jumps: the recorded target.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass


class Stage(enum.IntEnum):
    """Pipeline stage of one iQ entry (3 bits in the encoded form)."""

    FETCHED = 0  #: fetched this cycle; decodes/dispatches next cycle
    QUEUE = 1  #: waiting in an issue queue for operands + a unit
    EXEC = 2  #: executing (timer = remaining cycles)
    CACHE = 3  #: load waiting on the cache simulator (timer = interval)
    STWAIT = 4  #: store waiting for store-buffer acceptance
    DONE = 5  #: complete; waiting to retire in order


#: The stages as module globals, for the per-entry-per-cycle loops.
FETCHED, QUEUE, EXEC, CACHE, STWAIT, DONE = Stage


#: Largest timer value the 11-bit encoded form can hold.
MAX_TIMER = (1 << 11) - 1


class IQEntry:
    """One in-flight instruction."""

    __slots__ = ("instr", "stage", "timer", "pred_taken", "mispredicted",
                 "jump_target")

    def __init__(
        self,
        instr: Instruction,
        stage: Stage = Stage.FETCHED,
        timer: int = 0,
        pred_taken: bool = False,
        mispredicted: bool = False,
        jump_target: Optional[int] = None,
    ):
        self.instr = instr
        self.stage = stage
        self.timer = timer
        self.pred_taken = pred_taken
        self.mispredicted = mispredicted
        self.jump_target = jump_target

    # -- classification helpers (all derived from the instruction) -------

    @property
    def iclass(self) -> InstrClass:
        return self.instr.iclass

    @property
    def is_cond_branch(self) -> bool:
        return self.instr.is_conditional_branch

    @property
    def is_indirect(self) -> bool:
        return self.instr.is_indirect_jump

    def next_fetch_address(self) -> Optional[int]:
        """Where fetch continues after this instruction.

        Returns None when fetch must stall (unresolved indirect jump)
        or stop (halt).
        """
        instr = self.instr
        facts = instr.static
        if facts.is_halt:
            return None
        if facts.is_cond:
            return instr.target if self.pred_taken else instr.fall_through
        if facts.is_indirect:
            if self.stage is DONE:
                return self.jump_target
            return None  # fetch stalls until the jump executes
        if instr.target is not None:  # ba / call: single static target
            return instr.target
        return instr.fall_through

    def __eq__(self, other) -> bool:
        if not isinstance(other, IQEntry):
            return NotImplemented
        return (
            self.instr.address == other.instr.address
            and self.stage == other.stage
            and self.timer == other.timer
            and self.pred_taken == other.pred_taken
            and self.mispredicted == other.mispredicted
            and self.jump_target == other.jump_target
        )

    def __repr__(self) -> str:
        extra = ""
        if self.is_cond_branch:
            extra = (f" pred={'T' if self.pred_taken else 'N'}"
                     f"{' MISP' if self.mispredicted else ''}")
        elif self.is_indirect:
            extra = f" ->0x{self.jump_target:x}" if self.jump_target else ""
        return (
            f"<0x{self.instr.address:08x} {self.instr.info.mnemonic}"
            f" {self.stage.name} t={self.timer}{extra}>"
        )


class InstructionQueue:
    """Ordered list of in-flight instructions (oldest first)."""

    __slots__ = ("entries", "capacity")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: List[IQEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def extend(self, entries: Iterable[IQEntry]) -> None:
        self.entries.extend(entries)
