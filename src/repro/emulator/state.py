"""Architectural state: register files, condition codes, PC, output.

:class:`ArchState` is the complete user-visible machine state operated
on by functional execution. Integer registers hold unsigned 32-bit
values (two's complement views are computed where needed); FP registers
hold Python floats (our stand-in for the R10000's 32×64-bit FP file —
``ldf``/``stf`` convert through IEEE binary32 so single-precision
workloads still round correctly).

Condition codes follow SPARC: ``icc`` packs N/Z/V/C, set only by the
``…cc`` opcodes; ``fcc`` holds the result of ``fcmp`` (equal / less /
greater / unordered).
"""

from __future__ import annotations

from typing import List, Optional

from repro.emulator.memory import Memory
from repro.isa.program import STACK_TOP, Executable
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS, SP_REG

# icc bit positions.
ICC_N = 8
ICC_Z = 4
ICC_V = 2
ICC_C = 1

# fcc values.
FCC_EQ = 0
FCC_LT = 1
FCC_GT = 2
FCC_UO = 3


def to_signed(value: int) -> int:
    """Interpret an unsigned 32-bit value as two's complement."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class ArchState:
    """Complete architectural state of the simulated machine."""

    __slots__ = ("regs", "fregs", "icc", "fcc", "pc", "memory", "output",
                 "halted", "instret")

    def __init__(self, memory: Optional[Memory] = None):
        self.regs: List[int] = [0] * NUM_INT_REGS
        self.fregs: List[float] = [0.0] * NUM_FP_REGS
        self.icc = 0
        self.fcc = FCC_EQ
        self.pc = 0
        self.memory = memory if memory is not None else Memory()
        #: Values emitted by ``out`` instructions, in program order.
        self.output: List[int] = []
        self.halted = False
        #: Committed (architectural) instruction count.
        self.instret = 0

    @classmethod
    def boot(cls, executable: Executable) -> "ArchState":
        """Create state with *executable* loaded and PC at its entry."""
        state = cls()
        state.memory.load_bytes(executable.text_base, executable.text)
        if executable.data:
            state.memory.load_bytes(executable.data_base, executable.data)
        state.pc = executable.entry
        state.regs[SP_REG] = STACK_TOP
        return state

    # -- register access -------------------------------------------------

    def read_reg(self, index: int) -> int:
        """Read integer register (``%g0`` always reads 0)."""
        return self.regs[index] if index else 0

    def write_reg(self, index: int, value: int) -> None:
        """Write integer register (writes to ``%g0`` are discarded)."""
        if index:
            self.regs[index] = value & 0xFFFF_FFFF

    # -- condition codes --------------------------------------------------

    def set_icc_logical(self, result: int) -> None:
        """Set N/Z from a logical result; V and C are cleared."""
        icc = 0
        if result & 0x8000_0000:
            icc |= ICC_N
        if result == 0:
            icc |= ICC_Z
        self.icc = icc

    def set_icc_add(self, a: int, b: int, result: int) -> None:
        """Set all four codes from ``a + b`` (unsigned 32-bit views)."""
        icc = 0
        if result & 0x8000_0000:
            icc |= ICC_N
        if result == 0:
            icc |= ICC_Z
        if (~(a ^ b) & (a ^ result)) & 0x8000_0000:
            icc |= ICC_V
        if a + b > 0xFFFF_FFFF:
            icc |= ICC_C
        self.icc = icc

    def set_icc_sub(self, a: int, b: int, result: int) -> None:
        """Set all four codes from ``a - b`` (C means borrow)."""
        icc = 0
        if result & 0x8000_0000:
            icc |= ICC_N
        if result == 0:
            icc |= ICC_Z
        if ((a ^ b) & (a ^ result)) & 0x8000_0000:
            icc |= ICC_V
        if a < b:
            icc |= ICC_C
        self.icc = icc

    # -- snapshots for speculation ---------------------------------------

    def snapshot_registers(self):
        """Capture registers + codes + pc for misprediction rollback.

        Memory is *not* captured; pre-store values are logged separately
        (see :mod:`repro.emulator.checkpoint`), exactly as FastSim's
        ``bQ`` saves only register state.
        """
        return (
            list(self.regs),
            list(self.fregs),
            self.icc,
            self.fcc,
            self.pc,
            len(self.output),
            self.instret,
        )

    def restore_registers(self, snapshot) -> None:
        """Restore a :meth:`snapshot_registers` capture."""
        regs, fregs, icc, fcc, pc, output_len, instret = snapshot
        self.regs[:] = regs
        self.fregs[:] = fregs
        self.icc = icc
        self.fcc = fcc
        self.pc = pc
        del self.output[output_len:]
        self.instret = instret
