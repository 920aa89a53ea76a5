"""Decoded instruction representation.

An :class:`Instruction` is the fully-decoded, immutable form used by every
consumer in the package: the functional emulator pre-decodes the text
segment into a list of these; the out-of-order model reads the register
fields to recompute renaming each cycle; the configuration codec walks
them to rebuild pipeline contents from a compressed snapshot.

Register operands live in two namespaces (integer file and FP file); the
fields ``rs1``/``rs2``/``rd`` are integer-file indices and ``fs1``/
``fs2``/``fd`` are FP-file indices, with ``None`` meaning "not used".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.isa.opcodes import (
    ACCESS_WIDTH,
    CONDITIONAL_BRANCHES,
    Format,
    InstrClass,
    LAT_AGEN,
    Opcode,
    OpInfo,
    opcode_info,
)
from repro.isa.registers import NUM_INT_REGS, ZERO_REG

#: Instruction classes dispatched to the integer queue.
INT_QUEUE_CLASSES = frozenset({
    InstrClass.IALU, InstrClass.IMUL, InstrClass.IDIV,
    InstrClass.BRANCH, InstrClass.JUMP, InstrClass.NOP, InstrClass.HALT,
})

#: Instruction classes dispatched to the floating-point queue.
FP_QUEUE_CLASSES = frozenset({
    InstrClass.FALU, InstrClass.FMUL, InstrClass.FDIV, InstrClass.FSQRT,
})

#: Instruction classes dispatched to the address queue.
ADDR_QUEUE_CLASSES = frozenset({InstrClass.LOAD, InstrClass.STORE})

#: Queue kinds, as stored in :attr:`StaticFacts.queue`.
QUEUE_INT, QUEUE_FP, QUEUE_ADDR = range(3)

_QUEUE_OF = {
    iclass: queue
    for queue, classes in enumerate(
        (INT_QUEUE_CLASSES, FP_QUEUE_CLASSES, ADDR_QUEUE_CLASSES))
    for iclass in sorted(classes)
}

#: Non-pipelined units shared by a pair of classes
#: (:attr:`StaticFacts.serial_unit`; 0 means fully pipelined).
SERIAL_MULDIV, SERIAL_FDIVSQRT = 1, 2

_SERIAL_UNIT_OF = {
    InstrClass.IMUL: SERIAL_MULDIV, InstrClass.IDIV: SERIAL_MULDIV,
    InstrClass.FDIV: SERIAL_FDIVSQRT, InstrClass.FSQRT: SERIAL_FDIVSQRT,
}

# Scoreboard bit layout of ``StaticFacts.src_mask`` / ``dst_mask``:
# integer register r is bit r, FP register f is bit FP_BIT_BASE + f,
# then one bit per condition-code register, then the two address-blind
# memory-ordering rules expressed as resources — a store "produces"
# STORE_PENDING_BIT until it has issued to the cache and every load
# "reads" it; a conditional branch "produces" SPECULATIVE_BIT until it
# resolves and every store "reads" it.
FP_BIT_BASE = NUM_INT_REGS
ICC_BIT = 1 << 64
FCC_BIT = 1 << 65
STORE_PENDING_BIT = 1 << 66
SPECULATIVE_BIT = 1 << 67


#: Formats whose ``rd`` names an integer destination (writes to %g0
#: are discarded); ``call`` always writes its link register.
_INT_DEST_FORMATS = frozenset({Format.ALU, Format.SETHI, Format.LOAD,
                               Format.JMPL, Format.F2I})
#: Formats whose ``fd`` names an FP destination.
_FP_DEST_FORMATS = frozenset({Format.FPOP1, Format.FPOP2, Format.FLOAD,
                              Format.I2F})


class StaticFacts:
    """Every derived fact about one instruction — operands, and what
    the pipeline scan asks (queue, scoreboard masks, latency, kind) —
    computed once (:attr:`Instruction.static`). A pure function of the
    instruction, so none of it is pipeline state."""

    __slots__ = ("int_sources", "fp_sources", "int_dest", "fp_dest",
                 "queue", "src_mask", "dst_mask", "int_dests", "fp_dests",
                 "latency", "serial_unit", "is_load", "is_store", "is_cond",
                 "is_indirect", "is_halt", "consumes_control")

    def __init__(self, instr: "Instruction"):
        opcode = instr.opcode
        info = opcode_info(opcode)
        fmt = info.fmt
        iclass = info.iclass
        self.queue = _QUEUE_OF[iclass]
        self.is_load = iclass is InstrClass.LOAD
        self.is_store = iclass is InstrClass.STORE
        self.is_cond = opcode in CONDITIONAL_BRANCHES
        self.is_indirect = opcode is Opcode.JMPL
        self.is_halt = iclass is InstrClass.HALT
        #: fetch consumed a control record for this instruction
        self.consumes_control = (self.is_cond or self.is_indirect
                                 or self.is_halt)
        #: cycles in EXEC once issued (address generation for memory ops)
        self.latency = (LAT_AGEN if self.queue == QUEUE_ADDR
                        else info.latency)
        self.serial_unit = _SERIAL_UNIT_OF.get(iclass, 0)

        # Integer stores read their data register from the integer
        # file, FP stores from the FP file; %g0 is never a dependence.
        int_sources = [instr.rs1, instr.rs2,
                       instr.rd if fmt is Format.STORE else None]
        fp_sources = [instr.fs1, instr.fs2,
                      instr.fd if fmt is Format.FSTORE else None]
        self.int_sources = tuple(
            reg for reg in int_sources if reg is not None and reg != ZERO_REG)
        self.fp_sources = tuple(reg for reg in fp_sources if reg is not None)
        int_dest = fp_dest = None
        if fmt in _INT_DEST_FORMATS:
            if instr.rd != ZERO_REG:
                int_dest = instr.rd
        elif fmt is Format.CALL:
            int_dest = instr.rd  # link register, set by the decoder
        elif fmt in _FP_DEST_FORMATS:
            fp_dest = instr.fd
        self.int_dest = int_dest
        self.fp_dest = fp_dest
        #: rename registers taken from each file (0 or 1)
        self.int_dests = int(int_dest is not None)
        self.fp_dests = int(fp_dest is not None)

        src = 0
        for reg in self.int_sources:
            src |= 1 << reg
        for reg in self.fp_sources:
            src |= 1 << (FP_BIT_BASE + reg)
        if info.reads_icc:
            src |= ICC_BIT
        if info.reads_fcc:
            src |= FCC_BIT
        if self.is_load:
            src |= STORE_PENDING_BIT
        if self.is_store:
            src |= SPECULATIVE_BIT
        self.src_mask = src
        dst = 0
        if int_dest is not None:
            dst |= 1 << int_dest
        if fp_dest is not None:
            dst |= 1 << (FP_BIT_BASE + fp_dest)
        if info.sets_icc:
            dst |= ICC_BIT
        if info.sets_fcc:
            dst |= FCC_BIT
        if self.is_store:
            dst |= STORE_PENDING_BIT
        if self.is_cond:
            dst |= SPECULATIVE_BIT
        self.dst_mask = dst


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction at a fixed text address.

    Derived facts (class, sources, destinations, …) are cached on first
    access: instructions are decoded once per text address and consulted
    millions of times by the timing models, so these lookups are on the
    simulators' hottest path. (``functools.cached_property`` stores into
    the instance ``__dict__`` directly, which coexists with the frozen
    dataclass.)
    """

    address: int
    opcode: Opcode
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    rd: Optional[int] = None
    fs1: Optional[int] = None
    fs2: Optional[int] = None
    fd: Optional[int] = None
    imm: Optional[int] = None  #: sign-extended immediate, if the i-bit is set
    target: Optional[int] = None  #: absolute branch/call target address

    @cached_property
    def info(self) -> OpInfo:
        """Static opcode properties (format, class, latency, cc usage)."""
        return opcode_info(self.opcode)

    @cached_property
    def iclass(self) -> InstrClass:
        return self.info.iclass

    @cached_property
    def latency(self) -> int:
        return self.info.latency

    @cached_property
    def is_conditional_branch(self) -> bool:
        """True for multi-target conditional branches (icc or fcc)."""
        return self.opcode in CONDITIONAL_BRANCHES

    @cached_property
    def is_indirect_jump(self) -> bool:
        """True for jumps whose target is unknown statically (``jmpl``)."""
        return self.opcode is Opcode.JMPL

    @cached_property
    def is_load(self) -> bool:
        return self.info.iclass is InstrClass.LOAD

    @cached_property
    def is_store(self) -> bool:
        return self.info.iclass is InstrClass.STORE

    @cached_property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    @cached_property
    def access_width(self) -> int:
        """Memory access width in bytes (loads/stores only)."""
        return ACCESS_WIDTH[self.opcode]

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction."""
        return self.address + 4

    def int_sources(self) -> Tuple[int, ...]:
        """Integer registers read, excluding the hardwired zero register."""
        return self.static.int_sources

    def int_dest(self) -> Optional[int]:
        """Integer register written, or None. Writes to %g0 are discarded."""
        return self.static.int_dest

    def fp_sources(self) -> Tuple[int, ...]:
        """FP registers read."""
        return self.static.fp_sources

    def fp_dest(self) -> Optional[int]:
        """FP register written, or None."""
        return self.static.fp_dest

    @cached_property
    def static(self) -> StaticFacts:
        """The derived-facts record (operands and everything the
        pipeline scan consults)."""
        return StaticFacts(self)

    def __str__(self) -> str:
        from repro.isa.disasm import format_instruction

        return format_instruction(self)
