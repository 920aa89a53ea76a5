"""``Instruction.static`` against an independent reading of the fields.

The pipeline scan reads only the cached :class:`StaticFacts` record, and
``int_sources()``/``fp_sources()``/``int_dest()``/``fp_dest()`` are
views of it, so the operand rules are restated here from the raw
register fields and the opcode table — for every instruction of every
suite program and of generated ones.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import assemble
from repro.isa.instruction import (
    ADDR_QUEUE_CLASSES,
    FCC_BIT,
    FP_BIT_BASE,
    FP_QUEUE_CLASSES,
    ICC_BIT,
    INT_QUEUE_CLASSES,
    QUEUE_ADDR,
    QUEUE_FP,
    QUEUE_INT,
    SERIAL_FDIVSQRT,
    SERIAL_MULDIV,
    SPECULATIVE_BIT,
    STORE_PENDING_BIT,
)
from repro.isa.opcodes import Format, InstrClass, LAT_AGEN
from repro.isa.registers import ZERO_REG
from repro.workloads import WORKLOAD_ORDER, load_workload
from repro.workloads.fuzz import random_program


def reference_operands(instr):
    """``(int_sources, fp_sources, int_dest, fp_dest)`` by the ISA's
    rules: %g0 is never a dependence; stores read their data register;
    ``call`` writes its link register."""
    fmt = instr.info.fmt
    int_sources = [r for r in (instr.rs1, instr.rs2)
                   if r is not None and r != ZERO_REG]
    if fmt is Format.STORE and instr.rd not in (None, ZERO_REG):
        int_sources.append(instr.rd)
    fp_sources = [r for r in (instr.fs1, instr.fs2) if r is not None]
    if fmt is Format.FSTORE and instr.fd is not None:
        fp_sources.append(instr.fd)
    int_dest = fp_dest = None
    if fmt in (Format.ALU, Format.SETHI, Format.LOAD, Format.JMPL,
               Format.F2I):
        int_dest = instr.rd if instr.rd not in (None, ZERO_REG) else None
    elif fmt is Format.CALL:
        int_dest = instr.rd
    if fmt in (Format.FPOP1, Format.FPOP2, Format.FLOAD, Format.I2F):
        fp_dest = instr.fd
    return tuple(int_sources), tuple(fp_sources), int_dest, fp_dest


def check(instr):
    facts = instr.static
    info = instr.info
    iclass = instr.iclass
    int_sources, fp_sources, int_dest, fp_dest = reference_operands(instr)
    assert instr.int_sources() == facts.int_sources == int_sources
    assert instr.fp_sources() == facts.fp_sources == fp_sources
    assert instr.int_dest() == facts.int_dest == int_dest
    assert instr.fp_dest() == facts.fp_dest == fp_dest

    queue_classes = {QUEUE_INT: INT_QUEUE_CLASSES, QUEUE_FP: FP_QUEUE_CLASSES,
                     QUEUE_ADDR: ADDR_QUEUE_CLASSES}
    assert iclass in queue_classes[facts.queue]

    assert facts.is_load == instr.is_load
    assert facts.is_store == instr.is_store
    assert facts.is_cond == instr.is_conditional_branch
    assert facts.is_indirect == instr.is_indirect_jump
    assert facts.is_halt == (iclass is InstrClass.HALT)
    assert facts.consumes_control == (
        instr.is_conditional_branch or instr.is_indirect_jump
        or iclass is InstrClass.HALT)
    assert facts.latency == (LAT_AGEN if instr.is_mem else info.latency)
    assert facts.serial_unit == (
        SERIAL_MULDIV if iclass in (InstrClass.IMUL, InstrClass.IDIV)
        else SERIAL_FDIVSQRT if iclass in (InstrClass.FDIV, InstrClass.FSQRT)
        else 0)

    src = 0
    for reg in int_sources:
        src |= 1 << reg
    for reg in fp_sources:
        src |= 1 << (FP_BIT_BASE + reg)
    src |= ICC_BIT * info.reads_icc | FCC_BIT * info.reads_fcc
    src |= STORE_PENDING_BIT * instr.is_load | SPECULATIVE_BIT * instr.is_store
    assert facts.src_mask == src
    assert not facts.src_mask & (1 << ZERO_REG)
    if info.fmt is Format.STORE and instr.rd != ZERO_REG:
        assert facts.src_mask & (1 << instr.rd)  # the data register
    if info.fmt is Format.FSTORE:
        assert facts.src_mask & (1 << (FP_BIT_BASE + instr.fd))

    dst = 0
    if int_dest is not None:
        dst |= 1 << int_dest
    if fp_dest is not None:
        dst |= 1 << (FP_BIT_BASE + fp_dest)
    dst |= ICC_BIT * info.sets_icc | FCC_BIT * info.sets_fcc
    dst |= (STORE_PENDING_BIT * instr.is_store
            | SPECULATIVE_BIT * instr.is_conditional_branch)
    assert facts.dst_mask == dst
    assert not facts.dst_mask & (1 << ZERO_REG)
    assert facts.int_dests == (int_dest is not None)
    assert facts.fp_dests == (fp_dest is not None)


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_suite_program(name):
    instructions = load_workload(name, "tiny").instructions()
    assert instructions
    for instr in instructions:
        check(instr)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 8))
def test_generated_program(seed, blocks):
    for instr in assemble(random_program(seed, blocks=blocks)).instructions():
        check(instr)


def test_register_zero_never_tracked():
    exe = assemble("main: add %g0, %g0, %g0\nst %g0, [%g0]\nhalt")
    add, store, _ = exe.instructions()
    assert add.static.src_mask == 0 and add.static.dst_mask == 0
    assert add.static.int_dests == 0
    assert store.static.src_mask == SPECULATIVE_BIT


def test_record_is_cached_per_instruction():
    instr = assemble("main: halt").instructions()[0]
    assert instr.static is instr.static
