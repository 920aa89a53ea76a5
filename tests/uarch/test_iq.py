"""Unit tests for the iQ data structures."""

import pytest

from repro.isa import assemble
from repro.isa.instruction import (
    ADDR_QUEUE_CLASSES,
    FP_QUEUE_CLASSES,
    INT_QUEUE_CLASSES,
)
from repro.uarch.iq import IQEntry, InstructionQueue, Stage

PROGRAM = """
main:
    ld [%g1], %l0
    add %l0, 1, %l1
    st %l1, [%g1 + 4]
    fadd %f0, %f1, %f2
    be main
    jmpl [%l1], %g0
    call main
    halt
"""


@pytest.fixture()
def entries():
    exe = assemble(PROGRAM)
    return [IQEntry(i) for i in exe.instructions()]


class TestIQEntry:
    def test_classification(self, entries):
        load, add, store, fadd, branch, jmpl, call, halt = entries
        assert load.instr.static.is_load and not load.instr.static.is_store
        assert store.instr.static.is_store
        assert branch.is_cond_branch
        assert jmpl.is_indirect
        assert halt.instr.static.is_halt

    def test_consumes_control(self, entries):
        consumes = [e.instr.static.consumes_control for e in entries]
        #           ld     add    st     fadd   be    jmpl  call   halt
        # (call has a direct target, so fetch needs no record for it)
        assert consumes == [False, False, False, False, True, True, False,
                            True]

    def test_next_fetch_address_sequential(self, entries):
        add = entries[1]
        assert add.next_fetch_address() == add.instr.address + 4

    def test_next_fetch_address_branch_bits(self, entries):
        branch = entries[4]
        branch.pred_taken = True
        assert branch.next_fetch_address() == branch.instr.target
        branch.pred_taken = False
        assert branch.next_fetch_address() == branch.instr.address + 4

    def test_next_fetch_address_unresolved_jump(self, entries):
        jmpl = entries[5]
        jmpl.jump_target = 0x12340
        assert jmpl.next_fetch_address() is None  # stalls until DONE
        jmpl.stage = Stage.DONE
        assert jmpl.next_fetch_address() == 0x12340

    def test_next_fetch_address_call(self, entries):
        call = entries[6]
        assert call.next_fetch_address() == call.instr.target

    def test_next_fetch_address_halt(self, entries):
        assert entries[7].next_fetch_address() is None

    def test_equality(self, entries):
        exe = assemble(PROGRAM)
        other = IQEntry(exe.instructions()[0])
        assert entries[0] == other
        other.timer = 5
        assert entries[0] != other

    def test_repr_readable(self, entries):
        branch = entries[4]
        branch.mispredicted = True
        text = repr(branch)
        assert "be" in text and "MISP" in text


class TestInstructionQueue:
    def test_capacity(self, entries):
        iq = InstructionQueue(4)
        iq.extend(entries[:4])
        assert len(iq) == iq.capacity == 4
        assert iq.entries == entries[:4]


class TestQueueClassPartition:
    def test_every_class_assigned_exactly_once(self):
        from repro.isa.opcodes import InstrClass

        all_classes = set(InstrClass)
        partition = (INT_QUEUE_CLASSES | FP_QUEUE_CLASSES
                     | ADDR_QUEUE_CLASSES)
        assert partition == all_classes
        assert not INT_QUEUE_CLASSES & FP_QUEUE_CLASSES
        assert not INT_QUEUE_CLASSES & ADDR_QUEUE_CLASSES
        assert not FP_QUEUE_CLASSES & ADDR_QUEUE_CLASSES
