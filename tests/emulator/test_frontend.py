"""Tests for speculative direct-execution (the frontend).

The key invariant (paper §3.2): no matter when the μ-architecture
simulator detects mispredictions and requests rollbacks, the
architectural results of the program — registers, memory, output —
are identical to plain in-order execution.
"""

import pytest

from repro.branch import AlwaysTakenPredictor, BimodalPredictor, NotTakenPredictor
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.functional import run_program
from repro.emulator.queues import ControlKind
from repro.errors import SimulationError
from repro.isa import assemble

LOOP_SUM = """
main:
    mov 10, %l0
    clr %l1
loop:
    add %l1, %l0, %l1
    subcc %l0, 1, %l0
    bne loop
    out %l1
    halt
"""

STORE_HEAVY = """
main:
    set buf, %l0
    mov 8, %l1
    clr %l2
fill:
    st %l2, [%l0]
    add %l0, 4, %l0
    add %l2, 3, %l2
    subcc %l1, 1, %l1
    bne fill
    set buf, %l0
    ld [%l0 + 28], %l3
    out %l3
    halt
    .data
buf: .space 32
"""

NESTED_CALLS = """
main:
    mov 5, %o0
    call fib
    out %o0
    halt
fib:                        ! iterative fibonacci with a conditional loop
    mov %o0, %l0
    mov 0, %o0
    mov 1, %l1
fib_loop:
    tst %l0
    be fib_done
    add %o0, %l1, %l2
    mov %l1, %o0
    mov %l2, %l1
    sub %l0, 1, %l0
    ba fib_loop
fib_done:
    ret
"""


def drive(source, predictor, rollback_delay=0):
    """Run the frontend with a toy control policy.

    Rollback policy: after *rollback_delay* further events (or at a
    HALT/stall), roll back to the oldest outstanding misprediction.
    Returns the frontend after the program really halts.
    """
    exe = assemble(source)
    frontend = SpeculativeFrontend(exe, predictor)
    outstanding = []  # control indices of unresolved mispredictions
    pending_delay = 0
    for _ in range(100_000):
        record = frontend.run_one_event()
        index = len(frontend.queues.controls) - 1
        if record.mispredicted:
            outstanding.append(index)
        at_halt = record.kind is ControlKind.HALT
        if outstanding:
            pending_delay += 1
            if pending_delay > rollback_delay or at_halt:
                frontend.rollback_to(outstanding[0])
                outstanding.clear()
                pending_delay = 0
                continue
        if at_halt and not outstanding:
            return frontend
    raise AssertionError("program did not halt")


@pytest.mark.parametrize("source", [LOOP_SUM, STORE_HEAVY, NESTED_CALLS],
                         ids=["loop-sum", "store-heavy", "nested-calls"])
@pytest.mark.parametrize("delay", [0, 1, 2, 3])
@pytest.mark.parametrize("predictor_cls",
                         [BimodalPredictor, AlwaysTakenPredictor,
                          NotTakenPredictor])
def test_rollback_transparency(source, delay, predictor_cls):
    """Speculation + rollback must reproduce in-order execution exactly."""
    reference = run_program(assemble(source))
    frontend = drive(source, predictor_cls(), rollback_delay=delay)
    state = frontend.state
    assert state.output == reference.output
    assert state.regs == reference.regs
    assert state.instret == reference.instret
    # Memory: compare every touched page of the reference.
    for base, page in reference.memory.pages():
        assert state.memory.read_bytes(base, len(page)) == bytes(page)


class TestRecords:
    def test_loop_records_branches(self):
        exe = assemble(LOOP_SUM)
        frontend = SpeculativeFrontend(exe, NotTakenPredictor())
        record = frontend.run_one_event()
        assert record.kind is ControlKind.COND
        assert record.taken is True  # first bne is taken
        assert record.predicted_taken is False
        assert record.mispredicted

    def test_correct_prediction_saves_no_checkpoint(self):
        exe = assemble(LOOP_SUM)
        frontend = SpeculativeFrontend(exe, AlwaysTakenPredictor())
        frontend.run_one_event()  # taken branch, predicted taken
        assert len(frontend.bq) == 0

    def test_misprediction_saves_checkpoint(self):
        exe = assemble(LOOP_SUM)
        frontend = SpeculativeFrontend(exe, NotTakenPredictor())
        frontend.run_one_event()
        assert len(frontend.bq) == 1

    def test_load_store_queues_fill(self):
        exe = assemble(STORE_HEAVY)
        frontend = SpeculativeFrontend(exe, AlwaysTakenPredictor())
        for _ in range(50):
            record = frontend.run_one_event()
            if record.kind is ControlKind.HALT:
                break
            if record.mispredicted:
                frontend.rollback_to(len(frontend.queues.controls) - 1)
        assert len(frontend.queues.stores) == 8
        assert len(frontend.queues.loads) == 1
        assert frontend.queues.store_widths == [4] * 8
        buf = exe.symbols["buf"]
        assert frontend.queues.stores == [buf + 4 * k for k in range(8)]
        assert frontend.queues.loads == [buf + 28]

    def test_store_records_capture_old_bytes(self):
        exe = assemble(STORE_HEAVY)
        frontend = SpeculativeFrontend(exe, AlwaysTakenPredictor())
        frontend.run_one_event()
        assert frontend.queues.store_olds[0] == bytes(4)  # .space is zeroed

    def test_indirect_jump_record(self):
        exe = assemble(NESTED_CALLS)
        frontend = SpeculativeFrontend(exe, AlwaysTakenPredictor())
        records = []
        for _ in range(100):
            record = frontend.run_one_event()
            records.append(record)
            if record.mispredicted:
                frontend.rollback_to(len(frontend.queues.controls) - 1)
            if record.kind is ControlKind.HALT:
                break
        kinds = {r.kind for r in records}
        assert ControlKind.INDIRECT in kinds  # the ret
        indirect = next(r for r in records if r.kind is ControlKind.INDIRECT)
        assert indirect.target == exe.symbols["main"] + 8  # after the call

    def test_halt_record_terminates(self):
        exe = assemble("main: halt")
        frontend = SpeculativeFrontend(exe, BimodalPredictor())
        record = frontend.run_one_event()
        assert record.kind is ControlKind.HALT


class TestRollbackErrors:
    def test_rollback_to_unknown_record(self):
        exe = assemble(LOOP_SUM)
        frontend = SpeculativeFrontend(exe, BimodalPredictor())
        with pytest.raises(SimulationError):
            frontend.rollback_to(5)

    def test_rollback_to_correctly_predicted_branch(self):
        exe = assemble(LOOP_SUM)
        frontend = SpeculativeFrontend(exe, AlwaysTakenPredictor())
        frontend.run_one_event()  # correctly predicted
        with pytest.raises(SimulationError, match="not mispredicted"):
            frontend.rollback_to(0)


class TestCounters:
    def test_squashed_instruction_accounting(self):
        frontend = drive(LOOP_SUM, NotTakenPredictor(), rollback_delay=2)
        assert frontend.rollbacks > 0
        assert frontend.squashed_instructions > 0
        assert (frontend.committed_instructions
                == frontend.state.instret)

    def test_no_rollbacks_with_oracle_like_prediction(self):
        # A loop branch taken 9 times then untaken: bimodal warms up and
        # mispredicts only a handful of times.
        frontend = drive(LOOP_SUM, BimodalPredictor(), rollback_delay=0)
        assert frontend.rollbacks <= 3
