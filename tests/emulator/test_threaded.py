"""Generated basic blocks ≡ ``Interpreter.step()``.

``repro.emulator.threaded`` translates straight-line code into
generated Python functions; ``step()`` is the reference path. Two
frontends — ``threaded=True`` and ``threaded=False`` — run every
program here in lockstep under the same predictor and the same forced
rollbacks, and after *every* control event and every rollback the
complete architectural state, the allocated memory pages, the
predictor's tables, the ``bQ`` checkpoints and the new
``lQ``/``sQ``/control records must be equal. Every test runs at three
compile thresholds (see ``compile_after``).
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    NotTakenPredictor,
)
from repro.emulator import alu, threaded
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.queues import ControlKind
from repro.emulator.state import ArchState
from repro.emulator.threaded import emit_instruction
from repro.errors import EmulationError, MemoryFault, SimulationError
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Opcode, opcode_info
from repro.isa.registers import LINK_REG
from repro.workloads import WORKLOAD_ORDER, load_workload
from repro.workloads.fuzz import random_program


@pytest.fixture(autouse=True, params=[1, 3, threaded.COMPILE_AFTER],
                ids=["hot", "warming", "default"])
def compile_after(request, monkeypatch):
    """Every test runs with blocks compiled at first sight (generated
    code only), on their third run (the step-path cold op, the
    promotion and the generated function all inside the programs'
    three-iteration loops, wrong paths included) and at the shipped
    threshold."""
    monkeypatch.setattr(threaded, "COMPILE_AFTER", request.param)
    return request.param


def _packed(fregs):
    # Packed, so that NaN compares equal to NaN and -0.0 differs from 0.0.
    return struct.pack(f">{len(fregs)}d", *fregs)


def _side_state(frontend):
    """What a control event touches beside the architectural state: the
    predictor's tables and counters, and the checkpoint tuples."""
    return {
        "predictor": {name: list(value) if isinstance(value, list) else value
                      for name, value in vars(frontend.predictor).items()},
        "bq": {index: (regs, _packed(fregs), *rest)
               for index, (regs, fregs, *rest)
               in frontend.bq._checkpoints.items()},
    }


def _snapshot(frontend):
    state = frontend.state
    return {
        **_side_state(frontend),
        "regs": list(state.regs),
        "fregs": _packed(state.fregs),
        "icc": state.icc, "fcc": state.fcc, "pc": state.pc,
        "instret": state.instret, "halted": state.halted,
        "output": list(state.output),
        "executed": frontend.executed_instructions,
        "pages": {base: bytes(page)
                  for base, page in state.memory.pages()},
    }


def _records(frontend, start):
    queues = frontend.queues
    loads = queues.loads[start[0]:]
    # The three sQ lists are one queue: never of different lengths.
    assert (len(queues.stores) == len(queues.store_widths)
            == len(queues.store_olds))
    stores = list(zip(queues.stores, queues.store_widths,
                      queues.store_olds))[start[1]:]
    assert all(type(old) is bytes and len(old) == width
               for _a, width, old in stores)
    controls = [(r.kind, r.pc, r.taken, r.predicted_taken, r.target,
                 r.lq_len, r.sq_len, r.outcome_key)
                for r in queues.controls[start[2]:]]
    for kind, pc, taken, predicted, target, *_rest, key in controls:
        # The key is a slot now; this is the method it replaced.
        assert key == {ControlKind.COND: (0, pc, taken, predicted),
                       ControlKind.INDIRECT: (1, pc, target),
                       ControlKind.HALT: (2, pc)}[kind]
        assert type(taken) is bool and type(predicted) is bool
    lengths = (len(queues.loads), len(queues.stores), len(queues.controls))
    return lengths, loads, stores, controls


def lockstep(exe, predictor_cls=BimodalPredictor, rollback_delay=1,
             max_instructions=500_000):
    """Run generated blocks and the step path side by side to the halt.

    Rollback policy (as ``test_frontend.drive``): *rollback_delay*
    events after a misprediction, or at a HALT, roll back to the oldest
    outstanding misprediction. Returns ``(threaded, stepped)``.
    """
    fronts = [SpeculativeFrontend(exe, predictor_cls(), threaded=flag,
                                  max_instructions=max_instructions)
              for flag in (True, False)]
    checked = (0, 0, 0)

    def compare():
        nonlocal checked
        fast, slow = fronts
        assert _snapshot(fast) == _snapshot(slow)
        seen_fast = _records(fast, checked)
        assert seen_fast == _records(slow, checked)
        checked = seen_fast[0]

    outstanding = []
    pending = 0
    for _ in range(200_000):
        record, reference = [f.run_one_event() for f in fronts]
        assert fronts[0].queues.controls[-1] is record
        assert record.outcome_key == reference.outcome_key
        compare()
        index = len(fronts[0].queues.controls) - 1
        if record.mispredicted:
            outstanding.append(index)
        at_halt = record.kind is ControlKind.HALT
        if outstanding:
            pending += 1
            if pending > rollback_delay or at_halt:
                for frontend in fronts:
                    frontend.rollback_to(outstanding[0])
                outstanding.clear()
                pending = 0
                checked = tuple(
                    min(done, now) for done, now
                    in zip(checked, _records(fronts[0], checked)[0]))
                compare()
                continue
        if at_halt:
            assert fronts[0].frontend_stats()["block_runs"] > 0
            return fronts
    raise AssertionError("program did not halt")


# ---------------------------------------------------------------------------
# One program per opcode: register, immediate, %g0-source, %g0-destination
# ---------------------------------------------------------------------------

#: Operand pairs covering sign bits, carries, overflows and zero.
INT_PAIRS = [(0, 0), (1, 0xFFFFFFFF), (0x7FFFFFFF, 1),
             (0x80000000, 0x80000000), (0xFFFFFFFF, 0xFFFFFFFF),
             (0x12345678, 0x9ABCDEF0), (37, 5)]

SIGNED_IMM = {Opcode.ADD, Opcode.ADDCC, Opcode.SUB, Opcode.SUBCC,
              Opcode.SMUL, Opcode.SDIV}

_LOOP_HEAD = """
main:
    set buf, %i0
    set {x}, %l0
    set {y}, %l1
    mov 3, %i1
loop:
"""

#: The loop re-runs each block (decoded once, executed three times,
#: once down a wrong path) with operands that change per iteration.
_LOOP_TAIL = """
    add %l0, %l1, %l0
    xor %l1, %i1, %l1
    subcc %i1, 1, %i1
    bne loop
    halt
    .data
    .align 8
buf:
    .word 0x80FF7F01, 0x01020304, 0xFFFFFFFF, 0
    .float 1.5, -2.25
    .double 3.141592653589793, -1e300, 1e-300, 0.0
    .space 64
"""


def _alu_body(name, opcode):
    imm_neg = "-7" if opcode in SIGNED_IMM else "4089"
    lines = []
    if opcode is Opcode.SDIV:
        lines.append("or %l1, 1, %l1")       # never divide by zero here
        forms = [f"{name} %l0, %l1, %l2", f"{name} %l0, 13, %l3",
                 f"{name} %l0, {imm_neg}, %l4", f"{name} %g0, %l1, %l5",
                 f"{name} %g0, 13, %l6", f"{name} %l0, %l1, %g0",
                 f"{name} %l1, %l1, %l7"]
    else:
        forms = [f"{name} %l0, %l1, %l2", f"{name} %l0, 13, %l3",
                 f"{name} %l0, {imm_neg}, %l4", f"{name} %g0, %l1, %l5",
                 f"{name} %g0, 13, %l6", f"{name} %l0, %g0, %l7",
                 f"{name} %l0, %l1, %g0", f"{name} %g0, %g0, %o0",
                 f"{name} %l2, %l2, %l2"]
    if opcode_info(opcode).sets_icc:
        # A conditional branch after each form: the lockstep compare at
        # that event sees the icc this form produced.
        for n, form in enumerate(forms):
            lines += [form, f"bgu cc{n}", "add %o1, 1, %o1", f"cc{n}:",
                      f"bl dd{n}", "add %o2, 1, %o2", f"dd{n}:"]
    else:
        lines += forms
    return lines


def _load_body(name, opcode):
    fp = opcode in (Opcode.LDF, Opcode.LDDF)
    reg = "%f" if fp else "%l"
    base = {Opcode.LDF: 16, Opcode.LDDF: 24}.get(opcode, 0)
    lines = [f"mov {base}, %o3",
             f"{name} [%i0 + {base}], {reg}2",
             f"{name} [%i0 + %o3], {reg}3",
             f"{name} [%i0 + {base + 8}], {reg}4",
             f"set buf + {base}, %o4",
             f"{name} [%o4], {reg}5",
             f"{name} [%o4 + %g0], {reg}6"]
    if not fp:
        lines.append(f"{name} [%i0 + {base}], %g0")
    return lines


def _store_body(name, opcode):
    fp = opcode in (Opcode.STF, Opcode.STDF)
    first, second = ("%f1", "%f2") if fp else ("%l0", "%l1")
    lines = ["lddf [%i0 + 24], %f1", "lddf [%i0 + 32], %f2",
             "mov 64, %o3",
             f"{name} {first}, [%i0 + 64]",
             f"{name} {first}, [%i0 + %o3]",
             f"{name} {second}, [%i0 + 72]",
             "ld [%i0 + 64], %l5", "ld [%i0 + 72], %l6"]
    if not fp:
        lines.append(f"{name} %g0, [%i0 + 80]")
    return lines


def _fp_body(name, opcode):
    setup = ["lddf [%i0 + 24], %f0", "lddf [%i0 + 32], %f1",
             "lddf [%i0 + 40], %f2", "lddf [%i0 + 48], %f3",
             "ldf [%i0 + 16], %f4", "fsub %f3, %f3, %f5",
             "fdiv %f0, %f3, %f6", "fdiv %f3, %f3, %f7",   # inf, nan
             "fneg %f6, %f8"]
    if opcode is Opcode.FCMP:
        forms = []
        for n, (a, b) in enumerate([(0, 1), (1, 0), (0, 0), (7, 0),
                                    (6, 8), (3, 5)]):
            forms += [f"fcmp %f{a}, %f{b}", f"fbl fc{n}",
                      "add %o1, 1, %o1", f"fc{n}:", f"fbe fd{n}",
                      "add %o2, 1, %o2", f"fd{n}:"]
    elif opcode is Opcode.FITOD:
        forms = ["fitod %l0, %f10", "fitod %l1, %f11", "fitod %g0, %f12"]
    elif opcode is Opcode.FDTOI:
        forms = ["fdtoi %f0, %l2", "fdtoi %f1, %l3", "fdtoi %f6, %l4",
                 "fdtoi %f7, %l5", "fdtoi %f8, %l6", "fdtoi %f4, %g0",
                 "fitod %l0, %f9", "fdtoi %f9, %l7"]
    elif opcode_info(opcode).fmt is Format.FPOP2:
        forms = [f"{name} %f{a}, %f{b}, %f{10 + n}" for n, (a, b) in
                 enumerate([(0, 1), (1, 2), (0, 3), (3, 3), (6, 8),
                            (7, 0), (0, 6), (5, 0)])]
    else:
        forms = [f"{name} %f{a}, %f{10 + a}" for a in (0, 1, 3, 4, 6, 7)]
    return setup + forms


def _program(opcode, pair):
    name = opcode.name.lower()
    fmt = opcode_info(opcode).fmt
    if fmt is Format.ALU:
        body = _alu_body(name, opcode)
    elif fmt in (Format.LOAD, Format.FLOAD):
        body = _load_body(name, opcode)
    elif fmt in (Format.STORE, Format.FSTORE):
        body = _store_body(name, opcode)
    elif opcode is Opcode.SETHI:
        body = ["sethi 0x7FFFF, %l2", "sethi 0, %l3", "sethi 5, %g0"]
    elif opcode is Opcode.OUT:
        body = ["out %l0", "out %g0", "out %l1"]
    elif opcode is Opcode.NOP:
        body = ["nop", "nop"]
    else:
        body = _fp_body(name, opcode)
    return (_LOOP_HEAD.format(x=pair[0], y=pair[1])
            + "\n".join("    " + line if not line.endswith(":") else line
                        for line in body)
            + _LOOP_TAIL)


#: Control transfers terminate or fold through blocks (``_decode``);
#: everything else must go through ``emit_instruction``.
CONTROL = {op for op in Opcode
           if opcode_info(op).fmt in (Format.BRANCH, Format.CALL,
                                      Format.JMPL)} | {Opcode.HALT}
STRAIGHT_LINE = sorted(set(Opcode) - CONTROL, key=int)


def test_emitter_models_every_straight_line_opcode():
    for opcode in STRAIGHT_LINE:
        instr = Instruction(0x1000, opcode, rs1=1, rs2=2, rd=3,
                            fs1=1, fs2=2, fd=3,
                            imm=5 if opcode is Opcode.SETHI else None)
        assert emit_instruction(instr, []), opcode


@pytest.mark.parametrize("opcode", STRAIGHT_LINE, ids=lambda op: op.name)
def test_opcode_matches_step_path(opcode):
    integer = opcode_info(opcode).fmt is Format.ALU
    for pair in INT_PAIRS if integer else INT_PAIRS[-2:]:
        exe = assemble(_program(opcode, pair))
        for predictor_cls in (NotTakenPredictor, AlwaysTakenPredictor):
            lockstep(exe, predictor_cls)


@pytest.mark.parametrize("delay", [0, 2])
def test_folded_transfers_match_step_path(delay):
    """``ba``/``bn``/``call`` fold through blocks, ``jmpl`` fuses."""
    exe = assemble("""
main:
    mov 4, %l0
    clr %l1
loop:
    call bump
    bn loop
    ba over
    add %l1, 100, %l1        ! skipped
over:
    subcc %l0, 1, %l0
    bne loop
    out %l1
    halt
bump:
    add %l1, %l0, %l1
    st %l1, [%sp - 8]
    ret
""")
    threaded, _stepped = lockstep(exe, NotTakenPredictor, delay)
    assert threaded.state.output == [10]


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_suite_workload_matches_step_path(name):
    lockstep(load_workload(name, "tiny"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), delay=st.integers(0, 3),
       predictor_cls=st.sampled_from([BimodalPredictor, NotTakenPredictor,
                                      AlwaysTakenPredictor]))
def test_fuzz_program_matches_step_path(seed, delay, predictor_cls):
    exe = assemble(random_program(seed, iterations=8))
    lockstep(exe, predictor_cls, delay)


# ---------------------------------------------------------------------------
# Faults, budget and first-touch pages
# ---------------------------------------------------------------------------

def _fault_pair(source, predictor_cls=NotTakenPredictor, **kwargs):
    """Run both paths into an exception; return the frontends and the
    exceptions."""
    exe = assemble(source)
    fronts, errors = [], []
    for flag in (True, False):
        frontend = SpeculativeFrontend(exe, predictor_cls(),
                                       threaded=flag, **kwargs)
        with pytest.raises(Exception) as info:
            for _ in range(100):
                frontend.run_one_event()
        fronts.append(frontend)
        errors.append(info.value)
    assert type(errors[0]) is type(errors[1])
    assert str(errors[0]) == str(errors[1])
    assert errors[0].args == errors[1].args
    return fronts, errors


MISALIGNED = """
main:
    set buf, %l0
    mov 1, %l1
    tst %g0
    be block                 ! a control event: the block starts below
block:
    add %l1, 1, %l1
    {access}
    add %l1, 1, %l1
    halt
    .data
buf: .space 16
"""


@pytest.mark.parametrize("access, width", [
    ("ld [%l0 + 2], %l2", 4), ("ldh [%l0 + 1], %l2", 2),
    ("lddf [%l0 + 4], %f2", 8), ("ldf [%l0 + 1], %f2", 4),
    ("ld [%l0 + 2], %g0", 4),
    ("st %l1, [%l0 + 3]", 4), ("sth %l1, [%l0 + 1]", 2),
    ("stf %f1, [%l0 + 2]", 4), ("stdf %f1, [%l0 + 4]", 8),
])
def test_misaligned_access_in_mid_block(access, width):
    (threaded, stepped), errors = _fault_pair(
        MISALIGNED.format(access=access))
    assert isinstance(errors[0], MemoryFault)
    assert f"misaligned {width}-byte access" in str(errors[0])
    # Effects before the faulting instruction are applied on both
    # paths, none after it.
    assert threaded.state.regs == stepped.state.regs
    assert threaded.state.regs[17] == 2
    assert ({b for b, _ in threaded.state.memory.pages()}
            == {b for b, _ in stepped.state.memory.pages()})
    # The block's PC/instret commit never happened: both still name
    # the block's first instruction. The step path stopped on the
    # faulting instruction itself.
    block_pc = assemble(MISALIGNED.format(access=access)).symbols["block"]
    assert threaded.state.pc == block_pc
    assert stepped.state.pc == block_pc + 4
    assert threaded.state.instret == stepped.state.instret - 1
    assert (threaded.executed_instructions
            == stepped.executed_instructions - 1)


def test_sdiv_by_zero_in_mid_block():
    source = """
main:
    mov 9, %l1
    tst %g0
    be block
block:
    add %l1, 1, %l1
    sdiv %l1, %g0, {rd}
    add %l1, 1, %l1
    halt
"""
    for rd in ("%l2", "%g0"):
        (threaded, stepped), errors = _fault_pair(source.format(rd=rd))
        assert type(errors[0]) is EmulationError
        assert str(errors[0]) == "integer division by zero"
        assert threaded.state.regs == stepped.state.regs
        assert threaded.state.regs[17] == 10
        block_pc = assemble(source.format(rd=rd)).symbols["block"]
        assert threaded.state.pc == block_pc
        assert threaded.state.instret == stepped.state.instret - 1


@pytest.mark.parametrize("budget", range(3, 11))
def test_over_budget_block_raises_on_the_same_instruction(budget):
    source = """
main:
    mov 1, %l1
    tst %g0
    be block
block:
    add %l1, 1, %l1
    st %l1, [%sp - 8]
    add %l1, 1, %l1
    ld [%sp - 8], %l2
    add %l1, 1, %l1
    cmp %l1, 4
    be done
done:
    halt
"""
    (threaded, stepped), errors = _fault_pair(
        source, max_instructions=budget)
    assert isinstance(errors[0], SimulationError)
    assert _snapshot(threaded) == _snapshot(stepped)
    assert (_records(threaded, (0, 0, 0))
            == _records(stepped, (0, 0, 0)))
    assert threaded.executed_instructions == budget


def test_first_touch_pages_and_zero_filled_pre_store_bytes():
    exe = assemble("""
main:
    set 0x40000100, %l0
    set 0x50000200, %l1
    set 0x60000300, %l2
    mov 7, %l3
    set 4096, %l5
    tst %g0
    be block
block:
    st %l3, [%l0]            ! store to a never-touched page
    ld [%l1 + 8], %l4        ! load from a never-touched page
    ld [%l2], %g0            ! ... even when the value is discarded
    stb %l3, [%l0 + %l5]
    halt
""")
    threaded, stepped = lockstep(exe)
    pages = {base for base, _ in threaded.state.memory.pages()}
    assert {0x40000000, 0x40001000, 0x50000000, 0x60000000} <= pages
    queues = threaded.queues
    assert queues.stores == [0x40000100, 0x40001100]
    assert queues.store_widths == [4, 1]
    assert queues.store_olds == [b"\x00\x00\x00\x00", b"\x00"]
    assert threaded.state.memory.read_word(0x40000100) == 7
    assert threaded.state.regs[20] == 0


def test_rollback_restores_memory_under_generated_blocks():
    """Wrong-path stores made by a block function are undone through
    the very pages the function keeps writing to afterwards."""
    exe = assemble("""
main:
    set buf, %l0
    mov 5, %l1
loop:
    ld [%l0], %l2
    add %l2, %l1, %l2
    st %l2, [%l0]
    subcc %l1, 1, %l1
    bne loop
    st %g0, [%l0 + 4]        ! wrong path when the exit is mispredicted
    ld [%l0], %l3
    out %l3
    halt
    .data
buf: .word 0, 99
""")
    threaded, _stepped = lockstep(exe, AlwaysTakenPredictor, 2)
    assert threaded.state.output == [15]
    assert threaded.rollbacks > 0


# ---------------------------------------------------------------------------
# Event functions: the block and the control event that ends it, fused
# ---------------------------------------------------------------------------

def test_branch_condition_templates_match_the_alu_predicates():
    """Exhaustive: every conditional branch, every icc and fcc value —
    and the result is a real bool (it is stored in the record and in
    its outcome key)."""
    conditional = {op for op in Opcode
                   if opcode_info(op).fmt is Format.BRANCH} - {Opcode.BA,
                                                               Opcode.BN}
    assert set(threaded.BRANCH_CONDITIONS) == conditional
    for opcode, expression in threaded.BRANCH_CONDITIONS.items():
        uses_fcc = opcode.name.startswith("F")
        assert ("state.fcc" in expression) == uses_fcc
        assert ("state.icc" in expression) != uses_fcc
        for value in range(4 if uses_fcc else 16):
            state = ArchState()
            # The other code is set to what would flip a mixed-up read.
            state.icc, state.fcc = (15 - value, value) if uses_fcc else (
                value, 3 - value % 4)
            taken = eval(expression, {"__builtins__": {}, "state": state})
            assert type(taken) is bool, (opcode, value)
            assert taken == alu.branch_taken(opcode, state.icc, state.fcc)


#: Forty iterations: every block and event below is generated code for
#: the last dozen at the shipped threshold too. A data-dependent inner
#: branch, loads and stores before each event, wrong paths that store.
EVENT_LOOP = """
main:
    set buf, %l0
    mov 40, %l1
    clr %l3
loop:
    ld [%l0], %l2
    add %l2, %l1, %l2
    st %l2, [%l0]
    and %l1, 3, %l4
    tst %l4
    be skip                  ! taken every fourth iteration
    add %l3, 1, %l3
    st %l3, [%l0 + 4]
skip:
    subcc %l1, 1, %l1
    bne loop
    out %l3
    ld [%l0], %l5
    out %l5
    halt
    .data
buf: .word 0, 0
"""


@pytest.mark.parametrize("predictor_cls", [BimodalPredictor,
                                           NotTakenPredictor,
                                           AlwaysTakenPredictor])
@pytest.mark.parametrize("delay", [0, 1, 3])
def test_hot_events_match_step_path(predictor_cls, delay):
    exe = assemble(EVENT_LOOP)
    fast, slow = lockstep(exe, predictor_cls, delay)
    assert fast.state.output == [30, 820]
    stats = fast.frontend_stats()
    # Only generated events count; the reference frontend has none.
    assert 0 < stats["fused_branches"] < len(fast.queues.controls) + (
        fast.rollbacks * 4)
    assert slow.frontend_stats()["fused_branches"] == 0
    assert any(fused for _fn, _count, _end, fused
               in fast._blocks.blocks.values())


def test_bare_branch_events_match_step_path():
    """Blocks of no instructions at all before their branch: the event
    function is the tail alone, and still earns its compile by runs."""
    exe = assemble("""
main:
    mov 40, %l1
    clr %l3
loop:
    subcc %l1, 1, %l1
    bg first                 ! an event after a body...
first:
    bl never                 ! ...then three bare branches in a row
    bne second
second:
    be done
    ba loop
never:
    add %l3, 100, %l3
done:
    out %l3
    halt
""")
    fast, _slow = lockstep(exe, BimodalPredictor, 1)
    assert fast.state.output == [0]
    bare = [block for block in fast._blocks.blocks.values()
            if block[1] == 0 and block[3]]
    assert len(bare) >= 3
    # A bare event runs no block: block_runs counts bodies only.
    stats = fast.frontend_stats()
    assert stats["fused_branches"] > stats["block_runs"] > 0


JMPL_LOOP = """
main:
    set table, %l0
    mov 40, %l1
    clr %l3
loop:
    and %l1, 1, %l4
    sll %l4, 2, %l4
    ld [%l0 + %l4], %l5      ! even or odd handler
    jmpl [%l5 + {skew}], %ra ! a body, a dynamic target and a link
back:
    subcc %l1, 1, %l1
    bne loop
    out %l3
    halt
even:
    add %l3, 1, %l3
    jmpl [%ra], %g0          ! bare, no link
odd:
    add %l3, 100, %l3
    st %ra, [%sp - 8]
    ret
    .data
table: .word even, odd
"""


def test_fused_jmpl_matches_step_path():
    exe = assemble(JMPL_LOOP.format(skew="%g0"))
    fast, _slow = lockstep(exe, BimodalPredictor, 2)
    assert fast.state.output == [20 * 101]
    assert fast.state.regs[LINK_REG] == exe.symbols["back"]


def test_fused_jmpl_misaligned_target_falls_back_to_the_step_path():
    """Register skew: 0 for the first 32 trips, then 2. The hot event
    function commits its body and hands the jump to ``step()``, which
    raises the canonical error — from the very state the reference
    frontend is in."""
    source = JMPL_LOOP.format(skew="%l6").replace(
        "loop:\n", "loop:\n    add %l7, 1, %l7\n"
        "    srl %l7, 5, %l6\n    sll %l6, 1, %l6\n", 1)
    (fast, slow), errors = _fault_pair(source, AlwaysTakenPredictor)
    assert type(errors[0]) is EmulationError
    assert "misaligned jump target" in str(errors[0])
    # The jump that faulted was generated code, run many times before.
    symbols = assemble(source).symbols
    assert fast._blocks.blocks[symbols["loop"]][3:] == (True,)
    assert fast.frontend_stats()["fused_branches"] >= 5
    assert _snapshot(fast) == _snapshot(slow)
    assert _records(fast, (0, 0, 0)) == _records(slow, (0, 0, 0))
    assert fast.state.pc == symbols["back"] - 4


HOT_BUDGET = """
main:
    set buf, %l0
    mov 60, %l1
loop:
    ld [%l0], %l2
    add %l2, %l1, %l2
    st %l2, [%l0]
    subcc %l1, 1, %l1
    bne loop
    halt
    .data
buf: .word 0
"""


@pytest.mark.parametrize("offset", range(-1, 6))
def test_over_budget_hot_event_raises_on_the_same_instruction(offset):
    """The budget runs out somewhere in the 36th trip round a loop whose
    event function has been generated code for a while: before it,
    inside the body, exactly on the branch (``offset == 4``: the body
    fits, ``count + 1`` does not) and on the first instruction after."""
    budget = 3 + 35 * 5 + offset
    (fast, slow), errors = _fault_pair(
        HOT_BUDGET, AlwaysTakenPredictor, max_instructions=budget)
    assert isinstance(errors[0], SimulationError)
    assert _snapshot(fast) == _snapshot(slow)
    assert _records(fast, (0, 0, 0)) == _records(slow, (0, 0, 0))
    assert fast.executed_instructions == budget
    assert fast.frontend_stats()["fused_branches"] >= 5


HOT_FAULT = """
main:
    set buf, %l0
    mov 60, %l1
    mov 7, %l2
    tst %l0
    be loop                  ! not taken, predicted taken: a checkpoint
loop:
    add %l3, 1, %l3
    srl %l3, 5, %l5          ! 0 for 31 trips, then 1
    add %l0, %l5, %l6
    xor %l5, 1, %l7
    {fault}
    add %l3, 0, %l4          ! never reached on the faulting trip
    subcc %l1, 1, %l1
    bne loop
    halt
    .data
    .align 8
buf: .space 16
"""


@pytest.mark.parametrize("fault, error", [
    ("ld [%l6], %l2", MemoryFault), ("ldh [%l6], %l2", MemoryFault),
    ("lddf [%l6], %f2", MemoryFault), ("ldf [%l6], %f2", MemoryFault),
    ("ld [%l6], %g0", MemoryFault),
    ("st %l2, [%l6]", MemoryFault), ("sth %l2, [%l6]", MemoryFault),
    ("stf %f1, [%l6]", MemoryFault), ("stdf %f1, [%l6]", MemoryFault),
    ("sdiv %l2, %l7, %l2", EmulationError),
])
def test_fault_in_the_body_of_a_hot_event_applies_nothing_of_the_event(
        fault, error):
    """The twin of the segment contract: an exception inside an event
    function leaves everything the *event* would have touched — the
    predictor table, ``controls``, the bQ, PC and instret — as the
    reference frontend has it when ``step()`` raises."""
    source = HOT_FAULT.format(fault=fault)
    (fast, slow), errors = _fault_pair(source, AlwaysTakenPredictor)
    assert type(errors[0]) is error
    assert fast.frontend_stats()["fused_branches"] >= 5     # it was hot
    assert len(fast.bq) == 1      # the entry mispredict, never resolved
    assert _side_state(fast) == _side_state(slow)
    assert _records(fast, (0, 0, 0)) == _records(slow, (0, 0, 0))
    assert fast.state.regs == slow.state.regs
    assert fast.state.regs[20] == 31                        # %l4
    # Neither the body's batch nor the branch was committed; the step
    # path stands on the faulting instruction, four further on.
    assert fast.state.pc == assemble(source).symbols["loop"]
    assert slow.state.pc == fast.state.pc + 16
    assert fast.state.instret == slow.state.instret - 4
    assert fast.executed_instructions == slow.executed_instructions - 4


# ---------------------------------------------------------------------------
# Flat lQ/sQ: rollback through parallel lists
# ---------------------------------------------------------------------------

WRONG_PATH_STORES = """
main:
    set buf, %l0
    set 0x70000100, %l4      ! a page nothing on the right path touches
    set 0x01020304, %l2
    lddf [%l0 + 24], %f2
    mov 40, %l1
loop:
    subcc %l1, 1, %l1
    bne loop                 ! wrong path (predicted not taken): below
    st %l1, [%l0]            ! two stores to one address
    st %l2, [%l0]
    stb %l2, [%l0 + 9]
    sth %l2, [%l0 + 10]
    stdf %f2, [%l0 + 16]
    st %l2, [%l4]            ! first touch of its page
    ld [%l0], %l5
    tst %l5
    be done
done:
    halt
    .data
    .align 8
buf:
    .word 0xAABBCCDD, 0x11111111, 0x22222222, 0x33333333
    .double 0.0, 2.5
"""


def test_rollback_undoes_wrong_path_stores_youngest_first():
    exe = assemble(WRONG_PATH_STORES)
    buf = exe.symbols["buf"]
    for flag in (True, False):
        frontend = SpeculativeFrontend(exe, NotTakenPredictor(),
                                       threaded=flag)
        memory = frontend.state.memory
        for trip in range(39):
            assert frontend.run_one_event().mispredicted
            before = memory.read_bytes(buf, 40)
            lengths = [len(frontend.queues.loads),
                       len(frontend.queues.stores)]
            wrong = frontend.run_one_event()           # ``be done``
            assert wrong.sq_len == lengths[1] + 6
            queues = frontend.queues
            assert queues.stores[-6:] == [buf, buf, buf + 9, buf + 10,
                                          buf + 16, 0x70000100]
            assert queues.store_widths[-6:] == [4, 4, 1, 2, 8, 4]
            # The second store to ``buf`` logged what the first wrote...
            assert queues.store_olds[-6] == b"\xaa\xbb\xcc\xdd"
            assert queues.store_olds[-5] == (39 - trip).to_bytes(4, "big")
            assert memory.read_word(buf) == 0x01020304
            assert memory.read_word(0x70000100) == 0x01020304
            frontend.rollback_to(len(queues.controls) - 2)
            # ...and undoing both, youngest first, restores the oldest.
            assert memory.read_bytes(buf, 40) == before
            assert memory.read_word(0x70000100) == 0
            assert [len(queues.loads), len(queues.stores),
                    len(queues.store_widths),
                    len(queues.store_olds)] == lengths + lengths[1:] * 2
        assert not frontend.run_one_event().mispredicted   # the exit
        assert frontend.run_one_event().kind is ControlKind.COND
        assert frontend.run_one_event().kind is ControlKind.HALT
        assert memory.read_bytes(buf + 8, 4) == b"\x22\x04\x03\x04"
        assert memory.read_double(buf + 16) == 2.5


@pytest.mark.parametrize("delay", [0, 1, 2])
def test_wrong_path_stores_match_step_path(delay):
    lockstep(assemble(WRONG_PATH_STORES), NotTakenPredictor, delay)


# ---------------------------------------------------------------------------
# The suite must notice: each mutated event tail fails lockstep
# ---------------------------------------------------------------------------

def _record_built_before_the_body(lines):
    """``block_source`` with the record's queue lengths read first."""
    *body, tail = lines
    if "ControlRecord(COND" not in tail:
        return threaded.BLOCK_HEADER + "\n".join(lines) + "\n"
    tail = tail.replace("len(loads)", "L").replace("len(stores)", "S")
    return (threaded.BLOCK_HEADER + " L = len(loads)\n S = len(stores)\n"
            + "\n".join(body + [tail]) + "\n")


_COND = threaded.BLOCK_TEMPLATES["event_cond"]

EVENT_MUTATIONS = {
    "target and fall-through swapped": _COND.replace(
        "{target}", "{x}").replace("{fall}", "{target}").replace(
        "{x}", "{fall}"),
    "checkpoint taken after the PC is diverted": _COND.replace(
        " if p != t:"
        " bqs(len(controls) - 1, state, {target} if t else {fall})\n"
        " state.pc = {target} if p else {fall}\n",
        " state.pc = {target} if p else {fall}\n"
        " if p != t: bqs(len(controls) - 1, state, state.pc)\n"),
    "checkpoint filed under the next record's index": _COND.replace(
        "bqs(len(controls) - 1,", "bqs(len(controls),"),
    "checkpoint taken before instret is committed": _COND.replace(
        " state.instret += {size}\n", "").replace(
        " return rec", " state.instret += {size}\n return rec"),
    "predictor called twice": _COND.replace(
        " p = predict({pc}, t)\n", " predict({pc}, t)\n"
        " p = predict({pc}, t)\n"),
    "key table indexed the wrong way round": _COND.replace(
        "[t][p]", "[p][t]"),
}


@pytest.mark.parametrize("name", sorted(EVENT_MUTATIONS))
def test_mutated_event_tail_fails_lockstep(name, monkeypatch):
    assert EVENT_MUTATIONS[name] != _COND
    exe = assemble(EVENT_LOOP)
    lockstep(exe, BimodalPredictor, 1)
    monkeypatch.setitem(threaded.BLOCK_TEMPLATES, "event_cond",
                        EVENT_MUTATIONS[name])
    with pytest.raises(AssertionError):
        lockstep(exe, BimodalPredictor, 1)


def test_record_built_before_the_body_fails_lockstep(monkeypatch):
    monkeypatch.setattr(threaded, "block_source",
                        _record_built_before_the_body)
    with pytest.raises(AssertionError):
        lockstep(assemble(EVENT_LOOP), BimodalPredictor, 1)
