"""Generated basic blocks ≡ ``Interpreter.step()``.

``repro.emulator.threaded`` translates straight-line code into
generated Python functions; ``step()`` is the reference path. Two
frontends — ``threaded=True`` and ``threaded=False`` — run every
program here in lockstep under the same predictor and the same forced
rollbacks, and after *every* control event and every rollback the
complete architectural state, the allocated memory pages and the new
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
from repro.emulator import threaded
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.queues import ControlKind
from repro.emulator.threaded import emit_instruction
from repro.errors import EmulationError, MemoryFault, SimulationError
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Opcode, opcode_info
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


def _snapshot(frontend):
    state = frontend.state
    return {
        "regs": list(state.regs),
        # Packed, so that NaN compares equal to NaN and -0.0 differs
        # from 0.0.
        "fregs": struct.pack(f">{len(state.fregs)}d", *state.fregs),
        "icc": state.icc, "fcc": state.fcc, "pc": state.pc,
        "instret": state.instret, "halted": state.halted,
        "output": list(state.output),
        "executed": frontend.executed_instructions,
        "pages": {base: bytes(page)
                  for base, page in state.memory.pages()},
    }


def _records(frontend, start):
    queues = frontend.queues
    loads = [(r.address, r.width) for r in queues.loads[start[0]:]]
    stores = [(r.address, r.width, r.old_bytes)
              for r in queues.stores[start[1]:]]
    assert all(type(old) is bytes for _a, _w, old in stores)
    controls = [(r.kind, r.pc, r.taken, r.predicted_taken, r.target,
                 r.lq_len, r.sq_len) for r in queues.controls[start[2]:]]
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
        record = [f.run_one_event() for f in fronts][0]
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

def _fault_pair(source, **kwargs):
    """Run both paths into an exception; return the frontends and the
    exceptions."""
    exe = assemble(source)
    fronts, errors = [], []
    for flag in (True, False):
        frontend = SpeculativeFrontend(exe, NotTakenPredictor(),
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
    first, second = threaded.queues.stores
    assert (first.address, first.width, first.old_bytes) == (
        0x40000100, 4, b"\x00\x00\x00\x00")
    assert (second.address, second.width, second.old_bytes) == (
        0x40001100, 1, b"\x00")
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
