"""Direct-execution front-end: basic blocks as generated Python functions.

FastSim's front-end is EEL-rewritten *direct execution*: straight-line
target code runs at native speed and only control transfers return to
the simulator. The interpreter in :mod:`repro.emulator.functional` pays
a dictionary dispatch, an observation-field reset, and a bounds check
per instruction instead. This module is the closest host-portable
analogue of the rewriting step: each maximal straight-line block is
translated **once** into the source of one Python function —
``regs[3] = (regs[1] + 8) & 4294967295`` — compiled through the
process-wide code cache (:mod:`repro.codecache`, shared with chain
compilation) and executed into the block cache's namespace. A block
that ends in a conditional branch or a ``jmpl`` carries that control
event *in the same function* (an **event function**): body, branch
condition, predictor call, control record, checkpoint on a mispredict
and the PC/instret commit are one call that returns the record.
``compile()`` is the one real cost (tens of microseconds per
instruction), so a block earns it: until its :data:`COMPILE_AFTER`-th
run its body steps the reference interpreter instead
(:meth:`BlockCache._cold`) and its terminator goes through the
frontend's ordinary ``step()`` path. A block whose source this process
has compiled before (a second run, an in-process sweep, a persistent
worker) has nothing left to earn and runs generated code from its
first decode.

What is folded at decode time: register indices, ``%g0`` (reads are the
literal ``0``, writes are dropped), immediates (masked or
sign-extended exactly as :class:`Interpreter` would, then constant-
folded by ``compile()``), shift counts, access widths and alignment
masks, ``sethi`` values and ``call`` link addresses. Loads and stores
are inlined down to the page ``bytearray``: ``page_of(a >> 12)``,
``struct`` ``unpack_from``/``pack_into`` at ``a & 4095``.

Equivalence contract (what makes this invisible to everything above;
``tests/emulator/test_threaded.py`` diffs every clause against
:meth:`Interpreter.step`, which stays the reference path):

* A block holds at most one control *event*, as its last instruction —
  conditional branches, ``jmpl`` and ``halt`` terminate decoding, and
  ``halt`` goes through the ordinary :meth:`Interpreter.step` path. A
  conditional branch becomes the **event tail** (:func:`emit_event`):
  its condition inline (:data:`BRANCH_CONDITIONS`, the predicates of
  :func:`repro.emulator.alu.branch_taken`), then exactly what the step
  path does — ``instret``, ``predict_and_update``, one
  :class:`ControlRecord` with the queue lengths after the body, the
  append, and on a mispredict the checkpoint holding the
  *correct*-path PC before PC goes down the predicted path. ``jmpl``
  fuses the same way (dynamic target, decode-time link, INDIRECT
  record); on a misaligned target the function commits the body only
  and returns None, so the step path raises the canonical error. There
  are no superblocks: the world keeps the frontend exactly one event
  ahead of fetch, so fusing further would run wrong paths further.
  Statically-resolved transfers are **folded through**: ``ba`` and
  ``call`` continue decoding at their target and ``bn`` at its
  fall-through, because none of them records a control event. A folded
  ``call`` links a decode-time constant (``address + 4``), never the
  live PC.
* Register values are unsigned 32-bit (the :class:`ArchState`
  invariant), so ``and``/``or``/``xor``/``srl`` results need no mask
  and ``smul`` multiplies the unsigned views: the low 32 bits of a
  product do not depend on the signedness of its factors.
* A memory access appends the same flat ``lQ``/``sQ`` entries (address;
  address, width and the pre-store ``bytes`` captured before the write)
  the step path would, and touches pages in the same order: a missing page
  is allocated by the real :meth:`Memory._page`, including for a load
  whose destination is ``%g0``.
* Faults are raised by the real code, never re-implemented: a
  misaligned address calls :meth:`Memory.read_width` /
  :meth:`Memory.write_width`, ``sdiv`` calls :func:`alu.int_sdiv`. The
  exception propagates out of the block function before the batched
  commit and before any effect of an event tail (predictor table,
  ``controls``, ``bQ``, PC and instret untouched), so a mid-block
  fault leaves PC and instret at the block's first instruction
  (effects of the instructions before the faulting one are applied, as
  on the step path).
* Nothing inside a block body reads PC or instret at runtime (folded
  ``call`` links a decode-time constant), so both advance in one batch
  at block end; the only checkpoint is the event tail's, after that
  batch.
* A block only runs when it fits the caller's remaining instruction
  budget — an event function when body *and* terminator fit; otherwise
  the caller falls back to per-instruction stepping so budget
  exhaustion raises at exactly the same instruction.

The namespace a block function runs in is sound across rollbacks
because every container it binds is mutated in place:
``ArchState.restore_registers`` assigns ``regs[:]``/``fregs[:]`` and
deletes ``output[n:]``, ``RecordQueues.truncate`` uses ``del list[n:]``,
and memory is restored byte-wise into the existing pages — list, dict
and ``bytearray`` identities never change.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro import codecache
from repro.emulator import alu
from repro.emulator.functional import Interpreter, _clamp_float32
from repro.emulator.queues import ControlKind, ControlRecord
from repro.emulator.state import FCC_EQ, FCC_GT, FCC_LT, FCC_UO
from repro.errors import EmulationError
from repro.isa.opcodes import Format, Opcode

_MASK32 = 0xFFFF_FFFF

#: Upper bound on block length — keeps decode cost and the budget
#: fall-back window small. Because ``ba``/``call`` fold through, a
#: straight-line loop closed by ``ba`` unrolls up to this cap (it
#: still commits PC/instret once per run, at block end).
MAX_BLOCK = 256

#: ``(fn, n_instructions, end_pc, fused)``. Not *fused*: *fn* runs the
#: body only (None: nothing to run) and the caller commits PC/instret;
#: generated code returns None, a cold op that stepped the body False,
#: and a true return value means *fn* ran nothing but replaced this
#: entry with compiled code — look the block up again. *fused*: *fn* is an
#: event function — body, the control event at *end_pc*, both commits —
#: returning the event's :class:`ControlRecord` (None: a misaligned
#: ``jmpl`` target; the body is committed and the step path raises).
_Block = Tuple[Optional[Callable[[], object]], int, int, bool]

#: A block is compiled on its COMPILE_AFTER-th run and stepped through
#: :meth:`Interpreter.step` before that: ``compile()`` of a block costs
#: about as much as this many runs of it save. Measured over the 18
#: suite programs (``tiny`` and ``test`` scale alike): 31-40 us of
#: ``compile()`` per block instruction — an inlined load, store or
#: ``subcc`` compiles in 30-60 us, an ``add`` in 5 — against 1.2-1.5 us
#: saved per instruction per run (step path 2.3 us, generated 0.8-1.1).
#: A run-once initialisation block never pays for a compile, a loop
#: body pays for it within a few dozen iterations; at most the cost of
#: one compile is lost either way. (Summed over 18 fork-per-job ``tiny``
#: runs: 728 ms compiling at first sight, 695-706 ms for 16-40, 715 ms
#: never compiling; at ``test`` scale 1545 / 1578-1604 / n.a.) The same
#: model sets the threshold to zero for a source already in
#: :mod:`repro.codecache`: there the compile costs nothing, so
#: :meth:`BlockCache.decode` loads it at once.
COMPILE_AFTER = 26

#: First line of every generated block function.
BLOCK_HEADER = "def _blk():\n"

#: Name -> attribute path from the frontend, which each block cache
#: resolves once and places in the namespace its block functions run in.
BLOCK_BINDINGS = {
    "state": "state",
    "regs": "state.regs",
    "fregs": "state.fregs",
    "out": "state.output.append",
    "page_of": "state.memory._pages.get",
    "new_page": "state.memory._page",
    "read_width": "state.memory.read_width",
    "write_width": "state.memory.write_width",
    "lq": "queues.loads.append",
    "sq": "queues.stores.append",
    "sqw": "queues.store_widths.append",
    "sqo": "queues.store_olds.append",
    "loads": "queues.loads",
    "stores": "queues.stores",
    "controls": "queues.controls",
    "cq": "queues.controls.append",
    "predict": "predictor.predict_and_update",
    "bqs": "bq.save",
}

#: Process-constant names of the same namespace: the control record
#: and its two generated kinds, the real fault-raising/rounding
#: helpers, big-endian page accessors (``old<w>`` reads *w* pre-store
#: bytes as ``bytes``), and the four builtins generated code uses.
#: With :data:`BLOCK_BINDINGS` and :data:`BLOCK_LOCALS`, every name a
#: block may mention (``__builtins__`` is emptied; the flow lint's
#: codegen audit fails on any other).
BLOCK_HELPERS = {
    "ControlRecord": ControlRecord,
    "COND": ControlKind.COND,
    "INDIRECT": ControlKind.INDIRECT,
    "len": len,
    "int_sdiv": alu.int_sdiv,
    "fp_div": Interpreter._fp_div,
    "clamp32": _clamp_float32,
    "sqrt": math.sqrt,
    "nan": math.nan,
    "inf": math.inf,
    "abs": abs,
    "int": int,
    "float": float,
    "ld4": struct.Struct(">I").unpack_from,
    "ldh": struct.Struct(">h").unpack_from,
    "lduh": struct.Struct(">H").unpack_from,
    "ldf": struct.Struct(">f").unpack_from,
    "lddf": struct.Struct(">d").unpack_from,
    "st4": struct.Struct(">I").pack_into,
    "st2": struct.Struct(">H").pack_into,
    "stf": struct.Struct(">f").pack_into,
    "stdf": struct.Struct(">d").pack_into,
    "old1": struct.Struct("1s").unpack_from,
    "old2": struct.Struct("2s").unpack_from,
    "old4": struct.Struct("4s").unpack_from,
    "old8": struct.Struct("8s").unpack_from,
}

#: Temporaries a block function may assign (an event tail's direction
#: ``t`` and record ``rec``; it reuses ``p`` for the prediction).
BLOCK_LOCALS = ("a", "b", "r", "p", "o", "v", "t", "rec")

#: The only attributes generated code touches — plus the two only an
#: event tail may write, and the names only it may mention: a *body*
#: never sees the control queue, the predictor or the ``bQ``.
BLOCK_STATE_ATTRS = ("icc", "fcc")
EVENT_STATE_ATTRS = ("pc", "instret")
EVENT_NAMES = ("t", "rec", "loads", "stores", "controls", "cq", "predict",
               "bqs", "ControlRecord", "COND", "INDIRECT", "len")

#: Every line shape the emitter can produce, as ``str.format``
#: templates (exposed, like ``memo.compile.SEG_TEMPLATES``, so the flow
#: lint can audit the emitter and tests can inject a mutation).
#: ``{a}``/``{b}`` are operand expressions — ``regs[i]``, ``0`` for
#: ``%g0``, or a folded immediate — and ``{d}``/``{s}``/``{t}`` are
#: register indices.
BLOCK_TEMPLATES = {
    # Integer ALU, destination not %g0.
    "add": " regs[{d}] = ({a} + {b}) & 4294967295",
    "sub": " regs[{d}] = ({a} - {b}) & 4294967295",
    "and": " regs[{d}] = {a} & {b}",
    "or": " regs[{d}] = {a} | {b}",
    "xor": " regs[{d}] = {a} ^ {b}",
    "sll": " regs[{d}] = ({a} << ({b} & 31)) & 4294967295",
    "srl": " regs[{d}] = {a} >> ({b} & 31)",
    "sra": (" regs[{d}] = ((({a} ^ 2147483648) - 2147483648)"
            " >> ({b} & 31)) & 4294967295"),
    "smul": " regs[{d}] = ({a} * {b}) & 4294967295",
    "sdiv": " regs[{d}] = int_sdiv({a}, {b})",
    "sdiv_discard": " int_sdiv({a}, {b})",
    "const": " regs[{d}] = {k}",
    # Condition-code forms: operand temporaries (registers only;
    # immediates and %g0 stay literals), result, optional write, icc.
    # ``subcc``: r == 0 means a == b, whose icc is exactly Z.
    "cc_bind": " {n} = regs[{s}]",
    "cc_add": " r = ({a} + {b}) & 4294967295",
    "cc_sub": " r = ({a} - {b}) & 4294967295",
    "cc_and": " r = {a} & {b}",
    "cc_or": " r = {a} | {b}",
    "cc_xor": " r = {a} ^ {b}",
    "cc_write": " regs[{d}] = r",
    "icc_add": (" state.icc = (r >> 28 & 8 | (not r) << 2"
                " | (~({a} ^ {b}) & ({a} ^ r)) >> 30 & 2"
                " | ({a} + {b}) >> 32)"),
    "icc_sub": (" state.icc = (r >> 28 & 8"
                " | (({a} ^ {b}) & ({a} ^ r)) >> 30 & 2"
                " | ({a} < {b})) if r else 4"),
    "icc_logical": " state.icc = r >> 28 & 8 if r else 4",
    # Memory: effective address, alignment fault through the real
    # accessor, page (allocated on first touch), access, record.
    "ea": " a = ({a} + {b}) & 4294967295",
    "load_fault": " if a & {m}: read_width(a, {w})",
    "store_fault": " if a & {m}: write_width(a, 0, {w})",
    "page": " p = page_of(a >> 12) or new_page(a)",
    "ld": " regs[{d}] = ld4(p, a & 4095)[0]",
    "ldb": " regs[{d}] = ((p[a & 4095] ^ 128) - 128) & 4294967295",
    "ldub": " regs[{d}] = p[a & 4095]",
    "ldh": " regs[{d}] = ldh(p, a & 4095)[0] & 4294967295",
    "lduh": " regs[{d}] = lduh(p, a & 4095)[0]",
    "ldf": " fregs[{d}] = ldf(p, a & 4095)[0]",
    "lddf": " fregs[{d}] = lddf(p, a & 4095)[0]",
    "load_record": " lq(a)",
    "store_old": " o = a & 4095\n v = old{w}(p, o)[0]",
    "st": " st4(p, o, {a})",
    "stb": " p[o] = {a} & 255",
    "sth": " st2(p, o, {a} & 65535)",
    "stf": " stf(p, o, clamp32(fregs[{s}]))",
    "stdf": " stdf(p, o, fregs[{s}])",
    "store_record": " sq(a)\n sqw({w})\n sqo(v)",
    # Floating point.
    "fadd": " fregs[{d}] = fregs[{s}] + fregs[{t}]",
    "fsub": " fregs[{d}] = fregs[{s}] - fregs[{t}]",
    "fmul": " fregs[{d}] = fregs[{s}] * fregs[{t}]",
    "fdiv": (" b = fregs[{t}]\n"
             " fregs[{d}] = fregs[{s}] / b if b else fp_div(fregs[{s}], b)"),
    "fsqrt": " v = fregs[{s}]\n fregs[{d}] = sqrt(v) if v >= 0 else nan",
    "fneg": " fregs[{d}] = -fregs[{s}]",
    "fabs": " fregs[{d}] = abs(fregs[{s}])",
    "fmov": " fregs[{d}] = fregs[{s}]",
    "fcmp": (" a = fregs[{s}]\n b = fregs[{t}]\n"
             f" state.fcc = {FCC_EQ} if a == b else {FCC_LT} if a < b"
             f" else {FCC_GT} if a > b else {FCC_UO}"),
    "fitod": " fregs[{d}] = float(({a} ^ 2147483648) - 2147483648)",
    "fdtoi": (" v = fregs[{s}]\n"
              " regs[{d}] = int(v) & 4294967295 if abs(v) < inf else 0"),
    "out": " out({a})",
    # Event tails (see emit_event). The record's last argument is its
    # outcome key: for a branch one of four tuples in a nested constant
    # (``{keys}``, folded by ``compile()``), so a record holds a shared
    # key rather than one more tuple of its own.
    "event_cond": (
        " t = {cond}\n"
        " state.instret += {size}\n"
        " p = predict({pc}, t)\n"
        " rec = ControlRecord(COND, {pc}, t, p, 0, len(loads),"
        " len(stores), {keys}[t][p])\n"
        " cq(rec)\n"
        " if p != t:"
        " bqs(len(controls) - 1, state, {target} if t else {fall})\n"
        " state.pc = {target} if p else {fall}\n"
        " return rec"),
    "event_jmpl": (
        " a = ({a} + {b}) & 4294967295\n"
        " if a & 3:\n"
        "  state.pc = {pc}\n"
        "  state.instret += {count}\n"
        "  return None\n"
        "{link}"
        " state.pc = a\n"
        " state.instret += {size}\n"
        " rec = ControlRecord(INDIRECT, {pc}, True, False, a, len(loads),"
        " len(stores), ({kind}, {pc}, a))\n"
        " cq(rec)\n"
        " return rec"),
}

#: Conditional-branch opcode -> its condition as an expression that
#: yields a real ``bool`` (icc bits: N=8 Z=4 V=2 C=1; ``&`` and ``^``
#: bind tighter than comparisons and ``not``).
BRANCH_CONDITIONS = {
    Opcode.BE: "state.icc & 4 != 0",
    Opcode.BNE: "not state.icc & 4",
    Opcode.BG: ("not (state.icc & 4"
                " or (state.icc >> 3 ^ state.icc >> 1) & 1)"),
    Opcode.BLE: ("(state.icc & 4"
                 " or (state.icc >> 3 ^ state.icc >> 1) & 1) != 0"),
    Opcode.BGE: "not (state.icc >> 3 ^ state.icc >> 1) & 1",
    Opcode.BL: "(state.icc >> 3 ^ state.icc >> 1) & 1 != 0",
    Opcode.BGU: "not state.icc & 5",
    Opcode.BLEU: "state.icc & 5 != 0",
    Opcode.FBE: f"state.fcc == {FCC_EQ}",
    Opcode.FBNE: f"state.fcc != {FCC_EQ}",
    Opcode.FBL: f"state.fcc == {FCC_LT}",
    Opcode.FBLE: f"state.fcc in ({FCC_EQ}, {FCC_LT})",
    Opcode.FBG: f"state.fcc == {FCC_GT}",
    Opcode.FBGE: f"state.fcc in ({FCC_EQ}, {FCC_GT})",
}

_ALU = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.AND: "and",
    Opcode.OR: "or", Opcode.XOR: "xor", Opcode.SLL: "sll",
    Opcode.SRL: "srl", Opcode.SRA: "sra", Opcode.SMUL: "smul",
    Opcode.SDIV: "sdiv",
}

#: opcode -> (result shape, icc shape)
_ALU_CC = {
    Opcode.ADDCC: ("cc_add", "icc_add"),
    Opcode.SUBCC: ("cc_sub", "icc_sub"),
    Opcode.ANDCC: ("cc_and", "icc_logical"),
    Opcode.ORCC: ("cc_or", "icc_logical"),
    Opcode.XORCC: ("cc_xor", "icc_logical"),
}

_LOADS = {
    Opcode.LD: "ld", Opcode.LDB: "ldb", Opcode.LDUB: "ldub",
    Opcode.LDH: "ldh", Opcode.LDUH: "lduh", Opcode.LDF: "ldf",
    Opcode.LDDF: "lddf",
}

_STORES = {
    Opcode.ST: "st", Opcode.STB: "stb", Opcode.STH: "sth",
    Opcode.STF: "stf", Opcode.STDF: "stdf",
}

_FP_BINARY = {
    Opcode.FADD: "fadd", Opcode.FSUB: "fsub", Opcode.FMUL: "fmul",
    Opcode.FDIV: "fdiv", Opcode.FCMP: "fcmp",
}

_FP_UNARY = {
    Opcode.FSQRT: "fsqrt", Opcode.FNEG: "fneg", Opcode.FABS: "fabs",
    Opcode.FMOV: "fmov",
}


def block_source(lines: List[str]) -> str:
    """The source of the block function whose body is *lines*."""
    return BLOCK_HEADER + "\n".join(lines) + "\n"


def _reg(index: Optional[int]) -> str:
    """Operand expression for integer register *index* (``%g0`` is 0)."""
    return f"regs[{index}]" if index else "0"


def emit_instruction(instr, lines: List[str]) -> bool:
    """Append the source lines for one straight-line instruction.

    Returns False for an opcode the emitter does not model (the block
    ends before it). An instruction with no effect beyond PC/instret
    (``nop``, a non-faulting ALU result discarded into ``%g0``) emits
    nothing.
    """
    templates = BLOCK_TEMPLATES
    opcode = instr.opcode
    rd = instr.rd
    imm = instr.imm
    a = _reg(instr.rs1)

    shape = _ALU.get(opcode)
    if shape is not None:
        b = str(imm & _MASK32) if imm is not None else _reg(instr.rs2)
        if rd:
            lines.append(templates[shape].format(d=rd, a=a, b=b))
        elif opcode is Opcode.SDIV:
            lines.append(templates["sdiv_discard"].format(a=a, b=b))
        return True

    shapes = _ALU_CC.get(opcode)
    if shapes is not None:
        b = str(imm & _MASK32) if imm is not None else _reg(instr.rs2)
        if shapes[1] != "icc_logical":
            # The flag expressions read each operand several times.
            if instr.rs1:
                lines.append(templates["cc_bind"].format(n="a", s=instr.rs1))
                a = "a"
            if imm is None and instr.rs2:
                lines.append(templates["cc_bind"].format(n="b", s=instr.rs2))
                b = "b"
        lines.append(templates[shapes[0]].format(a=a, b=b))
        if rd:
            lines.append(templates["cc_write"].format(d=rd))
        lines.append(templates[shapes[1]].format(a=a, b=b))
        return True

    shape = _LOADS.get(opcode) or _STORES.get(opcode)
    if shape is not None:
        width = instr.access_width
        # The *signed* immediate is added before masking, exactly like
        # ``Interpreter._effective_address``.
        b = str(imm) if imm is not None else _reg(instr.rs2)
        lines.append(templates["ea"].format(a=a, b=b))
        if instr.is_load:
            if width > 1:
                lines.append(templates["load_fault"].format(
                    m=width - 1, w=width))
            lines.append(templates["page"])
            if instr.fd is not None:
                lines.append(templates[shape].format(d=instr.fd))
            elif rd:
                lines.append(templates[shape].format(d=rd))
            lines.append(templates["load_record"].format(w=width))
        else:
            if width > 1:
                lines.append(templates["store_fault"].format(
                    m=width - 1, w=width))
            lines.append(templates["page"])
            lines.append(templates["store_old"].format(w=width))
            lines.append(templates[shape].format(a=_reg(rd), s=instr.fd))
            lines.append(templates["store_record"].format(w=width))
        return True

    shape = _FP_BINARY.get(opcode) or _FP_UNARY.get(opcode)
    if shape is not None:
        lines.append(templates[shape].format(
            d=instr.fd, s=instr.fs1, t=instr.fs2))
    elif opcode is Opcode.SETHI:
        if rd:
            lines.append(templates["const"].format(
                d=rd, k=(imm << 13) & _MASK32))
    elif opcode is Opcode.FITOD:
        lines.append(templates["fitod"].format(d=instr.fd, a=a))
    elif opcode is Opcode.FDTOI:
        if rd:
            lines.append(templates["fdtoi"].format(d=rd, s=instr.fs1))
    elif opcode is Opcode.OUT:
        lines.append(templates["out"].format(a=a))
    elif opcode is not Opcode.NOP:
        return False
    return True


def emit_event(instr, count: int, lines: List[str]) -> bool:
    """Append the event tail for terminator *instr*, reached after
    *count* straight-line instructions; False when *instr* is not a
    control event the emitter fuses (the step path runs it)."""
    address = instr.address
    condition = BRANCH_CONDITIONS.get(instr.opcode)
    if condition is not None:
        keys = tuple(tuple((int(ControlKind.COND), address, taken, predicted)
                           for predicted in (False, True))
                     for taken in (False, True))
        lines.append(BLOCK_TEMPLATES["event_cond"].format(
            cond=condition, size=count + 1, pc=address, keys=keys,
            target=instr.target, fall=instr.fall_through))
        return True
    if instr.opcode is Opcode.JMPL:
        imm = instr.imm
        link = (BLOCK_TEMPLATES["const"].format(
            d=instr.rd, k=(address + 4) & _MASK32) + "\n"
            if instr.rd else "")
        lines.append(BLOCK_TEMPLATES["event_jmpl"].format(
            a=_reg(instr.rs1),
            b=str(imm) if imm is not None else _reg(instr.rs2),
            pc=address, count=count, size=count + 1, link=link,
            kind=int(ControlKind.INDIRECT)))
        return True
    return False


class BlockCache:
    """Decoded-block cache + executor for one speculative frontend."""

    #: Host-side effectiveness counters (never canonical); runs and
    #: instructions count generated code only.
    STATS = ("blocks_decoded", "block_runs", "threaded_instructions",
             "fused_branches")

    def __init__(self, frontend):
        self._interpreter = frontend.interpreter
        self._executable = frontend.executable
        self._queues = frontend.queues
        # Everything bound here outlives every rollback (see the module
        # docstring), so block functions can keep using it forever.
        namespace: Dict[str, object] = {"__builtins__": {}}
        namespace.update(BLOCK_HELPERS)
        for name, path in BLOCK_BINDINGS.items():
            value = frontend
            for attr in path.split("."):
                value = getattr(value, attr)
            namespace[name] = value
        self._namespace = namespace
        #: start PC -> block; the frontend calls :meth:`decode` on a miss.
        self.blocks: Dict[int, _Block] = {}
        self.blocks_decoded = 0
        self.block_runs = 0
        self.threaded_instructions = 0
        self.fused_branches = 0

    # ------------------------------------------------------------------

    def decode(self, start_pc: int) -> _Block:
        """Decode (and cache) the maximal straight-line block starting
        at *start_pc*, with the control event that ends it if the
        emitter fuses one."""
        executable = self._executable
        lines: List[str] = []
        tail: List[str] = []
        count = 0
        pc = start_pc
        while count < MAX_BLOCK and executable.contains_text(pc):
            try:
                instr = executable.instruction_at(pc)
            except EmulationError:
                break
            opcode = instr.opcode
            if instr.info.fmt is Format.BRANCH:
                # ``ba``/``bn`` are statically resolved (no record, no
                # predictor): fold through. A conditional branch ends
                # the block as its event tail.
                if opcode is Opcode.BA:
                    count += 1
                    pc = instr.target
                    continue
                if opcode is Opcode.BN:
                    count += 1
                    pc += 4
                    continue
                emit_event(instr, count, tail)
                break
            if opcode is Opcode.CALL:
                # Direct call: the link value is the decode-time
                # constant ``address + 4``; decoding continues in the
                # callee. (``jmpl`` returns stay control events.)
                if instr.rd:
                    lines.append(BLOCK_TEMPLATES["const"].format(
                        d=instr.rd, k=(instr.address + 4) & _MASK32))
                count += 1
                pc = instr.target
                continue
            if opcode is Opcode.JMPL:
                # An event too (no predictor, no checkpoint); it links
                # ``address + 4``, the step path's ``state.pc + 4``.
                emit_event(instr, count, tail)
                break
            if opcode is Opcode.HALT or not emit_instruction(instr, lines):
                break
            count += 1
            pc += 4
        # An event block always gets an op — a bare branch has no body
        # line, but its run counter is what earns the compile. Code this
        # process already compiled costs nothing to load, so such a
        # block skips the cold runs (see COMPILE_AFTER).
        if not (lines or tail):
            block = (None, count, pc, False)
        else:
            source = block_source(lines + tail)
            if codecache.holds(source):
                block = self._compiled(source, count, pc, bool(tail))
            else:
                block = (self._cold(start_pc, count, pc, source, bool(tail)),
                         count, pc, False)
        self.blocks[start_pc] = block
        self.blocks_decoded += 1
        return block

    def _compiled(self, source: str, count: int, end_pc: int,
                  fused: bool) -> _Block:
        """The cache entry running *source*'s generated function."""
        return (codecache.load(source, "<repro.threaded block>", "_blk",
                               self._namespace),
                count, end_pc, fused)

    def _cold(self, start_pc: int, count: int, end_pc: int, source: str,
              fused: bool) -> Callable[[], bool]:
        """The block's op until it has earned its ``compile()``.

        Runs the body as *count* calls of the reference
        :meth:`Interpreter.step` (appending the queue entries the
        frontend's step path would), with PC/instret put back to the
        block's start afterwards — the caller commits them in one
        batch, and a mid-block fault leaves them uncommitted, exactly
        as for a generated function. The event in *tail* is left to
        the frontend's step path. The :data:`COMPILE_AFTER`-th run
        executes nothing: it compiles *source* (body and tail, an event
        function when *fused*), replaces this cache entry and returns
        True.
        """
        interpreter = self._interpreter
        state = interpreter.state
        step = interpreter.step
        log_access = self._queues.log_access
        runs = 0

        def run() -> bool:
            nonlocal runs
            runs += 1
            if runs >= COMPILE_AFTER:
                self.blocks[start_pc] = self._compiled(source, count,
                                                       end_pc, fused)
                return True
            instret = state.instret
            try:
                for _ in range(count):
                    log_access(step(), interpreter)
            finally:
                state.pc = start_pc
                state.instret = instret
            return False
        return run
