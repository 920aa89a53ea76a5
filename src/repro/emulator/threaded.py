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
compilation) and executed into the block cache's namespace. Running a
block is then one call plus one batched PC/instret update. ``compile()``
is the one real cost (tens of microseconds per instruction), so a block
earns it: until its :data:`COMPILE_AFTER`-th run its op steps the
reference interpreter instead (:meth:`BlockCache._cold`).

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

* Blocks contain no control *events* — conditional branches, ``jmpl``,
  and ``halt`` terminate decoding; ``halt`` executes through the
  ordinary :meth:`Interpreter.step` path. A conditional branch becomes
  a **fused terminator**: its condition function (from
  :func:`repro.emulator.alu.branch_condition` — the same predicate
  ``branch_taken`` evaluates) plus target/fall-through are bound at
  decode time, and the frontend runs the identical predictor call,
  control record, and checkpoint logic it always did, just without
  the generic dispatch. ``jmpl`` fuses the same way (dynamic target,
  decode-time-constant link, INDIRECT record); a misaligned runtime
  target falls back to the step path so the canonical error is raised
  from unchanged state. Statically-resolved transfers are **folded
  through**: ``ba`` and ``call`` continue decoding at their
  (compile-time) target and ``bn`` at its fall-through, because none
  of them records a control event — the frontend's step path would
  simply loop past them. A folded ``call`` writes its link register
  from a decode-time constant (``address + 4``), never from the live
  PC.
* Register values are unsigned 32-bit (the :class:`ArchState`
  invariant), so ``and``/``or``/``xor``/``srl`` results need no mask
  and ``smul`` multiplies the unsigned views: the low 32 bits of a
  product do not depend on the signedness of its factors.
* A memory access appends the same :class:`LoadRecord` /
  :class:`StoreRecord` (pre-store bytes captured before the write) the
  step path would, and touches pages in the same order: a missing page
  is allocated by the real :meth:`Memory._page`, including for a load
  whose destination is ``%g0``.
* Faults are raised by the real code, never re-implemented: a
  misaligned address calls :meth:`Memory.read_width` /
  :meth:`Memory.write_width`, ``sdiv`` calls :func:`alu.int_sdiv`. The
  exception propagates out of the block function before the batched
  commit, so a mid-block fault leaves PC and instret at the block's
  first instruction (effects of the instructions before the faulting
  one are applied, as on the step path).
* Nothing inside a block reads PC or instret at runtime (folded
  ``call`` links a decode-time constant), so both advance in one batch
  at block end; checkpoints are only taken at control events, which
  sit outside blocks.
* A block only runs when it fits the caller's remaining instruction
  budget; otherwise the caller falls back to per-instruction stepping
  so budget exhaustion raises at exactly the same instruction.

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
from repro.emulator.queues import LoadRecord, StoreRecord
from repro.emulator.state import FCC_EQ, FCC_GT, FCC_LT, FCC_UO
from repro.errors import EmulationError
from repro.isa.opcodes import Format, Opcode

_MASK32 = 0xFFFF_FFFF

#: Upper bound on block length — keeps decode cost and the budget
#: fall-back window small. Because ``ba``/``call`` fold through, a
#: straight-line loop closed by ``ba`` unrolls up to this cap (it
#: still commits PC/instret once per run, at block end).
MAX_BLOCK = 256

#: ``(ops, n_instructions, end_pc, terminator)`` — *ops* holds the one
#: generated block function (none when the block has no effect beyond
#: PC/instret); *terminator* is None or a fused control-event
#: descriptor the frontend evaluates in place of a generic ``step()``:
#: ``(TERM_COND, condition_fn, uses_fcc, address, target, fall_through)``
#: for a conditional branch,
#: ``(TERM_JMPL, address, rs1, rs2, imm, rd, link)`` for an indirect
#: jump (*link* is the decode-time constant ``address + 4``).
_Block = Tuple[Tuple[Callable[[], None], ...], int, int, Optional[tuple]]

TERM_COND = 0
TERM_JMPL = 1

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
#: never compiling; at ``test`` scale 1545 / 1578-1604 / n.a.)
COMPILE_AFTER = 26

#: First line of every generated block function.
BLOCK_HEADER = "def _blk():\n"

#: Name -> attribute path (rooted at the frontend's ``state`` or
#: ``queues``) each block cache resolves once and places in the
#: namespace its block functions run in.
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
}

#: Process-constant names of the same namespace: record classes, the
#: real fault-raising/rounding helpers, big-endian page accessors
#: (``old<w>`` reads *w* pre-store bytes as ``bytes``), and the three
#: builtins generated code uses. Together with :data:`BLOCK_BINDINGS`
#: and :data:`BLOCK_LOCALS` this is every name a block may mention
#: (``__builtins__`` is emptied) — the flow lint's codegen audit fails
#: on any other.
BLOCK_HELPERS = {
    "LoadRecord": LoadRecord,
    "StoreRecord": StoreRecord,
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

#: Temporaries a block function may assign.
BLOCK_LOCALS = ("a", "b", "r", "p", "o", "v")

#: The only attributes generated code touches.
BLOCK_STATE_ATTRS = ("icc", "fcc")

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
    "load_record": " lq(LoadRecord(a, {w}))",
    "store_old": " o = a & 4095\n v = old{w}(p, o)[0]",
    "st": " st4(p, o, {a})",
    "stb": " p[o] = {a} & 255",
    "sth": " st2(p, o, {a} & 65535)",
    "stf": " stf(p, o, clamp32(fregs[{s}]))",
    "stdf": " stdf(p, o, fregs[{s}])",
    "store_record": " sq(StoreRecord(a, {w}, v))",
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


class BlockCache:
    """Decoded-block cache + executor for one interpreter instance."""

    def __init__(self, interpreter: Interpreter, queues):
        self._interpreter = interpreter
        self._executable = interpreter.executable
        # Everything bound here outlives every rollback (see the module
        # docstring), so block functions can keep using it forever.
        roots = {"state": interpreter.state, "queues": queues}
        namespace: Dict[str, object] = {"__builtins__": {}}
        namespace.update(BLOCK_HELPERS)
        for name, path in BLOCK_BINDINGS.items():
            root, *attrs = path.split(".")
            value = roots[root]
            for attr in attrs:
                value = getattr(value, attr)
            namespace[name] = value
        self._namespace = namespace
        self._blocks: Dict[int, _Block] = {}
        self.blocks_decoded = 0
        self.block_runs = 0
        self.threaded_instructions = 0
        self.fused_branches = 0

    # ------------------------------------------------------------------

    def block_at(self, pc: int) -> _Block:
        """Return (decoding on first sight) the block starting at *pc*."""
        block = self._blocks.get(pc)
        if block is None:
            block = self._decode(pc)
            self._blocks[pc] = block
            self.blocks_decoded += 1
        return block

    def stats(self) -> Dict[str, int]:
        """Host-side effectiveness counters (never canonical)."""
        return {
            "blocks_decoded": self.blocks_decoded,
            "block_runs": self.block_runs,
            "threaded_instructions": self.threaded_instructions,
            "fused_branches": self.fused_branches,
        }

    # ------------------------------------------------------------------

    def _decode(self, start_pc: int) -> _Block:
        """Decode the maximal straight-line block starting at *start_pc*."""
        executable = self._executable
        lines: List[str] = []
        count = 0
        term = None
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
                # the block; its condition function is bound here so
                # the frontend can evaluate it as a *fused terminator*
                # (same predicate, predictor call, record, and
                # checkpoint as the step path — minus the generic
                # dispatch).
                if opcode is Opcode.BA:
                    count += 1
                    pc = instr.target
                    continue
                if opcode is Opcode.BN:
                    count += 1
                    pc += 4
                    continue
                condition = alu.branch_condition(opcode)
                if condition is not None:
                    term = (TERM_COND, condition[0], condition[1],
                            instr.address, instr.target,
                            instr.fall_through)
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
                # Indirect jump: a control event, but with no predictor
                # or checkpoint involvement — the frontend can fuse it
                # too. The link value is the decode-time constant
                # ``address + 4`` (what ``state.pc + 4`` evaluates to
                # when the step path reaches it). A misaligned runtime
                # target falls back to the step path for the canonical
                # error.
                term = (TERM_JMPL, instr.address, instr.rs1, instr.rs2,
                        instr.imm, instr.rd,
                        (instr.address + 4) & _MASK32)
                break
            if opcode is Opcode.HALT or not emit_instruction(instr, lines):
                break
            count += 1
            pc += 4
        ops = (self._cold(start_pc, count, lines),) if lines else ()
        return ops, count, pc, term

    def _cold(self, start_pc: int, count: int,
              lines: List[str]) -> Callable[[], None]:
        """The block's op until it has earned its ``compile()``.

        Runs the block as *count* calls of the reference
        :meth:`Interpreter.step` (appending the records the frontend's
        step path would), with PC/instret put back to the block's
        start afterwards — the caller commits them in one batch, and a
        mid-block fault leaves them uncommitted, exactly as for a
        generated function. The :data:`COMPILE_AFTER`-th run compiles
        the block, replaces this op in the cache, and runs the
        generated function instead.
        """
        interpreter = self._interpreter
        state = interpreter.state
        step = interpreter.step
        loads_append = self._namespace["lq"]
        stores_append = self._namespace["sq"]
        runs = 0

        def run() -> None:
            nonlocal runs
            runs += 1
            if runs >= COMPILE_AFTER:
                block = codecache.load(
                    block_source(lines), "<repro.threaded block>",
                    "_blk", self._namespace)
                self._blocks[start_pc] = (
                    ((block,),) + self._blocks[start_pc][1:])
                block()
                return
            instret = state.instret
            try:
                for _ in range(count):
                    instr = step()
                    if instr.is_load:
                        loads_append(LoadRecord(
                            interpreter.last_mem_addr,
                            interpreter.last_mem_width))
                    elif instr.is_store:
                        stores_append(StoreRecord(
                            interpreter.last_mem_addr,
                            interpreter.last_mem_width,
                            interpreter.last_store_old))
            finally:
                state.pc = start_pc
                state.instret = instret
        return run
