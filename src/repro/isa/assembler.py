"""Two-pass assembler for the toy SPARC-like ISA.

The assembler turns assembly text into an :class:`Executable`. The
dialect follows SPARC conventions:

* comments start with ``!`` or ``#`` and run to end of line;
* labels end with ``:`` and may share a line with an instruction;
* sections are selected with ``.text`` / ``.data``;
* data directives: ``.word``, ``.half``, ``.byte``, ``.float`` (IEEE
  binary32), ``.double`` (binary64), ``.space N``, ``.align N``,
  ``.asciz``/``.ascii``, and ``.equ NAME, value`` for constants;
* memory operands are written ``[%base + %index]``, ``[%base + imm]``,
  ``[%base - imm]``, or ``[%base]``;
* ``%hi(expr)`` / ``%lo(expr)`` extract the upper 19 / lower 13 bits of
  a value (matching ``sethi``'s 19-bit immediate).

Pseudo-instructions expand to real ones:

==================  =====================================================
``mov op2, %rd``    ``or %g0, op2, %rd`` (or ``add``/``set`` as needed)
``set val, %rd``    ``sethi %hi(val), %rd`` + ``or %rd, %lo(val), %rd``
``clr %rd``         ``or %g0, %g0, %rd``
``cmp %rs, op2``    ``subcc %rs, op2, %g0``
``tst %rs``         ``orcc %rs, %g0, %g0``
``inc/dec %rd [,n]``  ``add``/``sub %rd, n, %rd``
``neg %rs, %rd``    ``sub %g0, %rs, %rd``
``b label``         ``ba label``
``ret`` / ``retl``  ``jmpl [%ra], %g0``
==================  =====================================================

The entry point is the ``main`` symbol if present, else ``_start``,
else the start of the text segment.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AssemblerError
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    Format,
    MNEMONIC_TO_OPCODE,
    Opcode,
    opcode_info,
)
from repro.isa.program import DATA_BASE, TEXT_BASE, Executable
from repro.isa.registers import (
    INT_REG_NAMES,
    LINK_REG,
    ZERO_REG,
    parse_fp_reg,
    parse_int_reg,
)

_COMMENT_RE = re.compile(r"[!#].*$")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_HI_LO_RE = re.compile(r"^%(hi|lo)\((.+)\)$")

#: Operand parsed from source: ('reg', n) / ('freg', n) / ('imm', expr
#: string) / ('mem', base, index_or_None, offset_expr_or_None).
Operand = Tuple


@dataclass
class _Statement:
    """One instruction or directive with its source position."""

    line: int
    mnemonic: str
    operands: List[str]
    address: int = 0


class Assembler:
    """Two-pass assembler producing :class:`Executable` images."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    def assemble(self, source: str, name: str = "<asm>") -> Executable:
        """Assemble *source* and return the executable image."""
        statements = self._parse(source, name)
        symbols, text_stmts, data_directives, bss_size = self._layout(
            statements, name
        )
        text = self._emit_text(text_stmts, symbols, name)
        data = self._emit_data(data_directives, symbols, name)
        entry = symbols.get("main", symbols.get("_start", self.text_base))
        return Executable(
            text=bytes(text),
            data=bytes(data),
            bss_size=bss_size,
            text_base=self.text_base,
            data_base=self.data_base,
            entry=entry,
            symbols=symbols,
            source_name=name,
        )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    def _parse(self, source: str, name: str) -> List[Tuple[int, str, str]]:
        """Split source into (line_number, label_or_None, statement) items.

        Returns a flat list of ``(line, kind, payload)`` tuples where kind
        is ``'label'`` or ``'stmt'``.
        """
        items: List[Tuple[int, str, str]] = []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = _COMMENT_RE.sub("", raw).strip()
            while line:
                match = _LABEL_RE.match(line)
                if match and not line.startswith("."):
                    items.append((lineno, "label", match.group(1)))
                    line = match.group(2).strip()
                    continue
                items.append((lineno, "stmt", line))
                break
        return items

    def _split_operands(self, text: str) -> List[str]:
        """Split an operand list on commas that are not inside brackets."""
        operands: List[str] = []
        depth = 0
        current = []
        for char in text:
            if char in "[(":
                depth += 1
            elif char in "])":
                depth -= 1
            if char == "," and depth == 0:
                operands.append("".join(current).strip())
                current = []
            else:
                current.append(char)
        tail = "".join(current).strip()
        if tail:
            operands.append(tail)
        return operands

    # ------------------------------------------------------------------
    # Pass 1: layout
    # ------------------------------------------------------------------

    def _layout(
        self, items: List[Tuple[int, str, str]], name: str
    ) -> Tuple[Dict[str, int], List[_Statement], List[_Statement], int]:
        symbols: Dict[str, int] = {}
        text_stmts: List[_Statement] = []
        data_stmts: List[_Statement] = []
        section = "text"
        text_pos = self.text_base
        data_pos = self.data_base

        def position() -> int:
            return text_pos if section == "text" else data_pos

        for lineno, kind, payload in items:
            if kind == "label":
                if payload in symbols:
                    raise AssemblerError(
                        f"duplicate label {payload!r}", lineno, name
                    )
                symbols[payload] = position()
                continue
            parts = payload.split(None, 1)
            mnemonic = parts[0].lower()
            operand_text = parts[1] if len(parts) > 1 else ""
            operands = self._split_operands(operand_text)
            stmt = _Statement(lineno, mnemonic, operands)

            if mnemonic == ".text":
                section = "text"
                continue
            if mnemonic == ".data":
                section = "data"
                continue
            if mnemonic == ".equ":
                if len(operands) != 2:
                    raise AssemblerError(".equ needs NAME, value", lineno, name)
                symbols[operands[0]] = self._eval(
                    operands[1], symbols, lineno, name
                )
                continue
            if mnemonic == ".global":
                continue

            if section == "text":
                if mnemonic.startswith("."):
                    raise AssemblerError(
                        f"directive {mnemonic} not allowed in .text",
                        lineno,
                        name,
                    )
                stmt.address = text_pos
                text_pos += 4 * self._instruction_count(stmt, name)
                text_stmts.append(stmt)
            else:
                stmt.address = data_pos
                data_pos += self._data_size(stmt, data_pos, name)
                data_stmts.append(stmt)

        bss_size = sum(
            self._data_size(s, s.address, name)
            for s in data_stmts
            if s.mnemonic == ".space"
        )
        # BSS (.space) is appended with the rest of the data image as
        # zero bytes, so the executable's bss_size stays 0 and data holds
        # everything — simpler, and identical from the program's view.
        return symbols, text_stmts, data_stmts, 0

    def _instruction_count(self, stmt: _Statement, name: str) -> int:
        """Number of machine instructions a statement expands to."""
        if stmt.mnemonic == "set":
            if len(stmt.operands) != 2:
                raise AssemblerError("set needs value, %rd", stmt.line, name)
            literal = self._try_literal(stmt.operands[0])
            if literal is not None and -4096 <= literal <= 4095:
                return 1
            return 2
        if stmt.mnemonic == "mov":
            literal = self._try_literal(stmt.operands[0]) if stmt.operands else None
            if literal is not None and not -4096 <= literal <= 8191:
                return 2  # expands through `set`
            return 1
        return 1

    def _data_size(self, stmt: _Statement, position: int, name: str) -> int:
        sizes = {
            ".word": 4,
            ".half": 2,
            ".byte": 1,
            ".float": 4,
            ".double": 8,
        }
        mnemonic = stmt.mnemonic
        if mnemonic in sizes:
            return sizes[mnemonic] * max(len(stmt.operands), 1)
        if mnemonic == ".space":
            return self._eval(stmt.operands[0], {}, stmt.line, name)
        if mnemonic == ".align":
            alignment = self._eval(stmt.operands[0], {}, stmt.line, name)
            remainder = position % alignment
            return (alignment - remainder) % alignment
        if mnemonic in (".ascii", ".asciz"):
            literal = self._string_literal(stmt.operands[0], stmt.line, name)
            return len(literal) + (1 if mnemonic == ".asciz" else 0)
        raise AssemblerError(f"unknown directive {mnemonic}", stmt.line, name)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _try_literal(self, text: str) -> Optional[int]:
        """Parse a plain integer literal, or None if it is not one."""
        text = text.strip()
        try:
            return int(text, 0)
        except ValueError:
            return None

    def _eval(
        self,
        expr: str,
        symbols: Dict[str, int],
        line: int,
        name: str,
    ) -> int:
        """Evaluate an operand expression to an integer.

        Supports integer literals, symbols, ``%hi(...)``/``%lo(...)``,
        and ``+``/``-`` chains of those.
        """
        expr = expr.strip()
        match = _HI_LO_RE.match(expr)
        if match:
            inner = self._eval(match.group(2), symbols, line, name)
            if match.group(1) == "hi":
                return (inner >> 13) & 0x7FFFF
            return inner & 0x1FFF
        tokens = re.split(r"([+-])", expr)
        total = 0
        sign = 1
        expect_term = True
        for token in tokens:
            token = token.strip()
            if not token:
                continue
            if token == "+":
                sign = sign if expect_term else 1
                expect_term = True
                continue
            if token == "-":
                sign = -sign if expect_term else -1
                expect_term = True
                continue
            total += sign * self._term(token, symbols, line, name)
            sign = 1
            expect_term = False
        return total

    def _term(
        self, token: str, symbols: Dict[str, int], line: int, name: str
    ) -> int:
        literal = self._try_literal(token)
        if literal is not None:
            return literal
        if token in symbols:
            return symbols[token]
        raise AssemblerError(f"undefined symbol {token!r}", line, name)

    def _string_literal(self, text: str, line: int, name: str) -> bytes:
        text = text.strip()
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise AssemblerError("expected string literal", line, name)
        body = text[1:-1]
        body = (
            body.replace("\\n", "\n")
            .replace("\\t", "\t")
            .replace("\\0", "\0")
            .replace('\\"', '"')
        )
        return body.encode("latin-1")

    # ------------------------------------------------------------------
    # Operand parsing (pass 2)
    # ------------------------------------------------------------------

    def _is_int_reg(self, text: str) -> bool:
        return text.startswith("%") and text[1:].lower() in INT_REG_NAMES

    def _parse_mem(
        self,
        text: str,
        symbols: Dict[str, int],
        line: int,
        name: str,
    ) -> Tuple[int, Optional[int], Optional[int]]:
        """Parse ``[%base ± offset]`` into (rs1, rs2, imm)."""
        if not (text.startswith("[") and text.endswith("]")):
            raise AssemblerError(f"expected memory operand, got {text!r}", line, name)
        inner = text[1:-1].strip()
        match = re.match(r"^(%\w+)\s*(?:([+-])\s*(.+))?$", inner)
        if not match or not self._is_int_reg(match.group(1)):
            raise AssemblerError(f"bad memory operand {text!r}", line, name)
        base = parse_int_reg(match.group(1))
        if match.group(2) is None:
            return base, None, 0
        rest = match.group(3).strip()
        sign = -1 if match.group(2) == "-" else 1
        if self._is_int_reg(rest):
            if sign < 0:
                raise AssemblerError(
                    "register index cannot be subtracted", line, name
                )
            return base, parse_int_reg(rest), None
        value = sign * self._eval(rest, symbols, line, name)
        return base, None, value

    # ------------------------------------------------------------------
    # Pass 2: text emission
    # ------------------------------------------------------------------

    def _emit_text(
        self,
        statements: List[_Statement],
        symbols: Dict[str, int],
        name: str,
    ) -> bytearray:
        out = bytearray()
        for stmt in statements:
            for instr in self._expand(stmt, symbols, name):
                try:
                    word = encode(instr)
                except Exception as exc:
                    raise AssemblerError(str(exc), stmt.line, name) from exc
                out += word.to_bytes(4, "big")
        return out

    def _expand(
        self,
        stmt: _Statement,
        symbols: Dict[str, int],
        name: str,
    ) -> List[Instruction]:
        """Expand one statement into machine instructions."""
        mnemonic = stmt.mnemonic
        handler = _PSEUDO_HANDLERS.get(mnemonic)
        if handler is not None:
            return handler(self, stmt, symbols, name)
        opcode = MNEMONIC_TO_OPCODE.get(mnemonic)
        if opcode is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", stmt.line, name)
        return [self._encode_native(opcode, stmt, symbols, name)]

    def _operand_imm_or_reg(
        self,
        text: str,
        symbols: Dict[str, int],
        line: int,
        name: str,
    ) -> Tuple[Optional[int], Optional[int]]:
        """Return (rs2, imm) for a reg-or-imm operand."""
        if self._is_int_reg(text):
            return parse_int_reg(text), None
        return None, self._eval(text, symbols, line, name)

    def _encode_native(
        self,
        opcode: Opcode,
        stmt: _Statement,
        symbols: Dict[str, int],
        name: str,
    ) -> Instruction:
        info = opcode_info(opcode)
        ops = stmt.operands
        line = stmt.line
        address = stmt.address

        def need(count: int) -> None:
            if len(ops) != count:
                raise AssemblerError(
                    f"{info.mnemonic} expects {count} operands, got {len(ops)}",
                    line,
                    name,
                )

        fmt = info.fmt
        if fmt is Format.ALU:
            need(3)
            rs1 = parse_int_reg(ops[0])
            rs2, imm = self._operand_imm_or_reg(ops[1], symbols, line, name)
            return Instruction(
                address, opcode, rs1=rs1, rs2=rs2, rd=parse_int_reg(ops[2]), imm=imm
            )
        if fmt is Format.SETHI:
            need(2)
            return Instruction(
                address,
                opcode,
                rd=parse_int_reg(ops[1]),
                imm=self._eval(ops[0], symbols, line, name) & 0x7FFFF,
            )
        if fmt in (Format.LOAD, Format.FLOAD):
            need(2)
            rs1, rs2, imm = self._parse_mem(ops[0], symbols, line, name)
            if fmt is Format.LOAD:
                return Instruction(
                    address, opcode, rs1=rs1, rs2=rs2, rd=parse_int_reg(ops[1]), imm=imm
                )
            return Instruction(
                address, opcode, rs1=rs1, rs2=rs2, fd=parse_fp_reg(ops[1]), imm=imm
            )
        if fmt in (Format.STORE, Format.FSTORE):
            need(2)
            rs1, rs2, imm = self._parse_mem(ops[1], symbols, line, name)
            if fmt is Format.STORE:
                return Instruction(
                    address, opcode, rs1=rs1, rs2=rs2, rd=parse_int_reg(ops[0]), imm=imm
                )
            return Instruction(
                address, opcode, rs1=rs1, rs2=rs2, fd=parse_fp_reg(ops[0]), imm=imm
            )
        if fmt is Format.FPOP2:
            need(3)
            return Instruction(
                address,
                opcode,
                fs1=parse_fp_reg(ops[0]),
                fs2=parse_fp_reg(ops[1]),
                fd=parse_fp_reg(ops[2]),
            )
        if fmt is Format.FPOP1:
            need(2)
            return Instruction(
                address, opcode, fs1=parse_fp_reg(ops[0]), fd=parse_fp_reg(ops[1])
            )
        if fmt is Format.FCMP:
            need(2)
            return Instruction(
                address, opcode, fs1=parse_fp_reg(ops[0]), fs2=parse_fp_reg(ops[1])
            )
        if fmt in (Format.BRANCH, Format.CALL):
            need(1)
            target = self._eval(ops[0], symbols, line, name)
            rd = LINK_REG if fmt is Format.CALL else None
            return Instruction(address, opcode, rd=rd, target=target)
        if fmt is Format.JMPL:
            need(2)
            rs1, rs2, imm = self._parse_mem(ops[0], symbols, line, name)
            return Instruction(
                address, opcode, rs1=rs1, rs2=rs2, rd=parse_int_reg(ops[1]), imm=imm
            )
        if fmt is Format.I2F:
            need(2)
            return Instruction(
                address, opcode, rs1=parse_int_reg(ops[0]), fd=parse_fp_reg(ops[1])
            )
        if fmt is Format.F2I:
            need(2)
            return Instruction(
                address, opcode, fs1=parse_fp_reg(ops[0]), rd=parse_int_reg(ops[1])
            )
        if fmt is Format.OUT:
            need(1)
            return Instruction(address, opcode, rs1=parse_int_reg(ops[0]))
        if fmt is Format.NONE:
            need(0)
            return Instruction(address, opcode)
        raise AssemblerError(f"unhandled format {fmt!r}", line, name)

    # -- pseudo-instruction expansions ---------------------------------

    def _pseudo_set(
        self, stmt: _Statement, symbols: Dict[str, int], name: str
    ) -> List[Instruction]:
        if len(stmt.operands) != 2:
            raise AssemblerError("set needs value, %rd", stmt.line, name)
        value = self._eval(stmt.operands[0], symbols, stmt.line, name) & 0xFFFFFFFF
        rd = parse_int_reg(stmt.operands[1])
        if self._instruction_count(stmt, name) == 1:
            signed = value - 0x100000000 if value >= 0x80000000 else value
            return [
                Instruction(stmt.address, Opcode.ADD, rs1=ZERO_REG, rd=rd, imm=signed)
            ]
        return [
            Instruction(stmt.address, Opcode.SETHI, rd=rd, imm=(value >> 13) & 0x7FFFF),
            Instruction(
                stmt.address + 4, Opcode.OR, rs1=rd, rd=rd, imm=value & 0x1FFF
            ),
        ]

    def _pseudo_mov(
        self, stmt: _Statement, symbols: Dict[str, int], name: str
    ) -> List[Instruction]:
        if len(stmt.operands) != 2:
            raise AssemblerError("mov needs src, %rd", stmt.line, name)
        src, dst = stmt.operands
        rd = parse_int_reg(dst)
        if self._is_int_reg(src):
            return [
                Instruction(
                    stmt.address, Opcode.OR, rs1=ZERO_REG, rs2=parse_int_reg(src), rd=rd
                )
            ]
        value = self._eval(src, symbols, stmt.line, name)
        if -4096 <= value <= 4095:
            return [
                Instruction(stmt.address, Opcode.ADD, rs1=ZERO_REG, rd=rd, imm=value)
            ]
        if 0 <= value <= 8191:
            return [
                Instruction(stmt.address, Opcode.OR, rs1=ZERO_REG, rd=rd, imm=value)
            ]
        set_stmt = _Statement(stmt.line, "set", [src, dst], stmt.address)
        return self._pseudo_set(set_stmt, symbols, name)

    def _pseudo_simple(
        self, stmt: _Statement, symbols: Dict[str, int], name: str
    ) -> List[Instruction]:
        mnemonic = stmt.mnemonic
        ops = stmt.operands
        line, address = stmt.line, stmt.address
        if mnemonic == "clr":
            return [
                Instruction(
                    address, Opcode.OR, rs1=ZERO_REG, rs2=ZERO_REG,
                    rd=parse_int_reg(ops[0]),
                )
            ]
        if mnemonic == "cmp":
            rs2, imm = self._operand_imm_or_reg(ops[1], symbols, line, name)
            return [
                Instruction(
                    address, Opcode.SUBCC, rs1=parse_int_reg(ops[0]),
                    rs2=rs2, rd=ZERO_REG, imm=imm,
                )
            ]
        if mnemonic == "tst":
            return [
                Instruction(
                    address, Opcode.ORCC, rs1=parse_int_reg(ops[0]),
                    rs2=ZERO_REG, rd=ZERO_REG,
                )
            ]
        if mnemonic in ("inc", "dec"):
            amount = (
                self._eval(ops[1], symbols, line, name) if len(ops) > 1 else 1
            )
            opcode = Opcode.ADD if mnemonic == "inc" else Opcode.SUB
            reg = parse_int_reg(ops[0])
            return [Instruction(address, opcode, rs1=reg, rd=reg, imm=amount)]
        if mnemonic == "neg":
            src = parse_int_reg(ops[0])
            dst = parse_int_reg(ops[1]) if len(ops) > 1 else src
            return [
                Instruction(address, Opcode.SUB, rs1=ZERO_REG, rs2=src, rd=dst)
            ]
        if mnemonic == "b":
            target = self._eval(ops[0], symbols, line, name)
            return [Instruction(address, Opcode.BA, target=target)]
        if mnemonic in ("ret", "retl"):
            return [
                Instruction(address, Opcode.JMPL, rs1=LINK_REG, rd=ZERO_REG, imm=0)
            ]
        raise AssemblerError(f"unknown pseudo {mnemonic!r}", line, name)

    # ------------------------------------------------------------------
    # Pass 2: data emission
    # ------------------------------------------------------------------

    def _emit_data(
        self,
        statements: List[_Statement],
        symbols: Dict[str, int],
        name: str,
    ) -> bytearray:
        out = bytearray()
        for stmt in statements:
            position = self.data_base + len(out)
            if position != stmt.address:
                raise AssemblerError(
                    "internal layout mismatch", stmt.line, name
                )  # pragma: no cover
            mnemonic = stmt.mnemonic
            if mnemonic == ".word":
                for op in stmt.operands:
                    value = self._eval(op, symbols, stmt.line, name) & 0xFFFFFFFF
                    out += value.to_bytes(4, "big")
            elif mnemonic == ".half":
                for op in stmt.operands:
                    value = self._eval(op, symbols, stmt.line, name) & 0xFFFF
                    out += value.to_bytes(2, "big")
            elif mnemonic == ".byte":
                for op in stmt.operands:
                    value = self._eval(op, symbols, stmt.line, name) & 0xFF
                    out.append(value)
            elif mnemonic == ".float":
                for op in stmt.operands:
                    out += struct.pack(">f", float(op))
            elif mnemonic == ".double":
                for op in stmt.operands:
                    out += struct.pack(">d", float(op))
            elif mnemonic == ".space":
                out += bytes(self._eval(stmt.operands[0], {}, stmt.line, name))
            elif mnemonic == ".align":
                alignment = self._eval(stmt.operands[0], {}, stmt.line, name)
                while (self.data_base + len(out)) % alignment:
                    out.append(0)
            elif mnemonic in (".ascii", ".asciz"):
                out += self._string_literal(stmt.operands[0], stmt.line, name)
                if mnemonic == ".asciz":
                    out.append(0)
            else:  # pragma: no cover - filtered in pass 1
                raise AssemblerError(
                    f"unknown directive {mnemonic}", stmt.line, name
                )
        return out


_PSEUDO_HANDLERS: Dict[str, Callable] = {
    "set": Assembler._pseudo_set,
    "mov": Assembler._pseudo_mov,
    "clr": Assembler._pseudo_simple,
    "cmp": Assembler._pseudo_simple,
    "tst": Assembler._pseudo_simple,
    "inc": Assembler._pseudo_simple,
    "dec": Assembler._pseudo_simple,
    "neg": Assembler._pseudo_simple,
    "b": Assembler._pseudo_simple,
    "ret": Assembler._pseudo_simple,
    "retl": Assembler._pseudo_simple,
}


def assemble(source: str, name: str = "<asm>") -> Executable:
    """Assemble *source* text into an :class:`Executable`."""
    return Assembler().assemble(source, name)
