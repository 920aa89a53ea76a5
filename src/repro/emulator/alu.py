"""Arithmetic, logic, and condition-evaluation semantics.

Pure functions shared by the functional interpreter and the integrated
baseline simulator, so both execute identical semantics (a differential
test relies on this single source of truth).
"""

from __future__ import annotations

from repro.errors import EmulationError
from repro.emulator.state import (
    FCC_EQ,
    FCC_GT,
    FCC_LT,
    FCC_UO,
    ICC_C,
    ICC_N,
    ICC_V,
    ICC_Z,
    to_signed,
)
from repro.isa.opcodes import Opcode

_MASK32 = 0xFFFF_FFFF


def int_add(a: int, b: int) -> int:
    return (a + b) & _MASK32


def int_sub(a: int, b: int) -> int:
    return (a - b) & _MASK32


def int_and(a: int, b: int) -> int:
    return a & b & _MASK32


def int_or(a: int, b: int) -> int:
    return (a | b) & _MASK32


def int_xor(a: int, b: int) -> int:
    return (a ^ b) & _MASK32


def int_sll(a: int, b: int) -> int:
    return (a << (b & 31)) & _MASK32


def int_srl(a: int, b: int) -> int:
    return (a & _MASK32) >> (b & 31)


def int_sra(a: int, b: int) -> int:
    return (to_signed(a) >> (b & 31)) & _MASK32


def int_smul(a: int, b: int) -> int:
    """Signed multiply, low 32 bits of the product."""
    return (to_signed(a) * to_signed(b)) & _MASK32


def int_sdiv(a: int, b: int) -> int:
    """Signed divide with C-style truncation toward zero."""
    divisor = to_signed(b)
    if divisor == 0:
        raise EmulationError("integer division by zero")
    dividend = to_signed(a)
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return quotient & _MASK32


def fp_compare(a: float, b: float) -> int:
    """Return the fcc value for ``fcmp a, b``."""
    if a != a or b != b:  # NaN
        return FCC_UO
    if a == b:
        return FCC_EQ
    return FCC_LT if a < b else FCC_GT


_ICC_CONDITIONS = {
    Opcode.BE: lambda icc: bool(icc & ICC_Z),
    Opcode.BNE: lambda icc: not icc & ICC_Z,
    Opcode.BG: lambda icc: not (bool(icc & ICC_Z)
                                or (bool(icc & ICC_N) ^ bool(icc & ICC_V))),
    Opcode.BLE: lambda icc: bool(icc & ICC_Z) or (bool(icc & ICC_N)
                                                  ^ bool(icc & ICC_V)),
    Opcode.BGE: lambda icc: not (bool(icc & ICC_N) ^ bool(icc & ICC_V)),
    Opcode.BL: lambda icc: bool(icc & ICC_N) ^ bool(icc & ICC_V),
    Opcode.BGU: lambda icc: not (bool(icc & ICC_C) or bool(icc & ICC_Z)),
    Opcode.BLEU: lambda icc: bool(icc & ICC_C) or bool(icc & ICC_Z),
}

_FCC_CONDITIONS = {
    Opcode.FBE: lambda fcc: fcc == FCC_EQ,
    Opcode.FBNE: lambda fcc: fcc != FCC_EQ,
    Opcode.FBL: lambda fcc: fcc == FCC_LT,
    Opcode.FBLE: lambda fcc: fcc in (FCC_EQ, FCC_LT),
    Opcode.FBG: lambda fcc: fcc == FCC_GT,
    Opcode.FBGE: lambda fcc: fcc in (FCC_EQ, FCC_GT),
}


def branch_taken(opcode: Opcode, icc: int, fcc: int) -> bool:
    """Evaluate a conditional branch against the condition codes."""
    condition = _ICC_CONDITIONS.get(opcode)
    if condition is not None:
        return condition(icc)
    condition = _FCC_CONDITIONS.get(opcode)
    if condition is not None:
        return condition(fcc)
    if opcode is Opcode.BA:
        return True
    if opcode is Opcode.BN:
        return False
    raise EmulationError(f"not a branch: {opcode!r}")
