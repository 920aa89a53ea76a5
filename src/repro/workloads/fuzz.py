"""Random-program generation for stress and differential testing.

:func:`random_program` builds a random — but always terminating —
program from a seed: an outer counted loop around blocks of ALU
arithmetic, loads/stores into a scratch buffer, data-dependent forward
branches, and helper calls. The generator exists in the library (not
just the test suite) because fuzzing *is* how one gains confidence in a
memoizing simulator: run the same seed through FastSim and SlowSim and
require bit-equality (see ``tests/memo/test_fuzz_equivalence.py``), or
use :func:`differential_check` directly.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.isa.assembler import assemble
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim

WORK_REGS = ("%l0", "%l1", "%l2", "%l3", "%l4", "%l5")
_ALU_OPS = ("add", "sub", "xor", "and", "or")
_COND_OPS = ("be", "bne", "bg", "ble")


def random_program(seed: int, iterations: int = 25,
                   blocks: Optional[int] = None,
                   rng: Optional[random.Random] = None) -> str:
    """Generate assembly source for a random terminating program.

    All randomness flows from one explicit stream: either *rng* (when
    a caller wants to drive several generators from a shared seeded
    ``random.Random``) or a fresh ``random.Random(seed)``. The shared
    global ``random`` module is never consulted — the determinism lint
    (``det/unseeded-random``) holds generated programs to the same
    replayability standard as the simulator itself.
    """
    if rng is None:
        rng = random.Random(seed)
    lines = [
        "main:",
        "    set buf, %i0",
        # Define every work register before the random blocks read
        # them, so generated programs pass `fastsim-repro lint FILE.s`
        # (asm/read-before-write) like the hand-written workloads.
        *[f"    clr {reg}" for reg in WORK_REGS],
        f"    mov {iterations}, %i1",
        "outer:",
    ]
    n_blocks = blocks if blocks is not None else rng.randint(2, 5)
    label = 0
    for _ in range(n_blocks):
        for _ in range(rng.randint(2, 6)):
            kind = rng.random()
            rd = rng.choice(WORK_REGS)
            rs = rng.choice(WORK_REGS)
            if kind < 0.45:
                op = rng.choice(_ALU_OPS)
                if rng.random() < 0.5:
                    lines.append(
                        f"    {op} {rs}, {rng.randint(0, 255)}, {rd}"
                    )
                else:
                    lines.append(
                        f"    {op} {rs}, {rng.choice(WORK_REGS)}, {rd}"
                    )
            elif kind < 0.6:
                lines.append(f"    smul {rs}, {rng.randint(1, 7)}, {rd}")
            elif kind < 0.75:
                offset = rng.randrange(0, 64, 4)
                lines.append(f"    ld [%i0 + {offset}], {rd}")
            else:
                offset = rng.randrange(0, 64, 4)
                lines.append(f"    st {rs}, [%i0 + {offset}]")
        if rng.random() < 0.8:
            cond = rng.choice(_COND_OPS)
            reg = rng.choice(WORK_REGS)
            lines.append(f"    cmp {reg}, {rng.randint(0, 64)}")
            lines.append(f"    {cond} skip{label}")
            lines.append(f"    add {reg}, 1, {reg}")
            lines.append(f"skip{label}:")
            label += 1
        if rng.random() < 0.3:
            lines.append("    call helper")
    uses_helper = any(line.strip() == "call helper" for line in lines)
    lines += [
        "    subcc %i1, 1, %i1",
        "    bne outer",
        "    out %l0",
        "    out %l3",
        "    halt",
    ]
    if uses_helper:
        # Only emitted when some block calls it — an uncalled helper
        # would be flagged dead by asm/unreachable-block.
        lines += [
            "helper:",
            "    add %l0, %l1, %l2",
            "    and %l2, 1023, %l2",
            "    ret",
        ]
    lines += [
        "    .data",
        "buf: .space 64",
    ]
    return "\n".join(lines)


def differential_check(seed: int, iterations: int = 25,
                       predictor_factory=None) -> bool:
    """Run one seed through FastSim and SlowSim; True iff bit-equal.

    Raises nothing on mismatch — callers assert on the return value so
    failing seeds are easy to report. The predictor factory (called
    twice, once per simulator) defaults to the paper's bimodal BHT.
    """
    source = random_program(seed, iterations)

    def predictor():
        if predictor_factory is None:
            return None
        return predictor_factory()

    slow = SlowSim(assemble(source), predictor=predictor()).run()
    fast = FastSim(assemble(source), predictor=predictor()).run()
    return fast.timing_equal(slow)
