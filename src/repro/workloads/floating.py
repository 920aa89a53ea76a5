"""Synthetic analogues of the SPEC95 floating-point benchmarks.

The FP programs are loop nests over small double-precision grids. Their
defining property for memoization (paper Table 5) is extreme
regularity: few static configurations, near-1.0 cycles per
configuration, and enormous replay chains — the generators below keep
that character (stencils, sweeps, strided passes, long straight-line
blocks) at simulation-friendly sizes.
"""

from __future__ import annotations

from repro.workloads.builder import AsmBuilder


def _emit_checksum_and_halt(b: AsmBuilder, freg: str = "%f7") -> None:
    """Fold the accumulator register into an integer and emit it.

    Scales by 2**10 first (via doubling adds) so sub-unity accumulators
    still produce distinguishing checksums.
    """
    for _ in range(10):
        b.emit(f"fadd {freg}, {freg}, {freg}")
    b.emit(f"fdtoi {freg}, %l0", "and %l0, 0x1fff, %l0", "out %l0", "halt")


def build_tomcatv(n: int, size: int = 8) -> str:
    """101.tomcatv — 2D mesh-generation stencil over two grids."""
    b = AsmBuilder()
    row_bytes = size * 8
    b.label("main")
    b.emit("set gridx, %i0", "set gridy, %i2", "set fours, %l6",
           "lddf [%l6], %f6", "lddf [%l6 + 8], %f7")
    with b.counted_loop("%i1", n):
        with b.counted_loop("%l0", size - 2):
            b.emit("sub %l0, 0, %g1", f"smul %g1, {row_bytes}, %g1",
                   "add %i0, %g1, %l1", "add %i2, %g1, %l2")
            with b.counted_loop("%l3", size - 2):
                b.emit(
                    "sll %l3, 3, %g2",
                    "add %l1, %g2, %l4",
                    f"lddf [%l4 - {row_bytes}], %f0",
                    f"lddf [%l4 + {row_bytes}], %f1",
                    "lddf [%l4 - 8], %f2",
                    "lddf [%l4 + 8], %f3",
                    "fadd %f0, %f1, %f4",
                    "fadd %f2, %f3, %f5",
                    "fadd %f4, %f5, %f4",
                    "fdiv %f4, %f6, %f4",       # average of 4 neighbours
                    "add %l2, %g2, %l5",
                    "stdf %f4, [%l5]",
                    "fadd %f7, %f4, %f7",
                )
        b.comment("swap roles of the grids")
        b.emit("mov %i0, %g3", "mov %i2, %i0", "mov %g3, %i2")
    _emit_checksum_and_halt(b)
    values = [1.0 + (i % 7) * 0.25 for i in range(size * size)]
    b.data_doubles("gridx", values)
    b.data_doubles("gridy", [0.0] * (size * size))
    b.data_doubles("fours", [4.0, 0.0])
    return b.source()


def build_swim(n: int, size: int = 10) -> str:
    """102.swim — shallow-water sweeps over three 1D-flattened grids."""
    b = AsmBuilder()
    b.label("main")
    b.emit("set gu, %i0", "set gv, %i2", "set gp, %i4",
           "set half, %l6", "lddf [%l6], %f6", "fmov %f6, %f7")
    with b.counted_loop("%i1", n):
        b.comment("velocity update sweep")
        with b.counted_loop("%l0", size - 1):
            b.emit(
                "sll %l0, 3, %g1",
                "add %i0, %g1, %l1",
                "add %i2, %g1, %l2",
                "add %i4, %g1, %l3",
                "lddf [%l1], %f0",
                "lddf [%l3], %f1",
                "lddf [%l3 - 8], %f2",
                "fsub %f1, %f2, %f3",
                "fmul %f3, %f6, %f3",
                "fadd %f0, %f3, %f0",
                "stdf %f0, [%l1]",
                "lddf [%l2], %f4",
                "fadd %f4, %f3, %f4",
                "stdf %f4, [%l2]",
            )
        b.comment("pressure update sweep")
        with b.counted_loop("%l0", size - 1):
            b.emit(
                "sll %l0, 3, %g1",
                "add %i4, %g1, %l3",
                "add %i0, %g1, %l1",
                "lddf [%l3], %f0",
                "lddf [%l1], %f1",
                "lddf [%l1 - 8], %f2",
                "fsub %f1, %f2, %f3",
                "fmul %f3, %f6, %f3",
                "fsub %f0, %f3, %f0",
                "stdf %f0, [%l3]",
                "fadd %f7, %f0, %f7",
            )
    _emit_checksum_and_halt(b)
    b.data_doubles("gu", [0.5 + 0.125 * (i % 5) for i in range(size)])
    b.data_doubles("gv", [0.25] * size)
    b.data_doubles("gp", [2.0 + 0.0625 * i for i in range(size)])
    b.data_doubles("half", [0.03125])
    return b.source()


def build_su2cor(n: int, size: int = 12) -> str:
    """103.su2cor — quantum-physics inner products: dot-product chains."""
    b = AsmBuilder()
    b.label("main")
    b.emit("set va, %i0", "set vb, %i2", "set vc, %i4",
           "set seed, %l6", "lddf [%l6], %f7",
           "set scale, %g5", "lddf [%g5], %f6")
    with b.counted_loop("%i1", n):
        b.comment("dot = va . vb, then axpy into vc")
        b.emit("fsub %f7, %f7, %f5")  # dot = 0
        with b.counted_loop("%l0", size):
            b.emit(
                "sub %l0, 1, %g1",
                "sll %g1, 3, %g1",
                "add %i0, %g1, %l1",
                "add %i2, %g1, %l2",
                "lddf [%l1], %f0",
                "lddf [%l2], %f1",
                "fmul %f0, %f1, %f2",
                "fadd %f5, %f2, %f5",
            )
        with b.counted_loop("%l0", size):
            b.emit(
                "sub %l0, 1, %g1",
                "sll %g1, 3, %g1",
                "add %i4, %g1, %l3",
                "add %i0, %g1, %l1",
                "lddf [%l3], %f0",
                "lddf [%l1], %f1",
                "fmul %f1, %f5, %f2",
                "fadd %f0, %f2, %f0",
                "stdf %f0, [%l3]",
            )
        b.emit("fadd %f7, %f5, %f7", "fmul %f7, %f6, %f7")
    _emit_checksum_and_halt(b)
    b.data_doubles("va", [0.1 * (1 + i % 4) for i in range(size)])
    b.data_doubles("vb", [0.2 * (1 + i % 3) for i in range(size)])
    b.data_doubles("vc", [0.0] * size)
    b.data_doubles("seed", [1.0])
    b.data_doubles("scale", [0.125])
    return b.source()


def build_hydro2d(n: int, size: int = 10) -> str:
    """104.hydro2d — hydrodynamics stencil with per-element divides."""
    b = AsmBuilder()
    b.label("main")
    b.emit("set rho, %i0", "set vel, %i2", "set eps, %l6",
           "lddf [%l6], %f6", "fsub %f6, %f6, %f7")
    with b.counted_loop("%i1", n):
        with b.counted_loop("%l0", size - 2):
            b.emit(
                "sll %l0, 3, %g1",
                "add %i0, %g1, %l1",
                "add %i2, %g1, %l2",
                "lddf [%l1 - 8], %f0",
                "lddf [%l1 + 8], %f1",
                "fadd %f0, %f1, %f2",
                "lddf [%l1], %f3",
                "fadd %f3, %f6, %f4",
                "fdiv %f2, %f4, %f5",       # flux / (rho + eps)
                "stdf %f5, [%l2]",
                "fadd %f7, %f5, %f7",
            )
    _emit_checksum_and_halt(b)
    b.data_doubles("rho", [1.0 + 0.1 * (i % 6) for i in range(size)])
    b.data_doubles("vel", [0.0] * size)
    b.data_doubles("eps", [0.5])
    return b.source()


def build_mgrid(n: int, size: int = 4) -> str:
    """107.mgrid — multigrid relaxation: strided 3D neighbour access.

    mgrid shows the paper's best memoization behaviour (11.9x, 0.001%
    detailed) thanks to its extreme regularity.
    """
    b = AsmBuilder()
    plane = size * size * 8
    row = size * 8
    b.label("main")
    b.emit("set grid, %i0", "set sixth, %l6", "lddf [%l6], %f6",
           "fsub %f6, %f6, %f7")
    interior = size - 2
    with b.counted_loop("%i1", n):
        with b.counted_loop("%l0", interior):
            with b.counted_loop("%l1", interior):
                with b.counted_loop("%l2", interior):
                    b.emit(
                        f"smul %l0, {plane}, %g1",
                        f"smul %l1, {row}, %g2",
                        "sll %l2, 3, %g3",
                        "add %g1, %g2, %g1",
                        "add %g1, %g3, %g1",
                        "add %i0, %g1, %l3",
                        f"lddf [%l3 - {plane}], %f0",
                        f"lddf [%l3 + {plane}], %f1",
                        f"lddf [%l3 - {row}], %f2",
                        f"lddf [%l3 + {row}], %f3",
                        "lddf [%l3 - 8], %f4",
                        "lddf [%l3 + 8], %f5",
                        "fadd %f0, %f1, %f0",
                        "fadd %f2, %f3, %f2",
                        "fadd %f4, %f5, %f4",
                        "fadd %f0, %f2, %f0",
                        "fadd %f0, %f4, %f0",
                        "fmul %f0, %f6, %f0",
                        "stdf %f0, [%l3]",
                        "fadd %f7, %f0, %f7",
                    )
    _emit_checksum_and_halt(b)
    b.data_doubles("grid", [0.5 + 0.03125 * (i % 9)
                            for i in range(size ** 3)])
    b.data_doubles("sixth", [1.0 / 6.0])
    return b.source()


def build_applu(n: int, size: int = 10) -> str:
    """110.applu — SSOR solver: dependent chains with divisions."""
    b = AsmBuilder()
    b.label("main")
    b.emit("set diag, %i0", "set rhs, %i2", "set omega, %l6",
           "lddf [%l6], %f6", "fsub %f7, %f7, %f7")
    with b.counted_loop("%i1", n):
        b.comment("forward substitution sweep (carried dependence)")
        b.emit("fsub %f5, %f5, %f5")
        with b.counted_loop("%l0", size):
            b.emit(
                "sub %l0, 1, %g1",
                "sll %g1, 3, %g1",
                "add %i0, %g1, %l1",
                "add %i2, %g1, %l2",
                "lddf [%l2], %f0",
                "fmul %f5, %f6, %f1",       # omega * previous
                "fsub %f0, %f1, %f0",
                "lddf [%l1], %f2",
                "fdiv %f0, %f2, %f5",       # new pivot value
                "stdf %f5, [%l2]",
            )
        b.emit("fadd %f7, %f5, %f7")
    _emit_checksum_and_halt(b)
    b.data_doubles("diag", [2.0 + 0.25 * (i % 4) for i in range(size)])
    b.data_doubles("rhs", [1.0 + 0.125 * i for i in range(size)])
    b.data_doubles("omega", [0.75])
    return b.source()


def build_turb3d(n: int, size: int = 16) -> str:
    """125.turb3d — FFT-style butterfly passes with strided pairs."""
    b = AsmBuilder()
    b.label("main")
    b.emit("set signal, %i0", "set twiddle, %i2", "fsub %f7, %f7, %f7",
           "lddf [%i2 + 32], %f5")  # 0.5: keeps values bounded
    with b.counted_loop("%i1", n):
        for stride in (1, 2, 4):
            pairs = size // (2 * stride)
            b.comment(f"butterfly pass, stride {stride}")
            with b.counted_loop("%l0", pairs):
                b.emit(
                    "sub %l0, 1, %g1",
                    f"smul %g1, {16 * stride}, %g1",
                    "add %i0, %g1, %l1",
                    f"lddf [%l1], %f0",
                    f"lddf [%l1 + {8 * stride}], %f1",
                    "and %g1, 24, %g2",
                    "lddf [%i2 + %g2], %f2",
                    "fmul %f1, %f2, %f1",
                    "fadd %f0, %f1, %f3",
                    "fsub %f0, %f1, %f4",
                    "fmul %f3, %f5, %f3",
                    "fmul %f4, %f5, %f4",
                    "stdf %f3, [%l1]",
                    f"stdf %f4, [%l1 + {8 * stride}]",
                    "fadd %f7, %f3, %f7",
                )
    _emit_checksum_and_halt(b)
    b.data_doubles("signal", [0.25 * ((i * 5) % 8) for i in range(size)])
    b.data_doubles("twiddle", [1.0, 0.7071, 0.0, -0.7071, 0.5])
    return b.source()


def build_apsi(n: int, size: int = 12) -> str:
    """141.apsi — mesoscale weather: mixed FP arithmetic with
    FP-condition branches (wet/dry cells)."""
    b = AsmBuilder()
    b.label("main")
    b.emit("set temp, %i0", "set moist, %i2", "set thresh, %l6",
           "lddf [%l6], %f6", "fsub %f7, %f7, %f7", "clr %i3")
    with b.counted_loop("%i1", n):
        with b.counted_loop("%l0", size):
            b.emit(
                "sub %l0, 1, %g1",
                "sll %g1, 3, %g1",
                "add %i0, %g1, %l1",
                "add %i2, %g1, %l2",
                "lddf [%l1], %f0",
                "lddf [%l2], %f1",
                "fcmp %f1, %f6",
            )
            wet = b.fresh("wet")
            done = b.fresh("cell")
            b.emit(f"fbg {wet}")
            b.comment("dry cell: radiative cooling")
            b.emit("fmul %f0, %f6, %f0", f"ba {done}")
            b.label(wet)
            b.comment("wet cell: latent heating")
            b.emit("fadd %f0, %f1, %f0", "fmul %f1, %f6, %f1",
                   "stdf %f1, [%l2]", "add %i3, 1, %i3")
            b.label(done)
            b.emit("stdf %f0, [%l1]", "fadd %f7, %f0, %f7")
    b.emit("out %i3")
    _emit_checksum_and_halt(b)
    b.data_doubles("temp", [10.0 + 0.5 * (i % 5) for i in range(size)])
    b.data_doubles("moist", [0.25 * (i % 7) for i in range(size)])
    b.data_doubles("thresh", [0.9])
    return b.source()


def build_fpppp(n: int) -> str:
    """145.fpppp — electron-integral code famous for enormous
    straight-line basic blocks of FP arithmetic."""
    b = AsmBuilder()
    b.label("main")
    # %f5 feeds the k=0 fsub below before any unrolled step writes it,
    # so zero it explicitly (caught by `fastsim-repro lint FILE.s`).
    b.emit("set coeffs, %i0", "fsub %f7, %f7, %f7",
           "fsub %f5, %f5, %f5")
    for k in range(4):
        b.emit(f"lddf [%i0 + {8 * k}], %f{k}")
    with b.counted_loop("%i1", n):
        b.comment("one huge unrolled FP block (no internal branches)")
        for k in range(24):
            a, b_reg, c = k % 4, (k + 1) % 4, 4 + (k % 2)
            b.emit(
                f"fmul %f{a}, %f{b_reg}, %f{c}",
                f"fadd %f{c}, %f{(k + 2) % 4}, %f{c}",
                f"fsub %f{c}, %f{4 + ((k + 1) % 2)}, %f6",
                f"fadd %f7, %f6, %f7",
            )
        b.emit("lddf [%i0 + 32], %f5", "fmul %f7, %f5, %f7")
    _emit_checksum_and_halt(b)
    b.data_doubles("coeffs", [1.01, 0.99, 1.02, 0.98, 0.5])
    return b.source()


def build_wave5(n: int, particles: int = 16) -> str:
    """146.wave5 — particle-in-cell: gather / update / scatter with
    indirection through an index array."""
    b = AsmBuilder()
    b.label("main")
    b.emit("set field, %i0", "set posidx, %i2", "set charge, %i4",
           "set half, %l7", "lddf [%l7], %f6",  # 0.5: damping
           "fsub %f7, %f7, %f7")
    with b.counted_loop("%i1", n):
        with b.counted_loop("%l0", particles):
            b.emit(
                "sub %l0, 1, %g1",
                "sll %g1, 2, %g2",
                "ld [%i2 + %g2], %l1",       # particle's cell index
                "sll %l1, 3, %l2",
                "add %i0, %l2, %l3",
                "lddf [%l3], %f0",           # gather field at cell
                "sll %g1, 3, %g3",
                "add %i4, %g3, %l4",
                "lddf [%l4], %f1",           # particle charge
                "fmul %f0, %f1, %f2",
                "fadd %f2, %f1, %f2",
                "fmul %f2, %f6, %f2",        # damped update
                "stdf %f2, [%l4]",           # update particle
                "fadd %f0, %f2, %f3",
                "fmul %f3, %f6, %f3",
                "stdf %f3, [%l3]",           # scatter back to grid
                "fadd %f7, %f3, %f7",
                "ld [%i2 + %g2], %l5",       # advance the index ring
                "add %l5, 3, %l5",
                "and %l5, 7, %l5",
                "st %l5, [%i2 + %g2]",
            )
    _emit_checksum_and_halt(b)
    b.data_doubles("field", [0.5 + 0.125 * i for i in range(8)])
    b.data_words("posidx", [(i * 3) % 8 for i in range(particles)])
    b.data_doubles("charge", [0.01 * (1 + i % 5) for i in range(particles)])
    b.data_doubles("half", [0.5])
    return b.source()
