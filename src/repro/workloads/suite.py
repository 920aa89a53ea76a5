"""The workload suite — 18 SPEC95-named synthetic benchmarks.

Mirrors the paper's evaluation set: 8 integer programs and 10
floating-point programs, each available at three scales:

* ``tiny`` — seconds-long unit-test scale;
* ``test`` — the default benchmark scale (the paper ran SPEC "test"
  inputs for everything but compress);
* ``train`` — several times larger (the paper ran compress on "train").

:func:`load_workload` assembles a workload to an
:class:`~repro.isa.Executable`; :func:`reference_output` runs it through
plain functional execution so simulators can self-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.emulator.functional import run_program
from repro.errors import WorkloadError
from repro.isa.assembler import assemble
from repro.isa.program import Executable
from repro.workloads import floating, integer

SCALES = ("tiny", "test", "train")


@dataclass(frozen=True)
class Workload:
    """One benchmark: a named generator plus per-scale loop counts."""

    name: str
    spec_name: str
    category: str  #: "int" or "fp"
    description: str
    builder: Callable[[int], str]
    scale_n: Dict[str, int]
    #: Scale -> the program assembled at it (see :meth:`executable`).
    _assembled: Dict[str, Executable] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def source(self, scale: str = "test") -> str:
        """Generate the assembly source at *scale*."""
        if scale not in self.scale_n:
            raise WorkloadError(
                f"unknown scale {scale!r} for {self.name}; "
                f"choose from {sorted(self.scale_n)}"
            )
        return self.builder(self.scale_n[scale])

    def executable(self, scale: str = "test") -> Executable:
        """The workload assembled at *scale*, once per process: callers
        share it, and only its lazily filled decode cache is written."""
        executable = self._assembled.get(scale)
        if executable is None:
            executable = assemble(self.source(scale),
                                  name=f"{self.name}-{scale}")
            self._assembled[scale] = executable
        return executable


def _scales(tiny: int, test: int, train: int) -> Dict[str, int]:
    return {"tiny": tiny, "test": test, "train": train}


_DEFINITIONS = [
    Workload("go", "099.go", "int",
             "board evaluation with irregular branch behaviour",
             integer.build_go, _scales(30, 600, 2400)),
    Workload("m88ksim", "124.m88ksim", "int",
             "instruction-set simulator: jump-table dispatch loop",
             integer.build_m88ksim, _scales(60, 1200, 4800)),
    Workload("gcc", "126.gcc", "int",
             "many distinct passes - large code footprint",
             integer.build_gcc, _scales(4, 80, 320)),
    Workload("compress", "129.compress", "int",
             "LZW-style hashing with data-dependent probes",
             integer.build_compress, _scales(40, 800, 3200)),
    Workload("li", "130.li", "int",
             "lisp interpreter: pointer chasing and recursion",
             integer.build_li, _scales(3, 60, 240)),
    Workload("ijpeg", "132.ijpeg", "int",
             "image DCT kernel: regular multiply/shift loops",
             integer.build_ijpeg, _scales(3, 60, 240)),
    Workload("perl", "134.perl", "int",
             "byte-string scanning with class dispatch",
             integer.build_perl, _scales(2, 40, 160)),
    Workload("vortex", "147.vortex", "int",
             "object database: keyed lookup and method dispatch",
             integer.build_vortex, _scales(8, 160, 640)),
    Workload("tomcatv", "101.tomcatv", "fp",
             "2D mesh-generation stencil",
             floating.build_tomcatv, _scales(2, 40, 160)),
    Workload("swim", "102.swim", "fp",
             "shallow-water grid sweeps",
             floating.build_swim, _scales(4, 80, 320)),
    Workload("su2cor", "103.su2cor", "fp",
             "quantum physics: dot products and axpy",
             floating.build_su2cor, _scales(4, 80, 320)),
    Workload("hydro2d", "104.hydro2d", "fp",
             "hydrodynamics stencil with divides",
             floating.build_hydro2d, _scales(8, 160, 640)),
    Workload("mgrid", "107.mgrid", "fp",
             "3D multigrid relaxation (most regular)",
             floating.build_mgrid, _scales(5, 100, 400)),
    Workload("applu", "110.applu", "fp",
             "SSOR solver: carried dependences with divides",
             floating.build_applu, _scales(8, 160, 640)),
    Workload("turb3d", "125.turb3d", "fp",
             "FFT butterfly passes with strided pairs",
             floating.build_turb3d, _scales(5, 100, 400)),
    Workload("apsi", "141.apsi", "fp",
             "weather code: FP-conditional wet/dry cells",
             floating.build_apsi, _scales(5, 100, 400)),
    Workload("fpppp", "145.fpppp", "fp",
             "electron integrals: huge straight-line FP blocks",
             floating.build_fpppp, _scales(8, 160, 640)),
    Workload("wave5", "146.wave5", "fp",
             "particle-in-cell gather/scatter",
             floating.build_wave5, _scales(3, 60, 240)),
]

#: Registry: workload name -> definition.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in _DEFINITIONS}

#: Names in the paper's table order.
WORKLOAD_ORDER: List[str] = [w.name for w in _DEFINITIONS]

INTEGER_WORKLOADS = [w.name for w in _DEFINITIONS if w.category == "int"]
FP_WORKLOADS = [w.name for w in _DEFINITIONS if w.category == "fp"]


def get_workload(name: str) -> Workload:
    """Look up a workload by short name (e.g. ``"gcc"``)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {WORKLOAD_ORDER}"
        ) from None


def load_workload(name: str, scale: str = "test") -> Executable:
    """Assemble workload *name* at *scale*."""
    return get_workload(name).executable(scale)


def paper_scale(name: str) -> str:
    """The input scale the paper used: "train" for compress, else "test"
    (paper §5: compress "requires less time, used its train data set")."""
    return "train" if name == "compress" else "test"


def reference_output(name: str, scale: str = "test",
                     max_instructions: int = 50_000_000) -> List[int]:
    """Functionally execute the workload; returns its ``out`` stream."""
    state = run_program(load_workload(name, scale), max_instructions)
    return list(state.output)


def dynamic_instructions(name: str, scale: str = "test") -> int:
    """Committed instruction count under plain functional execution."""
    state = run_program(load_workload(name, scale))
    return state.instret
