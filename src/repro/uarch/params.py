"""Processor model parameters (the paper's Table 1).

:meth:`ProcessorParams.r10k` reproduces the configuration used
throughout the paper's evaluation:

* decode 4 instructions per cycle;
* 2 integer ALUs, 2 FPUs, 1 load/store address adder;
* 64 physical integer registers, 64 physical FP registers
  (32 architectural each, so 32 renames in flight per file);
* 2-bit / 512-entry branch history table;
* speculation through up to 4 conditional branches;
* non-blocking L1/L2 with 8 MSHRs each (see
  :class:`repro.cache.params.MemorySystemParams`).

The active-list (``iQ``) capacity is not in Table 1; we use the
R10000's 32 entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.params import MemorySystemParams
from repro.uarch.iq import MAX_TIMER

#: Memory-system latencies a pipeline timer counts down from: each must
#: fit the configuration codec's 11-bit timer field.
TIMED_LATENCIES = ("l1_hit_latency", "l2_hit_latency", "memory_latency")


@dataclass(frozen=True)
class ProcessorParams:
    """Parameters of the out-of-order pipeline model."""

    fetch_width: int = 4
    decode_width: int = 4
    retire_width: int = 4
    #: Maximum instructions in flight (iQ / active-list entries).
    iq_capacity: int = 32
    int_queue: int = 16
    fp_queue: int = 16
    addr_queue: int = 16
    int_alus: int = 2
    fp_units: int = 2
    agen_units: int = 1
    phys_int_regs: int = 64
    phys_fp_regs: int = 64
    #: Architectural registers per file (fixed by the ISA).
    arch_regs: int = 32
    bht_entries: int = 512
    max_spec_branches: int = 4
    memory: MemorySystemParams = field(default_factory=MemorySystemParams)

    def __post_init__(self) -> None:
        if self.phys_int_regs < self.arch_regs:
            raise ValueError("fewer physical than architectural int registers")
        if self.phys_fp_regs < self.arch_regs:
            raise ValueError("fewer physical than architectural fp registers")
        if self.iq_capacity < self.fetch_width:
            raise ValueError("iQ must hold at least one fetch group")
        # Rejected here rather than by the codec partway through a
        # FastSim run. The codec keeps its own check: a reply can still
        # add up several latencies past the field.
        for name in TIMED_LATENCIES:
            value = getattr(self.memory, name)
            if value > MAX_TIMER:
                raise ValueError(
                    f"memory.{name} = {value} exceeds {MAX_TIMER}, the "
                    "largest timer a configuration can encode")

    @property
    def int_renames(self) -> int:
        """Integer destinations allowed in flight before rename stalls."""
        return self.phys_int_regs - self.arch_regs

    @property
    def fp_renames(self) -> int:
        """FP destinations allowed in flight before rename stalls."""
        return self.phys_fp_regs - self.arch_regs

    @classmethod
    def r10k(cls) -> "ProcessorParams":
        """The paper's MIPS R10000-like configuration (Table 1)."""
        return cls()

    @classmethod
    def narrow(cls) -> "ProcessorParams":
        """A 2-wide variant used by ablation benchmarks."""
        return cls(fetch_width=2, decode_width=2, retire_width=2,
                   iq_capacity=16, int_alus=1, fp_units=1)

    def describe(self) -> str:
        """Human-readable parameter listing (compare with Table 1)."""
        memory = self.memory
        lines = [
            f"Decode {self.decode_width} instructions per cycle.",
            f"{self.int_alus} integer ALUs, {self.fp_units} FPUs, and "
            f"{self.agen_units} load/store address adder.",
            f"{self.phys_int_regs} physical 32-bit integer registers, and "
            f"{self.phys_fp_regs} floating point registers.",
            f"2-bit/{self.bht_entries}-entry branch history table for "
            "branch prediction.",
            "Speculatively execute instructions through up to "
            f"{self.max_spec_branches} conditional branches.",
            f"Non-blocking L1 and L2 data caches, {memory.l1.mshrs} MSHRs "
            "each.",
            f"{memory.l1.size_bytes // 1024} KByte "
            f"{memory.l1.associativity}-way set associative write through "
            "L1 data cache.",
            f"{memory.l2.size_bytes // (1024 * 1024)} MByte "
            f"{memory.l2.associativity}-way set associative write back "
            "L2 data cache.",
            f"{memory.bus_width} byte wide, split transaction bus.",
        ]
        return "\n".join(lines)
