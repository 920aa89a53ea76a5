"""Cache and memory-system parameters.

Defaults reproduce the paper's Table 1: a 16 KB 2-way write-through L1
data cache and a 1 MB 2-way write-back L2, 8 MSHRs each, connected by
an 8-byte-wide split-transaction bus. Line size and latencies are not
stated in the paper; we use 32-byte lines and calibrate the L1-miss /
L2-hit delay to the 6 cycles the paper quotes in its example.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheLevelParams:
    """Geometry and policy of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_size: int = 32
    mshrs: int = 8
    write_back: bool = False  #: False = write-through (no write allocate)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_size):
            raise ValueError(
                f"{self.name}: size must be a multiple of assoc * line_size"
            )
        if self.line_size & (self.line_size - 1):
            raise ValueError(f"{self.name}: line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)


@dataclass(frozen=True)
class MemorySystemParams:
    """The full hierarchy: L1 + L2 + bus + DRAM."""

    l1: CacheLevelParams = field(
        default_factory=lambda: CacheLevelParams(
            "L1", size_bytes=16 * 1024, associativity=2, write_back=False
        )
    )
    l2: CacheLevelParams = field(
        default_factory=lambda: CacheLevelParams(
            "L2", size_bytes=1024 * 1024, associativity=2, write_back=True
        )
    )
    #: Cycles from issue to data for an L1 hit.
    l1_hit_latency: int = 1
    #: Cycles from issue to data for an L1 miss that hits in L2
    #: (the paper's "usually a 6 cycle delay").
    l2_hit_latency: int = 6
    #: Additional cycles for an L2 miss (DRAM access).
    memory_latency: int = 26
    #: Bus width in bytes (Table 1: "8 byte wide, split transaction bus").
    bus_width: int = 8
    #: Store buffer entries between the pipeline and the L1/L2.
    store_buffer: int = 8
