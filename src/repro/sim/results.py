"""Simulation result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.hierarchy import CacheStats
from repro.sim.world import SimStats


@dataclass
class MemoStats:
    """Memoization measurements (Tables 4 and 5 and Figure 7).

    ``None``-like zeros for non-memoized runs.
    """

    #: Static configurations ever allocated.
    configs_allocated: int = 0
    #: Static actions ever allocated.
    actions_allocated: int = 0
    #: Modelled p-action cache bytes currently allocated.
    cache_bytes: int = 0
    #: Peak modelled p-action cache bytes.
    peak_cache_bytes: int = 0
    #: Dynamic actions executed during replay (fast-forwarding).
    actions_replayed: int = 0
    #: Dynamic configuration visits during replay.
    configs_replayed: int = 0
    #: Instructions retired while fast-forwarding.
    replayed_instructions: int = 0
    #: Instructions retired while running the detailed simulator.
    detailed_instructions: int = 0
    #: Cycles simulated while fast-forwarding.
    replayed_cycles: int = 0
    #: Cycles simulated by the detailed simulator.
    detailed_cycles: int = 0
    #: Number of record->replay transitions (fast-forward episodes).
    replay_episodes: int = 0
    #: Lengths (in actions) of each uninterrupted replay episode.
    chain_lengths: List[int] = field(default_factory=list)
    #: Times the replacement policy flushed / collected the cache.
    evictions: int = 0

    @property
    def detailed_fraction(self) -> float:
        """Fraction of instructions simulated in detail (Table 4)."""
        total = self.replayed_instructions + self.detailed_instructions
        if not total:
            return 0.0
        return self.detailed_instructions / total

    @property
    def actions_per_config(self) -> float:
        """Dynamic actions per configuration visit (Table 5)."""
        if not self.configs_replayed:
            return 0.0
        return self.actions_replayed / self.configs_replayed

    @property
    def cycles_per_config(self) -> float:
        """Dynamic cycles per configuration visit (Table 5)."""
        if not self.configs_replayed:
            return 0.0
        return self.replayed_cycles / self.configs_replayed

    @property
    def avg_chain_length(self) -> float:
        if not self.chain_lengths:
            return 0.0
        return sum(self.chain_lengths) / len(self.chain_lengths)

    @property
    def max_chain_length(self) -> int:
        return max(self.chain_lengths, default=0)

    def as_dict(self) -> Dict[str, object]:
        """Summary suitable for JSON metrics (chain list collapsed).

        Keys are explicitly sorted: these dicts are embedded in JSON
        documents that downstream tooling byte-compares, so insertion
        order is part of the contract (golden-tested).
        """
        return {
            "actions_allocated": self.actions_allocated,
            "actions_replayed": self.actions_replayed,
            "avg_chain_length": self.avg_chain_length,
            "cache_bytes": self.cache_bytes,
            "configs_allocated": self.configs_allocated,
            "configs_replayed": self.configs_replayed,
            "detailed_cycles": self.detailed_cycles,
            "detailed_fraction": self.detailed_fraction,
            "detailed_instructions": self.detailed_instructions,
            "evictions": self.evictions,
            "max_chain_length": self.max_chain_length,
            "peak_cache_bytes": self.peak_cache_bytes,
            "replay_episodes": self.replay_episodes,
            "replayed_cycles": self.replayed_cycles,
            "replayed_instructions": self.replayed_instructions,
        }


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    name: str
    cycles: int
    instructions: int
    #: Values emitted by the program's ``out`` instructions.
    output: List[int]
    sim_stats: SimStats
    cache_stats: CacheStats
    #: Wall-clock seconds the simulation took (host time).
    host_seconds: float = 0.0
    #: Instructions functionally executed by the frontend (wrong paths
    #: included); None for simulators without a decoupled frontend.
    frontend_instructions: Optional[int] = None
    #: Misprediction rollbacks performed by the frontend.
    rollbacks: int = 0
    memo: MemoStats = field(default_factory=MemoStats)

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def kinsts_per_second(self) -> float:
        """Simulated Kinstructions per host second (Table 3's metric)."""
        if self.host_seconds <= 0:
            return 0.0
        return self.instructions / self.host_seconds / 1000.0

    def timing_equal(self, other: "SimulationResult") -> bool:
        """True when two runs produced identical simulated behaviour.

        This is the paper's headline invariant: memoized and detailed
        simulation agree on *all* simulated statistics, not just the
        cycle count.
        """
        return (
            self.cycles == other.cycles
            and self.instructions == other.instructions
            and self.output == other.output
            and self.sim_stats == other.sim_stats
            and self.cache_stats == other.cache_stats
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.cycles} cycles, {self.instructions} insts, "
            f"IPC {self.ipc:.2f}, {self.host_seconds:.2f}s host"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record; keys explicitly sorted (golden-tested)."""
        return {
            "cache_stats": self.cache_stats.as_dict(),
            "cycles": self.cycles,
            "host_seconds": self.host_seconds,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "name": self.name,
            "output": list(self.output),
            "sim_stats": self.sim_stats.as_dict(),
        }


def world_result(name: str, world, host_seconds: float, obs,
                 memo: Optional[MemoStats] = None) -> SimulationResult:
    """The result record of a run driven through *world* (a
    :class:`~repro.sim.world.World`), emitting the run's cycle,
    instruction and rollback gauges when *obs* is enabled."""
    frontend = world.frontend
    if obs.enabled:
        obs.gauge("sim.cycles", world.cycle)
        obs.gauge("sim.instructions", world.retired_instructions)
        obs.gauge("frontend.rollbacks", frontend.rollbacks)
    return SimulationResult(
        name=name,
        cycles=world.cycle,
        instructions=world.retired_instructions,
        output=list(world.program_output),
        sim_stats=world.stats,
        cache_stats=world.cache.stats,
        host_seconds=host_seconds,
        frontend_instructions=frontend.executed_instructions,
        rollbacks=frontend.rollbacks,
        memo=memo if memo is not None else MemoStats(),
    )
