"""Miss Status Holding Registers.

An MSHR tracks one outstanding line fill. Requests to a line that is
already being fetched merge into the existing MSHR instead of issuing a
second fill (and complete when that fill completes). When all MSHRs are
busy, a new miss must wait until the earliest in-flight fill finishes —
the paper's model gives both cache levels 8 MSHRs, which is what bounds
the memory-level parallelism of the non-blocking caches.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SimulationError


class MSHRFile:
    """A file of *capacity* miss-status holding registers."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        #: line address -> completion cycle of the in-flight fill
        self._inflight: Dict[int, int] = {}
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._inflight)

    @property
    def full(self) -> bool:
        return len(self._inflight) >= self.capacity

    def clear(self) -> None:
        """Drop every in-flight fill (a new clock domain begins)."""
        self._inflight.clear()

    def lookup(self, line_addr: int) -> Optional[int]:
        """Completion cycle of an in-flight fill for *line_addr*, or None."""
        return self._inflight.get(line_addr)

    def merge(self, line_addr: int) -> int:
        """Attach another request to an in-flight fill."""
        try:
            completion = self._inflight[line_addr]
        except KeyError:
            raise SimulationError(
                f"no in-flight fill for line 0x{line_addr:x}"
            ) from None
        self.merges += 1
        return completion

    def allocate(self, line_addr: int, completion: int) -> None:
        """Track a new fill completing at cycle *completion*."""
        if self.full:
            raise SimulationError("MSHR file is full")
        if line_addr in self._inflight:
            raise SimulationError(
                f"duplicate MSHR for line 0x{line_addr:x}"
            )
        self._inflight[line_addr] = completion
        self.allocations += 1

    def earliest_completion(self) -> int:
        """Completion cycle of the fill that finishes first."""
        if not self._inflight:
            raise SimulationError("no in-flight fills")
        return min(self._inflight.values())

    def release_completed(self, now: int) -> None:
        """Retire every fill whose completion cycle has passed."""
        # Order-insensitive: the comprehension selects a *set* of lines
        # to delete; no recorded value depends on visit order.
        done = [line for line, when in self._inflight.items() if when <= now]  # repro-lint: disable=det/dict-value-iteration
        for line in done:
            del self._inflight[line]

    def next_slot_time(self, now: int) -> int:
        """Earliest cycle at which a free MSHR is available.

        When the file is full, the fill finishing first is retired and
        its completion cycle returned — the caller allocates *as of*
        that future cycle.
        """
        self.release_completed(now)
        if not self.full:
            return now
        self.full_stalls += 1
        when = self.earliest_completion()
        self.release_completed(when)
        return when
