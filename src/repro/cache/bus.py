"""Split-transaction bus between L1, L2, and memory.

Table 1 specifies an "8 byte wide, split transaction bus". The model is
an occupancy timeline: each transfer reserves the earliest available
window of ``ceil(bytes / width)`` cycles at or after its request time.
Because the bus is split-transaction, the address request and the data
reply are separate reservations, and unrelated transfers can use the
bus in between.

The bus holds only *relative* scheduling state (the next-free cycle),
so steady-state loops produce repeating intervals — which is what lets
the p-action cache reuse load-latency outcome edges.
"""

from __future__ import annotations


class Bus:
    """Single shared bus with FIFO occupancy reservations."""

    def __init__(self, width_bytes: int = 8):
        self.width_bytes = width_bytes
        self._next_free = 0
        self.busy_cycles = 0
        self.transfers = 0

    def cycles_for(self, nbytes: int) -> int:
        """Occupancy in cycles for an *nbytes* transfer."""
        return max(1, (nbytes + self.width_bytes - 1) // self.width_bytes)

    def reserve(self, now: int, nbytes: int) -> int:
        """Reserve the bus for an *nbytes* transfer at or after *now*.

        Returns the cycle at which the transfer **completes**.
        """
        start = max(now, self._next_free)
        duration = self.cycles_for(nbytes)
        self._next_free = start + duration
        self.busy_cycles += duration
        self.transfers += 1
        return self._next_free

    def reset(self) -> None:
        """Forget the occupancy timeline; traffic counters stay."""
        self._next_free = 0

    def next_free(self) -> int:
        """The first cycle at which the bus is idle."""
        return self._next_free
