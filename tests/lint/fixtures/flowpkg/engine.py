"""Replay engine of the fixture package (entry-point suffix match)."""

from flowpkg.clockio import (
    clock_in_for,
    clock_in_if,
    clock_in_if_else,
    clock_in_try,
    clock_in_with,
    harmless,
    read_clock,
)
from flowpkg.pipeline import DetailedSimulator, redirect_fetch


class FastForwardEngine:
    """Matches the ``FastForwardEngine._replay`` entry suffix."""

    def __init__(self):
        self.sim = DetailedSimulator()
        self.budget = harmless()

    def _replay(self, entry):
        skew = read_clock()  # seeded flow/tainted-call
        redirect_fetch(self.sim)
        skew += clock_in_if_else(entry)  # seeded flow/tainted-call
        skew += clock_in_if(entry)  # seeded flow/tainted-call
        skew += clock_in_try()  # seeded flow/tainted-call
        skew += clock_in_with(self.sim)  # seeded flow/tainted-call
        skew += clock_in_for(self.budget)  # seeded flow/tainted-call
        if entry:
            # A nested call site is still one finding, not one per
            # enclosing statement.
            skew += read_clock()  # seeded flow/tainted-call
        return entry, skew


def bystander() -> float:
    """Unreachable from the entry points: calls the tainted helper but
    must produce no flow finding (reachability scoping)."""
    return read_clock()
