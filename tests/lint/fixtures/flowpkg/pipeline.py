"""Pipeline state class + a helper in another module that replay
reaches (the call graph's cross-module edge)."""


class DetailedSimulator:
    """Pipeline state, written via self."""

    def __init__(self):
        self.iq = None
        self.fetch_pc = 0
        self.fetch_stalled = False
        self.fetch_halted = False


def redirect_fetch(sim: DetailedSimulator) -> None:
    """Writes the fetch PC from *outside* the class; clean."""
    sim.fetch_pc = 0
