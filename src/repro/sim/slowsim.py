"""SlowSim — FastSim with memoization disabled (paper §5).

*"SlowSim is FastSim with memoization disabled — the fast-forwarding
simulator was turned off and no configurations were encoded or put in
the p-action cache."* It still uses speculative direct-execution, so
SlowSim / FastSim is exactly the speedup attributable to memoization
(Table 2), and SlowSim / SimpleScalar-surrogate is the speedup from
direct-execution alone (Table 3).

:meth:`SlowSim.cycles` is the one unmemoized cycle loop: :meth:`run`
and :class:`~repro.uarch.trace.PipelineTracer` (and so the profile)
iterate it, and every request it hands on goes through
:meth:`~repro.sim.world.World.answer`.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from repro.branch.predictor import BranchPredictor
from repro.errors import SimulationError
from repro.isa.program import Executable
from repro.obs.core import ensure_observer
from repro.sim.results import SimulationResult, world_result
from repro.sim.world import World
from repro.uarch.detailed import DetailedSimulator
from repro.uarch.interactions import CycleBoundary, Finished
from repro.uarch.params import ProcessorParams


class SlowSim:
    """Direct-execution out-of-order simulation, no memoization."""

    name = "SlowSim"

    def __init__(
        self,
        executable: Executable,
        params: Optional[ProcessorParams] = None,
        predictor: Optional[BranchPredictor] = None,
        obs=None,
    ):
        self.executable = executable
        self.params = params if params is not None else ProcessorParams.r10k()
        self.obs = ensure_observer(obs)
        self.world = World(executable, self.params, predictor)
        self.simulator = DetailedSimulator(executable, self.params)

    def cycles(self) -> Iterator[None]:
        """The unmemoized cycle loop, one yield per simulated cycle.

        Pumps :meth:`DetailedSimulator.run`, handing every request but
        the boundary and the end to :meth:`World.answer`. At each
        ``CycleBoundary`` it advances the clock and yields right after,
        so the cycle that just ended is ``world.cycle - 1`` and the iQ
        is still the boundary's. Returns at ``Finished``; a model that
        stops without it raises :class:`SimulationError`.
        """
        world = self.world
        answer = world.answer
        advance_cycles = world.advance_cycles
        step = self.simulator.run().send
        reply = None
        while True:
            try:
                request = step(reply)
            except StopIteration:
                raise SimulationError("detailed simulator ended unexpectedly")
            kind = type(request)
            if kind is CycleBoundary:
                advance_cycles(1)
                reply = None
                yield
            elif kind is Finished:
                return
            else:
                reply = answer(request)

    def run(self, max_cycles: int = 50_000_000) -> SimulationResult:
        """Simulate to completion; returns the result record."""
        world = self.world
        obs = self.obs
        obs_on = obs.enabled
        started = time.perf_counter()
        with obs.span("sim.run", cat="sim", simulator=self.name):
            for _ in self.cycles():
                if world.cycle > max_cycles:
                    raise SimulationError(
                        f"exceeded {max_cycles} simulated cycles"
                    )
                if obs_on:
                    obs.sample_pipeline(world.cycle, self.simulator.occupancy)
        elapsed = time.perf_counter() - started
        return world_result(self.name, world, elapsed, obs)
