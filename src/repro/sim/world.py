"""The world adapter — everything outside the memoized μ-architecture.

FastSim's p-action cache records how the μ-architecture simulator
interacts with the rest of the system; the :class:`World` is that rest:
the speculative direct-execution frontend, the cache simulator, the
simulation cycle counter, and the statistics. Both the detailed
recorder and the fast-forwarding replayer drive the *same* world
methods in the same order, which is why replay "produces exactly the
same results as the detailed simulation".

Every request the detailed model yields, other than the cycle
boundary and the end of the run, is answered by one method,
:meth:`World.answer`. SlowSim's cycle loop, the pipeline tracer that
rides on it and the sampling simulator's windows all call it; only the
memo engine's record loop dispatches inline, because it builds a node
per request kind in the same branch.

The world also owns the **queue cursors** that turn the
position-independent ordinals inside recorded actions into absolute
frontend-queue indices:

* ``lq_base`` / ``sq_base`` / ``cf_base`` count retired loads / stores /
  control instructions — an ordinal is relative to these;
* ``cf_fetched`` is the index of the next control record fetch will
  consume. The frontend is kept exactly **one control event ahead** of
  fetch (it runs when a consume leaves it level), which guarantees every
  instruction fetch can see has already been functionally executed and
  its ``lQ``/``sQ`` entries exist.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.branch.predictor import BimodalPredictor, BranchPredictor
from repro.cache.hierarchy import MemorySystem
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.queues import ControlRecord
from repro.errors import SimulationError
from repro.isa.program import Executable
from repro.uarch.interactions import (
    GetControl,
    IssueLoad,
    IssueStore,
    PollLoad,
    Retire,
    Rollback,
)
from repro.uarch.params import ProcessorParams


class SimStats:
    """Processor statistics, updated identically by record and replay."""

    __slots__ = (
        "cycles", "retired_instructions", "retired_loads", "retired_stores",
        "retired_branches", "retired_controls", "mispredictions",
        "squashed_entries",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        # Display-only; insertion order here is the fixed __slots__
        # order, never replay state.
        fields = ", ".join(
            f"{k}={v}" for k, v in
            self.as_dict().items()  # repro-lint: disable=det/dict-value-iteration
        )
        return f"SimStats({fields})"


class World:
    """Frontend + cache + cycle counter + cursors + statistics."""

    def __init__(
        self,
        executable: Executable,
        params: Optional[ProcessorParams] = None,
        predictor: Optional[BranchPredictor] = None,
        state=None,
        memory_system: Optional[MemorySystem] = None,
        frontend_max_instructions: Optional[int] = None,
        threaded_frontend: bool = True,
        l1_filter: bool = True,
    ):
        """*threaded_frontend* and *l1_filter* are host-side speed knobs
        (threaded-code block dispatch; DEW-style L1 load filter). Both
        default on and neither changes canonical results — they exist
        for ablation benchmarks."""
        self.params = params if params is not None else ProcessorParams.r10k()
        if predictor is None:
            predictor = BimodalPredictor(self.params.bht_entries)
        self.predictor = predictor
        # The frontend runs one control event ahead of fetch, so it can
        # hold one checkpoint beyond the pipeline's speculation limit.
        frontend_kwargs = {}
        if frontend_max_instructions is not None:
            frontend_kwargs["max_instructions"] = frontend_max_instructions
        self.frontend = SpeculativeFrontend(
            executable, predictor,
            bq_capacity=self.params.max_spec_branches + 1,
            state=state,
            threaded=threaded_frontend,
            **frontend_kwargs,
        )
        self.cache = (memory_system if memory_system is not None
                      else MemorySystem(self.params.memory,
                                        l1_filter=l1_filter))
        self.stats = SimStats()
        self.cycle = 0
        self.lq_base = 0
        self.sq_base = 0
        self.cf_base = 0
        self.cf_fetched = 0
        # Hot-path aliases: the frontend queues are append-only lists
        # truncated in place (``del list[n:]``), so their identities are
        # stable for the lifetime of the world.
        queues = self.frontend.queues
        self._lq = queues.loads
        self._sq = queues.stores
        self._sqw = queues.store_widths
        self._cf = queues.controls
        # Prime the frontend: one control event ahead of fetch.
        self._ensure_frontend_ahead()

    # ------------------------------------------------------------------

    def _ensure_frontend_ahead(self) -> None:
        controls = self._cf
        while len(controls) <= self.cf_fetched:
            self.frontend.run_one_event()

    def advance_cycles(self, count: int) -> None:
        """Advance simulated time (cycle boundaries / AdvanceCycles)."""
        self.cycle += count
        self.stats.cycles += count

    # -- control flow ----------------------------------------------------

    def get_control(self) -> ControlRecord:
        """Consume the next control record for fetch; keep one ahead."""
        controls = self._cf
        fetched = self.cf_fetched
        if fetched >= len(controls):
            raise SimulationError(
                "fetch consumed past the frontend "
                f"(index {fetched}, have {len(controls)})"
            )
        record = controls[fetched]
        self.cf_fetched = fetched + 1
        if len(controls) <= fetched + 1:
            self.frontend.run_one_event()
        return record

    # -- memory ------------------------------------------------------------

    def issue_load(self, ordinal: int) -> int:
        """Issue the load with iQ ordinal *ordinal* to the cache. Its
        cache key is its absolute lQ index."""
        index = self.lq_base + ordinal
        return self.cache.issue_load(index, self._lq[index], self.cycle)

    def poll_load(self, ordinal: int) -> int:
        """Poll a previously issued load; 0 = ready."""
        return self.cache.poll_load(self.lq_base + ordinal, self.cycle)

    def issue_store(self, ordinal: int) -> int:
        """Issue the store with iQ ordinal *ordinal* to the cache."""
        index = self.sq_base + ordinal
        return self.cache.issue_store(self._sq[index], self._sqw[index],
                                      self.cycle)

    # -- retirement and rollback ---------------------------------------------

    def retire(self, request: Retire) -> None:
        """Advance cursors and statistics for retired instructions."""
        self.lq_base += request.loads
        self.sq_base += request.stores
        self.cf_base += request.controls
        stats = self.stats
        stats.retired_instructions += request.count
        stats.retired_loads += request.loads
        stats.retired_stores += request.stores
        stats.retired_branches += request.branches
        stats.retired_controls += request.controls

    def rollback(self, request: Rollback) -> None:
        """A mispredicted branch resolved: roll the frontend back."""
        control_index = self.cf_base + request.control_ordinal
        record = self._cf[control_index]
        # Cancel cache bookkeeping for squashed (wrong-path) loads.
        self.cache.cancel_loads_from(record.lq_len)
        self.frontend.rollback_to(control_index)
        self.cf_fetched = control_index + 1
        self._ensure_frontend_ahead()
        stats = self.stats
        stats.mispredictions += 1
        stats.squashed_entries += (
            request.squashed_loads + request.squashed_stores
            + request.squashed_controls
        )

    # -- the one dispatch ----------------------------------------------------

    def answer(self, request):
        """Perform the world call *request* asks for; return its reply
        (None for :class:`Retire` and :class:`Rollback`).

        Kinds are tested in measured frequency order (go + fpppp at
        ``test``: Retire 56 %, PollLoad and IssueLoad 16 % each,
        GetControl 11 %, IssueStore 2 %, Rollback rare). A
        ``CycleBoundary`` or ``Finished`` is the caller's to handle, so
        it raises :class:`SimulationError` like any other object.
        """
        kind = type(request)
        if kind is Retire:
            self.retire(request)
            return None
        if kind is PollLoad:
            return self.poll_load(request.ordinal)
        if kind is IssueLoad:
            return self.issue_load(request.ordinal)
        if kind is GetControl:
            return self.get_control()
        if kind is IssueStore:
            return self.issue_store(request.ordinal)
        if kind is Rollback:
            self.rollback(request)
            return None
        raise SimulationError(f"no world call answers {request!r}")

    # ------------------------------------------------------------------

    @property
    def program_output(self):
        """Values the program emitted via ``out``."""
        return self.frontend.state.output
