"""FastSim — speculative direct-execution plus memoized μ-architecture.

The complete system of the paper: the speculative frontend records
``lQ``/``sQ``/control-flow queues while the μ-architecture simulator's
behaviour is recorded into — and fast-forwarded from — the p-action
cache. Produces **exactly** the same cycle counts and statistics as
:class:`~repro.sim.slowsim.SlowSim` (asserted by the test suite), an
order of magnitude faster on loop-heavy code.

A :class:`~repro.memo.PActionCache` can be shared across runs (pass
``pcache=``) to start a run fully warm, and a replacement policy bounds
its memory (paper §4.3)::

    from repro import FastSim, assemble
    from repro.memo import FlushOnFullPolicy

    exe = assemble(source)
    result = FastSim(exe, policy=FlushOnFullPolicy(1 << 20)).run()

Pass ``audit_every=N`` (optionally with ``audit_seed``) to run under
the :class:`~repro.guard.GuardedEngine`, which audits sampled replay
episodes against detailed re-execution and quarantines corrupted
chains instead of replaying them (see docs/robustness.md).

Chain compilation of hot replay paths (:mod:`repro.memo.compile`) is
on by default; pass ``turbo=False`` to force the interpreted replay
loop, or ``turbo_threshold=N`` to tune the compile threshold (the
keywords of ``HostOptions.turbo`` / ``turbo_threshold``; see
docs/performance.md). Both modes are bit-identical.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.branch.predictor import BranchPredictor
from repro.isa.program import Executable
from repro.memo.engine import FastForwardEngine
from repro.memo.pcache import PActionCache
from repro.memo.policies import ReplacementPolicy
from repro.obs.core import ensure_observer
from repro.sim.results import SimulationResult, world_result
from repro.sim.world import World
from repro.uarch.params import ProcessorParams


class FastSim:
    """Memoized out-of-order simulation (the paper's full system)."""

    name = "FastSim"

    def __init__(
        self,
        executable: Executable,
        params: Optional[ProcessorParams] = None,
        predictor: Optional[BranchPredictor] = None,
        policy: Optional[ReplacementPolicy] = None,
        pcache: Optional[PActionCache] = None,
        obs=None,
        audit_every: Optional[int] = None,
        audit_seed: int = 0,
        turbo: bool = True,
        turbo_threshold: Optional[int] = None,
        threaded_frontend: bool = True,
        l1_filter: bool = True,
        segstore=None,
    ):
        """*threaded_frontend* / *l1_filter* toggle the host-side speed
        layers (threaded-code dispatch, DEW-style L1 filter) — both
        default on, neither changes canonical results. *segstore*
        optionally carries persisted compiled segments
        (:class:`repro.memo.segstore.SegmentArchive`) installed into the
        p-cache before the run — see docs/performance.md."""
        self.executable = executable
        self.params = params if params is not None else ProcessorParams.r10k()
        self.obs = ensure_observer(obs)
        self.world = World(executable, self.params, predictor,
                           threaded_frontend=threaded_frontend,
                           l1_filter=l1_filter)
        self.segstore = segstore
        #: Install counters from the persisted-segment archive
        #: (set by :meth:`run` when *segstore* was given).
        self.segstore_stats = None
        if audit_every is not None:
            from repro.guard.engine import GuardedEngine

            self.engine = GuardedEngine(
                executable, self.world, pcache=pcache, policy=policy,
                obs=self.obs, audit_every=audit_every,
                audit_seed=audit_seed, turbo=turbo,
                turbo_threshold=turbo_threshold,
            )
        else:
            self.engine = FastForwardEngine(
                executable, self.world, pcache=pcache, policy=policy,
                obs=self.obs, turbo=turbo, turbo_threshold=turbo_threshold,
            )

    @property
    def pcache(self) -> PActionCache:
        """The p-action cache (reusable across FastSim instances)."""
        return self.engine.cache

    def run(self, max_cycles: int = 50_000_000) -> SimulationResult:
        """Simulate to completion; returns the result record."""
        # Host wall-clock feeds the *host-time* result fields only
        # (docs/performance.md); no simulated state ever reads it.
        started = time.perf_counter()  # repro-lint: disable=det/time-dependent
        if self.segstore is not None and self.segstore_stats is None:
            from repro.memo.segstore import install

            self.segstore_stats = install(self.segstore, self.engine.cache)
        with self.obs.span("sim.run", cat="sim", simulator=self.name):
            memo = self.engine.run(max_cycles)
        elapsed = time.perf_counter() - started  # repro-lint: disable=det/time-dependent
        world = self.world
        frontend = world.frontend
        result = world_result(self.name, world, elapsed, self.obs, memo)
        if self.obs.enabled:
            self.obs.gauge("memo.pcache_peak_bytes", self.pcache.peak_bytes)
            for name, value in sorted(frontend.frontend_stats().items()):
                self.obs.gauge(f"frontend.{name}", value)
            for name, value in sorted(world.cache.filter_stats().items()):
                self.obs.gauge(f"cache.filter.{name}", value)
            if self.segstore_stats is not None:
                for name, value in sorted(self.segstore_stats.items()):
                    self.obs.gauge(f"turbo.segstore.{name}", value)
        return result
