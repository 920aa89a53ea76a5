"""repro.guard — trust, but verify the memoization pipeline.

FastSim's performance rests on replaying recorded p-action chains
instead of re-simulating. That makes the p-action cache *load-bearing
state*: a corrupted node — on disk, in memory, or injected by a bug —
silently becomes wrong published numbers. This package defends the
bit-identical invariant in depth:

* :class:`GuardedEngine` — a drop-in :class:`FastForwardEngine` that
  audits sampled replay episodes in lockstep against a fresh detailed
  simulator, and on divergence quarantines the corrupt chain and falls
  back to detailed simulation (degrade, never crash, never emit
  un-audited wrong numbers);
* :mod:`repro.guard.faults` — seeded, deterministic fault injectors
  (disk bit-flips/truncation, in-memory node corruption, forced
  divergence, worker crashes/hangs, engine kills) behind a
  :class:`FaultPlan`;
* :mod:`repro.guard.chaos` — the end-to-end chaos drills: prove a
  fault-riddled warm campaign produces output byte-identical to a
  clean cold run (the ``fastsim-repro chaos`` CLI), and prove a
  SIGKILL'd journaled engine resumes to the same bytes
  (:func:`run_resume_drill`, ``fastsim-repro chaos --resume-drill``).

The integrity-checked FSPC v2 persistence format itself lives in
:mod:`repro.memo.persist`; see docs/robustness.md for the threat model
and how the layers compose.
"""

from repro.guard.engine import DivergenceReport, GuardedEngine
from repro.guard.faults import (
    CRASH_EXIT_CODE,
    ENGINE_KILL_EXIT_CODE,
    FaultPlan,
    active_plan,
    apply_memory_faults,
    clear_plan,
    force_chain_divergence,
    hang_active,
    inject_disk_faults,
    install_plan,
    maybe_crash,
    maybe_hang,
    maybe_kill_engine,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ENGINE_KILL_EXIT_CODE",
    "DivergenceReport",
    "FaultPlan",
    "GuardedEngine",
    "active_plan",
    "apply_memory_faults",
    "clear_plan",
    "force_chain_divergence",
    "hang_active",
    "inject_disk_faults",
    "install_plan",
    "maybe_crash",
    "maybe_hang",
    "maybe_kill_engine",
]
