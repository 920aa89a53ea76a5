"""Deterministic fault injection — chaos testing for the memo pipeline.

Robustness claims that are never exercised rot. This module provides
*seeded* injectors for every corruption class the guard defends
against, so CI can prove end-to-end that a fault-riddled warm campaign
still produces canonical output byte-identical to a clean cold run
(see :mod:`repro.guard.chaos` and the ``fastsim-repro chaos`` CLI):

* **on-disk** — flip one bit or truncate at a seeded offset in
  persisted ``.fspc`` cache files (:func:`inject_disk_faults`); the
  FSPC v2 checksums turn these into
  :class:`~repro.errors.PCacheCorruptError` and the campaign
  :class:`~repro.campaign.cachedir.CacheStore` quarantines the file;
* **in-memory** — corrupt action nodes of a warm-loaded
  :class:`~repro.memo.pcache.PActionCache`
  (:func:`apply_memory_faults`), including a guaranteed-replayed
  forced divergence on the root chain, which the
  :class:`~repro.guard.engine.GuardedEngine` must detect and recover
  from;
* **worker crash** — kill the first attempt of one named campaign job
  (:func:`maybe_crash`), exercising the engine's retry path;
* **worker hang** — wedge the first attempt of one named job
  (:func:`maybe_hang`): the worker goes silent (heartbeats stop) for
  ``hang_seconds``, exercising the supervisor's hang detection and
  worker replacement;
* **engine kill** — die mid-campaign after N merged outcomes
  (:func:`maybe_kill_engine`), exercising the journal + resume path.

Everything is driven by a :class:`FaultPlan` installed process-wide
with :func:`install_plan`. Campaign workers are forked, so a plan
installed before :meth:`CampaignRunner.run` is inherited by every
worker; the hooks in :mod:`repro.campaign.worker` consult it. All
randomness is ``random.Random(seed)`` — the same plan injects the same
faults every time, including across worker retries (the crash marker
below is the one deliberately attempt-dependent element).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    LoadIssueNode,
    LoadPollNode,
    RetireNode,
    StoreIssueNode,
)
from repro.memo.pcache import PActionCache

#: Exit code used by the injected worker crash (visible in job-retry
#: progress events as ``worker crashed (exit code 86)``).
CRASH_EXIT_CODE = 86

#: Exit code used by the injected engine kill — distinct from the
#: worker code so the resume drill can assert *which* process died.
ENGINE_KILL_EXIT_CODE = 97


@dataclass(frozen=True)
class FaultPlan:
    """A seeded specification of faults to inject.

    ``seed`` drives every injector; two runs with the same plan inject
    identical faults. ``scratch`` is a directory for cross-attempt
    state (the worker-crash marker) — required when ``crash_job`` is
    set, ignored otherwise.
    """

    seed: int = 0
    #: Number of persisted cache files to hit with one bit flip each.
    disk_bit_flips: int = 0
    #: Number of persisted cache files to truncate.
    disk_truncations: int = 0
    #: Random in-memory node corruptions per warm-loaded cache.
    node_bit_flips: int = 0
    #: Corrupt the root chain of each warm-loaded cache so the very
    #: first guarded replay episode is guaranteed to diverge.
    force_divergence: bool = False
    #: ``Job.key`` whose first execution attempt calls ``os._exit``.
    crash_job: str = ""
    #: ``Job.key`` whose first execution attempt wedges: the worker
    #: stops heartbeating and sleeps ``hang_seconds`` (hang-once, same
    #: marker mechanism as ``crash_job``).
    hang_job: str = ""
    #: How long the injected hang sleeps. Keep well above the
    #: supervisor's ``hang_after`` so detection always wins the race.
    hang_seconds: float = 30.0
    #: Kill the campaign *engine* (``os._exit``) after this many
    #: outcomes have been merged and journaled; 0 disables.
    kill_engine_after: int = 0
    #: Directory for the crash-once / hang-once marker files.
    scratch: str = ""


# ----------------------------------------------------------------------
# Process-wide active plan (inherited by forked campaign workers)
# ----------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> None:
    """Activate *plan* for this process and all workers forked later."""
    global _ACTIVE
    _ACTIVE = plan


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or None."""
    return _ACTIVE


def clear_plan() -> None:
    """Deactivate fault injection."""
    global _ACTIVE, _HANG_ACTIVE
    _ACTIVE = None
    _HANG_ACTIVE = False


# ----------------------------------------------------------------------
# On-disk faults
# ----------------------------------------------------------------------

def _flip_bit(path: str, rng: random.Random) -> Dict[str, object]:
    with open(path, "rb") as stream:
        data = bytearray(stream.read())
    offset = rng.randrange(len(data))
    bit = rng.randrange(8)
    data[offset] ^= 1 << bit
    temp = path + ".fault"
    with open(temp, "wb") as stream:
        stream.write(bytes(data))
    os.replace(temp, path)
    return {"kind": "bit-flip", "file": os.path.basename(path),
            "offset": offset, "bit": bit}


def _truncate(path: str, rng: random.Random) -> Dict[str, object]:
    size = os.path.getsize(path)
    keep = rng.randrange(size)
    with open(path, "rb") as stream:
        data = stream.read(keep)
    temp = path + ".fault"
    with open(temp, "wb") as stream:
        stream.write(data)
    os.replace(temp, path)
    return {"kind": "truncate", "file": os.path.basename(path),
            "kept_bytes": keep, "original_bytes": size}


def inject_disk_faults(cache_root: str,
                       plan: FaultPlan) -> List[Dict[str, object]]:
    """Corrupt persisted ``.fspc`` files under *cache_root* per *plan*.

    Files are chosen round-robin over the sorted directory listing, so
    the same plan against the same store damages the same files at the
    same offsets. Returns one description per injected fault.
    """
    rng = random.Random(plan.seed)
    files = sorted(
        os.path.join(cache_root, name)
        for name in os.listdir(cache_root)
        if name.endswith(".fspc")
    )
    injected: List[Dict[str, object]] = []
    if not files:
        return injected
    cursor = 0
    for _ in range(plan.disk_bit_flips):
        injected.append(_flip_bit(files[cursor % len(files)], rng))
        cursor += 1
    for _ in range(plan.disk_truncations):
        injected.append(_truncate(files[cursor % len(files)], rng))
        cursor += 1
    return injected


# ----------------------------------------------------------------------
# In-memory faults (applied to a warm-loaded PActionCache)
# ----------------------------------------------------------------------

def _corrupt_node(node, rng: random.Random) -> Optional[str]:
    """Flip one bit in a node's recorded payload; returns a label."""
    if isinstance(node, RetireNode):
        request = node.request
        node.request = replace(
            request, count=request.count ^ 1 << rng.randrange(4))
        return "retire-count"
    if isinstance(node, AdvanceNode):
        node.delta ^= 1 << rng.randrange(4)
        return "advance-delta"
    if isinstance(node, (LoadIssueNode, LoadPollNode, StoreIssueNode)):
        node.ordinal ^= 1 << rng.randrange(3)
        return "ordinal"
    if isinstance(node, ConfigNode):
        blob = bytearray(node.blob)
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        node.blob = bytes(blob)
        return "config-blob"
    return None


def force_chain_divergence(cache: PActionCache) -> Optional[str]:
    """Corrupt the entry chain so the first replay episode diverges.

    Walks the first indexed configuration's chain (the root — the
    first configuration a run allocates — so a warm run is guaranteed
    to replay it) up to the first outcome node, which is the longest
    unconditionally-replayed prefix, and corrupts the first node with
    a payload there. Falls back to flipping the root's blob, which the
    guard's entry check catches. Returns a label, or None for an
    empty cache.
    """
    # Insertion order IS the recording order here — the first indexed
    # config is the root, which is what makes the divergence
    # guaranteed-replayed; sorting would lose that property.
    for config in cache.index.values():  # repro-lint: disable=det/dict-value-iteration
        node = config.next
        while node is not None and not node.is_outcome:
            if isinstance(node, RetireNode):
                request = node.request
                node.request = replace(request, count=request.count + 1)
                return "forced:retire-count"
            if isinstance(node, AdvanceNode):
                node.delta += 3
                return "forced:advance-delta"
            node = node.next
        blob = bytearray(config.blob)
        blob[-1] ^= 0x01
        config.blob = bytes(blob)
        return "forced:entry-blob"
    return None


def apply_memory_faults(cache: PActionCache,
                        plan: FaultPlan) -> List[str]:
    """Apply *plan*'s in-memory faults to a warm-loaded cache.

    Deterministic for a given (plan, cache file): node order comes
    from the persisted record order, the choices from the plan seed.
    Returns the labels of the corruptions performed.
    """
    applied: List[str] = []
    if plan.force_divergence:
        label = force_chain_divergence(cache)
        if label is not None:
            applied.append(label)
    if plan.node_bit_flips:
        rng = random.Random(plan.seed)
        nodes = [node for node in cache.reachable_nodes()
                 if not node.is_outcome or isinstance(
                     node, (LoadIssueNode, LoadPollNode, StoreIssueNode))]
        for _ in range(plan.node_bit_flips):
            if not nodes:
                break
            label = _corrupt_node(nodes[rng.randrange(len(nodes))], rng)
            if label is not None:
                applied.append(label)
    return applied


# ----------------------------------------------------------------------
# Worker crash
# ----------------------------------------------------------------------

def maybe_crash(job_key: str, plan: FaultPlan) -> None:
    """Kill this process if *plan* schedules a crash for *job_key*.

    Crash-once semantics: the first process to create the marker file
    (``O_CREAT | O_EXCL`` — atomic across the forked worker pool) dies
    with :data:`CRASH_EXIT_CODE`; every later attempt finds the marker
    and runs normally, so the campaign engine's retry succeeds.
    """
    if not plan.crash_job or plan.crash_job != job_key:
        return
    if not plan.scratch:
        return
    marker = os.path.join(
        plan.scratch, "crashed-" + plan.crash_job.replace(":", "_")
    )
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(CRASH_EXIT_CODE)


# ----------------------------------------------------------------------
# Worker hang
# ----------------------------------------------------------------------

_HANG_ACTIVE = False


def hang_active() -> bool:
    """True while this process is deliberately wedged by a hang fault.

    Worker heartbeat threads consult this and go silent, so an
    injected hang looks exactly like a wedged worker to the engine
    (a sleeping thread alone would keep beating).
    """
    return _HANG_ACTIVE


def maybe_hang(job_key: str, plan: FaultPlan) -> None:
    """Wedge this worker if *plan* schedules a hang for *job_key*.

    Hang-once semantics, same atomic marker as :func:`maybe_crash`:
    the first attempt stops heartbeating and sleeps
    ``plan.hang_seconds``; the retry finds the marker and runs
    normally. The supervisor must detect the silence (``hang_after``)
    and replace the worker long before the sleep ends.
    """
    global _HANG_ACTIVE
    if not plan.hang_job or plan.hang_job != job_key:
        return
    if not plan.scratch:
        return
    marker = os.path.join(
        plan.scratch, "hung-" + plan.hang_job.replace(":", "_")
    )
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    _HANG_ACTIVE = True
    try:
        import time

        time.sleep(plan.hang_seconds)
    finally:
        _HANG_ACTIVE = False


# ----------------------------------------------------------------------
# Engine kill (mid-campaign crash, exercising journal + resume)
# ----------------------------------------------------------------------

def maybe_kill_engine(merged_outcomes: int, plan: FaultPlan) -> None:
    """Kill the engine process once *merged_outcomes* reaches the plan.

    Called by the engine immediately after an outcome record is
    durably journaled, so a killed run leaves exactly
    ``kill_engine_after`` replayable outcomes behind.
    """
    if plan.kill_engine_after <= 0:
        return
    if merged_outcomes >= plan.kill_engine_after:
        os._exit(ENGINE_KILL_EXIT_CODE)

