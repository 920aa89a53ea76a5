"""Pluggable campaign executor backends.

The :class:`~repro.campaign.engine.CampaignRunner` schedules; a
backend places. Three ship in-tree (see docs/distributed.md for the
capability matrix and when to pick which):

* ``fork`` — today's default: one forked child per job attempt, full
  crash isolation, inherits test-registered kinds and fault plans;
* ``subprocess`` — persistent spawn-isolated workers, the same
  supervised-child mechanism as ``fork`` with a different launch step
  (both live in :mod:`repro.campaign.backends.process`);
* ``queue`` — in-process work-stealing threads with per-worker deques
  and steal-on-idle.

Selection is runner-level only (``CampaignRunner(backend=…)``,
``repro.api.run_campaign(backend=…)``, CLI ``--backend``); a job has
no backend of its own, and the backend — like ``turbo`` — is
excluded from every cache key, because it must never change canonical
output: merged :class:`~repro.campaign.engine.CampaignResult` bytes
are identical across backends, worker counts, and cache temperatures.
"""

from __future__ import annotations

from typing import Tuple

from repro.campaign.backends.base import (
    Attempt,
    AttemptOutcome,
    BackendContext,
    ExecutorBackend,
)


def _load(name: str) -> type:
    # Imports stay lazy: listing workloads or running one simulation
    # must not pay for multiprocessing / subprocess.
    if name == "queue":
        from repro.campaign.backends.queue import QueueBackend

        return QueueBackend
    from repro.campaign.backends import process

    return {"fork": process.ForkBackend,
            "subprocess": process.SubprocessBackend}[name]


#: Registered backend names, in documentation order.
BACKEND_NAMES: Tuple[str, ...] = ("fork", "subprocess", "queue")

#: The backend used when nothing selects one.
DEFAULT_BACKEND = "fork"


def validate_backend(name: str) -> str:
    """Return *name* if registered, else raise the canonical error."""
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown executor backend {name!r}; "
            f"choose from {list(BACKEND_NAMES)}"
        )
    return name


def make_backend(backend: str) -> ExecutorBackend:
    """Build an executor backend from its registered name."""
    return _load(validate_backend(backend))()


__all__ = [
    "Attempt",
    "AttemptOutcome",
    "BackendContext",
    "ExecutorBackend",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "make_backend",
    "validate_backend",
]
