"""The fork backend — one forked child process per job attempt.

This is the original campaign executor, extracted behind the
:class:`~repro.campaign.backends.base.ExecutorBackend` boundary. One
worker process runs one job and exits: that costs a ``fork`` per job
(cheap on the platforms this targets) and buys full crash isolation —
a dying worker fails one attempt, never the run — plus free
inheritance of parent-process state (test-registered job kinds, an
installed :class:`~repro.guard.faults.FaultPlan`). Warm state lives on
disk in the shared cache store, not in worker memory, so it survives
worker recycling and entire campaigns.

Capabilities: process isolation, hard timeout enforcement (terminate),
crash retry, plan/kind inheritance, heartbeat hang detection. When the
engine sets a ``hang_after`` budget, each child interleaves
:data:`~repro.campaign.supervise.HEARTBEAT` sentinels with its result
on the same pipe; a child silent for longer than the budget is
presumed wedged (not merely slow — a slow child still beats) and is
terminated with a ``worker hung`` failure, distinct from deadline
expiry. See docs/distributed.md and docs/robustness.md.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.campaign.backends.base import (
    Attempt,
    AttemptOutcome,
    BackendContext,
    ExecutorBackend,
)
from repro.campaign.supervise import Heartbeat, heartbeat_interval
from repro.campaign.worker import child_main


@dataclass
class _Slot:
    """One live worker process and the attempt it owns."""

    attempt: Attempt
    process: multiprocessing.Process
    connection: object
    #: Monotonic time of the last liveness signal (submit, or the most
    #: recent heartbeat drained from the pipe).
    last_beat: float = 0.0


class ForkBackend(ExecutorBackend):
    """Today's default: per-attempt forked workers over pipes."""

    name = "fork"

    def __init__(self) -> None:
        self._context: Optional[BackendContext] = None
        self._slots: List[_Slot] = []
        self._counters: Dict[str, int] = {"forks": 0, "crashes": 0,
                                          "timeouts": 0, "hangs": 0}

    def start(self, context: BackendContext) -> None:
        self._context = context
        # fork keeps test-registered job kinds (and any installed
        # fault plan) visible in workers and makes per-job process
        # spawn cheap.
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._mp = multiprocessing.get_context()

    def capacity(self) -> int:
        return self._context.workers

    def active(self) -> int:
        return len(self._slots)

    def submit(self, attempt: Attempt) -> None:
        receiver, sender = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=child_main,
            args=(sender, attempt.job, self._context.store_spec,
                  self._context.telemetry, attempt.attempt,
                  heartbeat_interval(self._context.hang_after)),
        )
        process.start()
        sender.close()
        self._counters["forks"] += 1
        self._slots.append(_Slot(
            attempt=attempt, process=process, connection=receiver,
            last_beat=time.monotonic(),  # repro-lint: disable=det/time-dependent
        ))

    def wait(self, timeout: Optional[float]) -> None:
        if self._slots:
            # timeout=None blocks until a worker sends a result or dies
            # (its pipe end closing makes the connection ready).
            multiprocessing.connection.wait(
                [slot.connection for slot in self._slots],
                timeout=timeout,
            )
        elif timeout:
            time.sleep(timeout)

    def reap(self, now: float) -> List[AttemptOutcome]:
        outcomes: List[AttemptOutcome] = []
        hang_after = self._context.hang_after
        for slot in list(self._slots):
            result = None
            failure = None
            kind = None
            deadline = slot.attempt.deadline
            # Drain heartbeats interleaved ahead of the result on the
            # same pipe; each one refreshes the slot's liveness clock.
            while result is None and failure is None \
                    and slot.connection.poll():
                try:
                    payload = slot.connection.recv()
                except (EOFError, OSError):
                    failure = "worker died mid-result"
                    kind = "crash"
                    self._counters["crashes"] += 1
                    break
                if isinstance(payload, Heartbeat):
                    slot.last_beat = now
                    continue
                result = payload
            if result is None and failure is None:
                if not slot.process.is_alive():
                    code = slot.process.exitcode
                    failure = f"worker crashed (exit code {code})"
                    kind = "crash"
                    self._counters["crashes"] += 1
                elif deadline is not None and now >= deadline:
                    slot.process.terminate()
                    self._counters["timeouts"] += 1
                    failure = f"timed out after {self._context.timeout}s"
                    kind = "timeout"
                elif (hang_after is not None
                        and now - slot.last_beat >= hang_after):
                    slot.process.terminate()
                    self._counters["hangs"] += 1
                    failure = (f"worker hung (no heartbeat for "
                               f"{hang_after}s)")
                    kind = "hang"
                else:
                    continue  # still running

            self._slots.remove(slot)
            slot.process.join()
            slot.connection.close()
            outcomes.append(AttemptOutcome(
                attempt=slot.attempt, result=result, failure=failure,
                failure_kind=kind, worker=slot.process.pid,
            ))
        return outcomes

    def shutdown(self) -> None:
        for slot in self._slots:  # interrupt path
            slot.process.terminate()
            slot.process.join()
            slot.connection.close()
        self._slots = []

    def metrics(self) -> Dict[str, int]:
        return dict(self._counters)
