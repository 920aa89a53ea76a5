"""The process backends — one supervised-worker mechanism, two births.

``fork`` and ``subprocess`` both run each attempt in a child process
that sends its :class:`~repro.campaign.jobs.JobResult` home over a
``multiprocessing`` ``Connection``, and both are supervised by the one
:class:`_ProcessBackend` below: one slot record per child, one
``wait`` (``multiprocessing.connection.wait`` over the busy slots),
one :meth:`~_ProcessBackend.reap` ladder, one stop primitive (SIGKILL,
then reap the process: no failure rung and no ``shutdown`` waits on a
child it has not killed), one ``shutdown``. On the worker side both
run :func:`repro.campaign.worker.serve_attempt`.
What differs is the launch step, and what becomes of a slot after a
result:

* **fork** — one forked child per attempt. It inherits the parent's
  address space (test-registered job kinds, an installed
  :class:`~repro.guard.faults.FaultPlan`), costs a ``fork`` per job,
  and is closed and joined once its result is in. Warm state lives on
  disk in the cache store, so nothing is lost with the child.
* **subprocess** — persistent spawn-isolated interpreters (``python -m
  repro.campaign.backends.stdio_worker``) whose stdin/stdout are one
  end of the connection. A worker sees only importable state, so what
  a forked child inherits arrives in the envelope instead: ``(plan,
  kwargs)``, the active fault plan and :func:`serve_attempt`'s keyword
  arguments (job, ``StoreSpec``, ``TelemetrySpec`` or None, attempt
  number, heartbeat interval or None). Job kinds registered at runtime
  do not exist there and fail deterministically as unknown kinds. A
  worker goes idle after a result and is reused; a dead one is
  replaced lazily at the next submit.

The ladder, per busy slot and in this order: drain the connection —
heartbeats refresh ``last_beat``, anything else is the result; a
receive that fails (EOF, ``OSError``, an undecodable pickle) or a
process that is gone is a ``crash``; ``now >= deadline`` is a
``timeout``; ``now - last_beat >= hang_after`` is a ``hang`` (a slow
worker still beats, a wedged one does not). Every failure rung stops
the child with the same primitive and is the engine's cue to retry.
See docs/distributed.md and docs/robustness.md.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign.backends.base import (
    Attempt,
    AttemptOutcome,
    BackendContext,
    ExecutorBackend,
)
from repro.campaign.supervise import Heartbeat, heartbeat_interval
from repro.campaign.worker import serve_attempt
from repro.guard import faults

WORKER_MODULE = "repro.campaign.backends.stdio_worker"

#: Failure kind -> the counter it bumps.
_COUNTERS = {"crash": "crashes", "timeout": "timeouts", "hang": "hangs"}


@dataclass
class _Slot:
    """One child process, our end of its pipe, the attempt it runs.

    *process* answers ``pid`` / ``exitcode`` / ``kill()`` / ``join()``;
    *connection* answers ``poll()`` / ``recv()`` / ``send()`` /
    ``close()`` — the one substitution tests make is a connection
    whose ``recv`` raises.
    """

    process: object
    connection: object
    #: None while a persistent worker sits idle between jobs.
    attempt: Optional[Attempt] = None
    #: Monotonic time of the last liveness signal (submit, or the most
    #: recent heartbeat drained from the connection).
    last_beat: float = 0.0


class _Spawned(subprocess.Popen):
    """A ``Popen`` under the names ``multiprocessing.Process`` uses."""

    join = subprocess.Popen.wait
    exitcode = property(subprocess.Popen.poll)


class _ProcessBackend(ExecutorBackend):
    """Supervises child processes; subclasses say how one is born."""

    #: Counter names, in reporting order.
    COUNTERS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._context: Optional[BackendContext] = None
        self._slots: List[_Slot] = []
        self._counters: Dict[str, int] = dict.fromkeys(self.COUNTERS, 0)

    def _launch(self, envelope: Dict[str, object]) -> _Slot:
        """A slot in ``self._slots`` whose child is running
        ``serve_attempt(connection, label, **envelope)``."""
        raise NotImplementedError

    def _release(self, slot: _Slot) -> None:
        """The slot's result is in; a persistent worker just idles."""

    def _retire(self, slot: _Slot, kill: bool = True) -> None:
        """The stop primitive: SIGKILL the child, reap it, close up."""
        self._slots.remove(slot)
        if kill:
            slot.process.kill()
        slot.process.join()
        slot.connection.close()

    def _busy(self) -> List[_Slot]:
        return [slot for slot in self._slots if slot.attempt is not None]

    # -- ExecutorBackend ------------------------------------------------

    def start(self, context: BackendContext) -> None:
        self._context = context

    def capacity(self) -> int:
        return self._context.workers

    def active(self) -> int:
        return len(self._busy())

    def submit(self, attempt: Attempt) -> None:
        context = self._context
        # telemetry is None unless the parent observer is live (the
        # zero-overhead contract); heartbeat is None unless supervised.
        slot = self._launch(dict(
            job=attempt.job, store_spec=context.store_spec,
            telemetry=context.telemetry, attempt=attempt.attempt,
            heartbeat=heartbeat_interval(context.hang_after),
        ))
        slot.attempt = attempt
        slot.last_beat = time.monotonic()  # repro-lint: disable=det/time-dependent

    def wait(self, timeout: Optional[float]) -> None:
        busy = [slot.connection for slot in self._busy()]
        if busy:
            # timeout=None blocks until a worker sends something or
            # dies (its end closing makes the connection ready).
            multiprocessing.connection.wait(busy, timeout=timeout)
        elif timeout:
            time.sleep(timeout)

    def _poll(self, slot: _Slot,
              now: float) -> Tuple[object, Optional[str]]:
        """One slot's rung: ``(result, failure kind)``, both None while
        the attempt is still running."""
        try:
            while slot.connection.poll():
                message = slot.connection.recv()
                if not isinstance(message, Heartbeat):
                    return message, None
                slot.last_beat = now
        except (EOFError, OSError, pickle.UnpicklingError):
            return None, "crash"
        if slot.process.exitcode is not None:
            return None, "crash"
        deadline = slot.attempt.deadline
        if deadline is not None and now >= deadline:
            return None, "timeout"
        hang_after = self._context.hang_after
        if hang_after is not None and now - slot.last_beat >= hang_after:
            return None, "hang"
        return None, None

    def reap(self, now: float) -> List[AttemptOutcome]:
        outcomes: List[AttemptOutcome] = []
        context = self._context
        for slot in self._busy():
            result, kind = self._poll(slot, now)
            if result is None and kind is None:
                continue  # still running
            outcome = AttemptOutcome(
                attempt=slot.attempt, result=result, failure_kind=kind,
                worker=slot.process.pid,
            )
            slot.attempt = None
            if kind is None:
                self._release(slot)
            else:
                self._retire(slot)
                self._counters[_COUNTERS[kind]] += 1
                outcome.failure = {
                    "crash": ("worker crashed (exit code "
                              f"{slot.process.exitcode})"),
                    "timeout": f"timed out after {context.timeout}s",
                    "hang": ("worker hung (no heartbeat for "
                             f"{context.hang_after}s)"),
                }[kind]
            outcomes.append(outcome)
        return outcomes

    def shutdown(self) -> None:
        # Idle workers hold nothing (results are home, cache files are
        # written) and busy ones are being abandoned: kill them all.
        for slot in list(self._slots):
            self._retire(slot)

    def metrics(self) -> Dict[str, int]:
        return dict(self._counters)


class ForkBackend(_ProcessBackend):
    """The default: one forked child per attempt."""

    name = "fork"
    COUNTERS = ("forks", "crashes", "timeouts", "hangs")

    def start(self, context: BackendContext) -> None:
        super().start(context)
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._mp = multiprocessing.get_context()

    def _launch(self, envelope: Dict[str, object]) -> _Slot:
        receiver, sender = self._mp.Pipe(duplex=False)
        process = self._mp.Process(target=serve_attempt,
                                   args=(sender, "fork"), kwargs=envelope)
        process.start()
        sender.close()
        self._counters["forks"] += 1
        slot = _Slot(process, receiver)
        self._slots.append(slot)
        return slot

    def _release(self, slot: _Slot) -> None:
        # The child exits on its own once its result is sent.
        self._retire(slot, kill=False)


class SubprocessBackend(_ProcessBackend):
    """Persistent spawn-isolated workers, reused between attempts."""

    name = "subprocess"
    COUNTERS = ("spawns", "respawns", "dispatches",
                "crashes", "timeouts", "hangs")

    def _spawn(self) -> _Slot:
        # A spawned interpreter must find the repro package the same
        # way this process does, venv or source tree alike.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [path for path in sys.path if path]
        )
        ours, theirs = multiprocessing.Pipe()
        process = _Spawned([sys.executable, "-m", WORKER_MODULE],
                           stdin=theirs.fileno(), stdout=theirs.fileno(),
                           env=env)
        theirs.close()
        self._counters["spawns"] += 1
        slot = _Slot(process, ours)
        self._slots.append(slot)
        return slot

    def _launch(self, envelope: Dict[str, object]) -> _Slot:
        idle = [slot for slot in self._slots if slot.attempt is None]
        slot = next((slot for slot in idle
                     if slot.process.exitcode is None), None)
        if slot is None:
            if idle:  # died between jobs; replace them
                for dead in idle:
                    self._retire(dead)
                self._counters["respawns"] += 1
            slot = self._spawn()
        self._counters["dispatches"] += 1
        try:
            slot.connection.send((faults.active_plan(), envelope))
        except OSError:
            # Dead on arrival: reap() will find the closed connection
            # and report the crash for this attempt.
            pass
        return slot
