"""Worker-side main loop of the subprocess backend's stdio protocol.

Run as ``python -m repro.campaign.backends.stdio_worker`` by
:class:`~repro.campaign.backends.stdio.SubprocessBackend`. Reads
length-framed pickled job envelopes from stdin, executes each through
:func:`repro.campaign.worker.execute_job` (the same single code path
every other backend drives — that sameness is the byte-identity
invariant's foundation), and writes the framed
:class:`~repro.campaign.jobs.JobResult` back on the *protocol* stream.

The protocol stream is a private dup of fd 1 taken at startup;
``sys.stdout`` is then rebound onto stderr so stray prints from job
code can never corrupt a frame. EOF on stdin is the clean shutdown
signal. An envelope's :class:`~repro.guard.faults.FaultPlan` (chaos
drills) is installed before the job runs — spawn isolation means
nothing is inherited, so everything arrives in the envelope — and an
installed plan's crash injection may ``os._exit`` this process, which
the parent observes as a dead pipe and retries.

When an envelope carries a ``heartbeat`` interval (protocol v3; set
when the engine supervises with ``hang_after``), a daemon thread
interleaves :data:`~repro.campaign.supervise.HEARTBEAT` frames with
the result on the protocol stream — under a shared write lock, so a
beat can never corrupt the result frame. The thread consults
:func:`~repro.guard.faults.hang_active` so an injected hang silences
the beats too (otherwise a wedged job with a healthy beat thread would
look alive forever).
"""

from __future__ import annotations

import os
import sys
import threading


def main() -> int:
    # Capture the protocol stream, then point fd 1 (and sys.stdout) at
    # stderr so job-side prints cannot interleave with frames.
    protocol_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    protocol_in = os.fdopen(os.dup(sys.stdin.fileno()), "rb")

    from repro.campaign.backends.stdio import read_frame, write_frame
    from repro.campaign.jobs import JobResult
    from repro.campaign.supervise import HEARTBEAT
    from repro.campaign.worker import execute_attempt
    from repro.guard import faults

    write_lock = threading.Lock()

    def _beat(interval: float, stop: threading.Event) -> None:
        while not stop.wait(interval):
            if faults.hang_active():
                continue  # an injected hang must look hung
            try:
                with write_lock:
                    write_frame(protocol_out, HEARTBEAT)
            except (OSError, ValueError):  # parent gone; job thread
                return  # will hit the same wall on its result frame

    while True:
        try:
            envelope = read_frame(protocol_in)
        except EOFError:
            return 0
        job = envelope["job"]
        plan = envelope["plan"]
        if plan is not None:
            faults.install_plan(plan)
        else:
            faults.clear_plan()
        interval = envelope["heartbeat"]
        stop = threading.Event()
        beater = None
        if interval is not None:
            beater = threading.Thread(target=_beat,
                                      args=(interval, stop), daemon=True)
            beater.start()
        try:
            # telemetry is None unless the parent observer is live
            # (the zero-overhead contract).
            result = execute_attempt(
                job, envelope["store"],
                telemetry=envelope["telemetry"],
                worker=f"spawn-{os.getpid()}",
                attempt=envelope["attempt"],
            )
        except BaseException as exc:  # the frame must go out or the
            # parent treats this worker as crashed — report what we can.
            result = JobResult(
                job=job, status="failed",
                error=f"worker error: {type(exc).__name__}: {exc}",
            )
        finally:
            stop.set()
            if beater is not None:
                beater.join(timeout=1.0)
        try:
            with write_lock:
                write_frame(protocol_out, result)
        except BrokenPipeError:
            # Parent died (e.g. the chaos drill SIGKILLs the engine
            # mid-campaign). Nothing to report to and nobody reaping —
            # exit quietly rather than tracebacking to stderr.
            return 1


if __name__ == "__main__":
    sys.exit(main())
