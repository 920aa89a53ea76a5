"""Entry point of a ``subprocess``-backend worker.

Run as ``python -m repro.campaign.backends.stdio_worker`` by
:class:`~repro.campaign.backends.process.SubprocessBackend`, with
stdin and stdout both the worker's end of a ``multiprocessing``
connection — the same wire format a forked child speaks. The loop
receives one ``(plan, kwargs)`` envelope per attempt, installs (or
clears) the :class:`~repro.guard.faults.FaultPlan` — spawn isolation
means nothing is inherited, so everything arrives in the envelope —
and hands the rest to :func:`repro.campaign.worker.serve_attempt`,
the harness a forked child runs too: heartbeats, the send lock and
"exactly one result goes back" live there, not here.

The connection is a private dup of fd 0 taken at startup; fd 1 and
``sys.stdout`` are then pointed at stderr so stray prints from job
code can never land in the middle of a message. The parent closing
(or dying on) its end is the shutdown signal. An installed plan's
crash injection may ``os._exit`` this process, which the parent sees
as a closed connection and retries.
"""

from __future__ import annotations

import os
import sys
from multiprocessing.connection import Connection


def main() -> int:
    connection = Connection(os.dup(sys.stdin.fileno()))
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr

    from repro.campaign.worker import serve_attempt
    from repro.guard import faults

    while True:
        try:
            plan, envelope = connection.recv()
        except (EOFError, OSError):
            # Parent done, or gone (the chaos drill SIGKILLs the engine
            # mid-campaign): nobody to report to, exit quietly.
            return 0
        if plan is not None:
            faults.install_plan(plan)
        else:
            faults.clear_plan()
        serve_attempt(connection, "spawn", **envelope)


if __name__ == "__main__":
    sys.exit(main())
