"""Helper module far from any replay-path allowlist."""

import time


def read_clock() -> float:
    """Returns a host-clock value — a nondeterminism source whose
    taint must follow the return value into the replay path."""
    return time.perf_counter()


def harmless() -> int:
    """Deterministic helper; must produce no findings."""
    return 42


# Five more shapes of the same taint, each returning — *after* a
# compound statement — a clock read assigned inside it. Statements are
# read in source order and a clean rebind on a sibling branch does not
# launder the name (``test_flow.py::TestFixtureFindings``).

def clock_in_if_else(flag: bool) -> float:
    if flag:
        stamp = time.monotonic()
    else:
        stamp = 0.0
    return stamp


def clock_in_if(flag: bool) -> float:
    stamp = 0.0
    if flag:
        stamp = time.monotonic()
    return stamp


def clock_in_try() -> float:
    try:
        stamp = time.monotonic()
    except OSError:
        stamp = 0.0
    return stamp


def clock_in_with(lock) -> float:
    with lock:
        stamp = time.monotonic()
    return stamp


def clock_in_for(rounds: int) -> float:
    stamp = 0.0
    for _ in range(rounds):
        stamp = time.monotonic()
    return stamp
