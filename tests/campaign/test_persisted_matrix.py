"""The PR-10 byte-identity matrix.

Every host-side speed layer this package stacks — chain compilation
(turbo), persisted compiled segments, the generated-block frontend,
the direct-mapped L1 filter — and every executor backend must produce
the same canonical campaign document, byte for byte:

    {turbo off, turbo cold, turbo persisted-warm}
        x {L1 filter on, L1 filter off}
        x {fork, subprocess, queue}

The reference is the serial, turbo-off, filter-off run with the
frontend on the pure ``Interpreter.step()`` path — the slowest,
most-interpreted configuration — and every cell runs the frontend's
generated blocks, so each of the 18 proves the whole stack, direct
execution included, against the plain interpreted loops.
"""

import os

import pytest

from repro.api import run_campaign
from repro.campaign import Job
from repro.options import HostOptions

THRESHOLD = 2  # compile on the second traversal: tiny runs still fire

BACKENDS = ("fork", "subprocess", "queue")
FILTERS = (True, False)
MODES = ("turbo-off", "cold", "persisted-warm")


def _jobs(turbo: bool, l1_filter: bool, threaded_frontend: bool = True):
    return tuple(
        Job(workload, "fast", "tiny", host=HostOptions(
            turbo=turbo, turbo_threshold=THRESHOLD if turbo else None,
            l1_filter=l1_filter, threaded_frontend=threaded_frontend))
        for workload in ("compress", "li")
    )


@pytest.fixture(scope="module")
def reference():
    outcome = run_campaign(
        jobs=_jobs(turbo=False, l1_filter=False, threaded_frontend=False),
        workers=0, name="matrix")
    assert outcome.ok
    return outcome.canonical_json()


@pytest.fixture(scope="module")
def seeded_cache(tmp_path_factory):
    """A cache dir holding both the .fspc and its .fsseg sibling."""
    cache_dir = str(tmp_path_factory.mktemp("matrix-cache"))
    outcome = run_campaign(jobs=_jobs(turbo=True, l1_filter=True),
                           workers=0, cache_dir=cache_dir,
                           name="matrix-seed")
    assert outcome.ok
    names = os.listdir(cache_dir)
    assert any(name.endswith(".fspc") for name in names)
    assert any(name.endswith(".fsseg") for name in names)
    return cache_dir


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("l1_filter", FILTERS)
@pytest.mark.parametrize("mode", MODES)
def test_matrix_cell_byte_identical(mode, l1_filter, backend,
                                    reference, seeded_cache, tmp_path):
    if mode == "turbo-off":
        jobs = _jobs(turbo=False, l1_filter=l1_filter)
        cache_dir = None
    elif mode == "cold":
        jobs = _jobs(turbo=True, l1_filter=l1_filter)
        cache_dir = None
    else:  # persisted-warm: reuse the seeded .fspc + .fsseg pair
        jobs = _jobs(turbo=True, l1_filter=l1_filter)
        cache_dir = seeded_cache
    outcome = run_campaign(jobs=jobs, workers=2, backend=backend,
                           cache_dir=cache_dir, name="matrix")
    assert outcome.ok
    assert outcome.canonical_json() == reference


def test_persisted_warm_actually_installed(seeded_cache):
    """Identity must not be vacuous: the warm cell really installs
    persisted segments (visible in per-job metrics)."""
    outcome = run_campaign(jobs=_jobs(turbo=True, l1_filter=True),
                           workers=0, cache_dir=seeded_cache,
                           name="matrix-check")
    assert outcome.ok
    for result in outcome.results:
        assert result.metrics.get("warm_start") is True
        segstore = result.metrics.get("segstore")
        assert segstore is not None and segstore["installed"] > 0
