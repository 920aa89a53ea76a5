"""Executor backend tests: the cross-backend byte-identity matrix,
work-stealing, spawn-isolation semantics, and backend selection.

The matrix test is the tentpole invariant: every backend × cache
temperature merges the same canonical bytes as a serial cold run.
Capability differences (spawn isolation, stealing, no preemption) are
exercised where they are observable.
"""

import os

import pytest

from repro.api import run_campaign
from repro.campaign import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    Campaign,
    CampaignRunner,
    Job,
    JobResult,
    register_job_kind,
)
from repro.guard.faults import FaultPlan, clear_plan, install_plan

JOBS = tuple(
    Job(workload, "fast", "tiny")
    for workload in ("compress", "go", "tomcatv")
)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    clear_plan()


class TestByteIdentityMatrix:
    def test_all_backends_all_tiers_cold_and_warm(self, tmp_path):
        """fork/subprocess/queue × cold/warm all merge
        byte-identically to a serial cold run."""
        baseline = run_campaign(jobs=JOBS, workers=0, name="matrix")
        expected = baseline.canonical_json()
        for backend in BACKEND_NAMES:
            cache_dir = str(tmp_path / backend)
            for temperature in ("cold", "warm"):
                outcome = run_campaign(
                    jobs=JOBS, workers=2, cache_dir=cache_dir,
                    backend=backend, name="matrix",
                )
                assert outcome.ok, (
                    f"{backend} {temperature}: {outcome.failed}"
                )
                assert outcome.canonical_json() == expected, (
                    f"{backend} {temperature} diverged"
                )
                warm = [bool(r.metrics.get("warm_start"))
                        for r in outcome.results]
                assert warm == [temperature == "warm"] * len(JOBS)

    def test_backend_not_in_canonical_output(self):
        outcome = run_campaign(jobs=JOBS[:1], workers=1, backend="queue",
                               name="hidden")
        assert "queue" not in outcome.canonical_json()


def _nap(job, store, obs=None):
    import time

    time.sleep(float(job.scale))
    return JobResult(job=job, status="ok")


register_job_kind("test-nap", _nap)


class TestWorkStealing:
    def test_idle_worker_steals_behind_slow_job(self):
        """One slow job must not strand the quick jobs dealt behind it
        on the same deque — the idle sibling steals them."""
        jobs = [Job(workload="slowpoke", kind="test-nap", scale="1.0")]
        jobs += [
            Job(workload=f"quick-{i}", kind="test-nap", scale="0.0")
            for i in range(6)
        ]
        runner = CampaignRunner(workers=2, backend="queue")
        outcome = runner.run(Campaign(jobs=tuple(jobs), name="steal"))
        assert outcome.ok
        assert runner.backend_metrics["backend"] == "queue"
        # Round-robin dealing puts ~3 quick jobs behind the slow one;
        # the other worker drains its own deque in microseconds and
        # must steal at least one of them.
        assert runner.backend_metrics["steals"] >= 1
        # Stealing scrambles completion order; merge order must not be.
        assert [r.key for r in outcome.results] == [j.key for j in jobs]

    def test_steal_counter_mirrors_into_obs(self):
        """The backend's internal counter is authoritative; the obs
        counter is a shutdown-time mirror, so the two can never
        disagree (they used to: the obs bump only happened when obs
        was enabled, the internal count always)."""
        from repro.obs import make_observer

        jobs = [Job(workload="slowpoke", kind="test-nap", scale="0.5")]
        jobs += [
            Job(workload=f"quick-{i}", kind="test-nap", scale="0.0")
            for i in range(6)
        ]
        obs = make_observer()
        runner = CampaignRunner(workers=2, backend="queue", obs=obs)
        outcome = runner.run(Campaign(jobs=tuple(jobs), name="mirror"))
        assert outcome.ok
        steals = runner.backend_metrics["steals"]
        assert steals >= 1
        mirrored = obs.registry.counters["backend.queue.steals"].value
        assert mirrored == steals

    def test_queue_backend_enforces_deadlines_cooperatively(self):
        """No thread preemption, but deadlines are enforced: an
        expired running job is abandoned at the reap sweep (its lane
        replaced, its late result discarded) and reported as timed
        out — same contract the process backends give."""
        job = Job(workload="napper", kind="test-nap", scale="0.4")
        quick = Job(workload="quick", kind="test-nap", scale="0.0")
        runner = CampaignRunner(workers=2, timeout=0.05,
                                backend="queue")
        outcome = runner.run(Campaign(jobs=(job, quick),
                                      name="preempt"))
        assert not outcome.ok
        slow, fast = outcome.results
        assert slow.status == "failed"
        assert "timed out" in slow.error
        assert fast.ok
        assert runner.backend_metrics["timeouts"] >= 1


class TestSubprocessIsolation:
    def test_crash_once_is_retried_via_envelope_plan(self, tmp_path):
        """Spawn-isolated workers inherit nothing — the fault plan
        arrives in the job envelope, the injected crash kills one
        worker, and the engine retries on a fresh one."""
        job = JOBS[0]
        install_plan(FaultPlan(seed=0, crash_job=job.key,
                               scratch=str(tmp_path)))
        runner = CampaignRunner(workers=1, retries=2, backoff=0.01,
                                backend="subprocess")
        outcome = runner.run(Campaign(jobs=(job,), name="spawn-crash"))
        clear_plan()
        assert outcome.ok
        assert outcome.results[0].attempts == 2
        assert runner.backend_metrics["crashes"] == 1
        # The crash must match the clean run byte-for-byte.
        clean = run_campaign(jobs=(job,), workers=0, name="spawn-crash")
        assert outcome.canonical_json() == clean.canonical_json()

    def test_runtime_registered_kinds_fail_deterministically(self):
        """Test-registered kinds exist only in this process; a spawned
        worker reports them as unknown — a deterministic failure, not
        a retry loop."""
        job = Job(workload="ghost", kind="test-nap", scale="0.0")
        runner = CampaignRunner(workers=1, retries=3, backoff=0.01,
                                backend="subprocess")
        outcome = runner.run(Campaign(jobs=(job,), name="spawn-kind"))
        assert not outcome.ok
        assert outcome.results[0].attempts == 1
        assert "unknown job kind" in outcome.results[0].error


class TestBackendSelection:
    def test_job_level_backend_override_rejected(self):
        """A job has no backend field: placement is campaign-level,
        so the mistake is Python's own TypeError."""
        with pytest.raises(TypeError, match="backend"):
            Job(workload="compress", backend="queue")

    def test_unknown_backend_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            CampaignRunner(backend="bogus")
        with pytest.raises(ValueError, match="unknown executor backend"):
            run_campaign(jobs=JOBS[:1], backend="bogus")
        # A campaign is (jobs, name): placement is the runner's alone.
        with pytest.raises(TypeError, match="backend"):
            Campaign(jobs=JOBS[:1], backend="queue")

    def test_runner_backend_overrides_campaign(self):
        """The runner's backend is the one that runs; left unset it is
        the default."""
        campaign = Campaign(jobs=JOBS[:1], name="override")
        runner = CampaignRunner(workers=1, backend="queue")
        outcome = runner.run(campaign)
        assert outcome.ok
        assert runner.backend_metrics["backend"] == "queue"
        default = CampaignRunner(workers=1)
        assert default.run(campaign).ok
        assert default.backend_metrics["backend"] == DEFAULT_BACKEND

    def test_serial_path_ignores_backend(self):
        campaign = Campaign(jobs=JOBS[:1], name="serial")
        runner = CampaignRunner(workers=0, backend="subprocess")
        outcome = runner.run(campaign)
        assert outcome.ok
        assert runner.backend_metrics == {}
