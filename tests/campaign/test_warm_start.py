"""Warm-start cache-store tests.

The paper's replay invariant extended across processes: a FastSim run
seeded from a persisted p-action cache must produce the same simulated
timing as a cold run, with (nearly) everything replayed rather than
simulated in detail.
"""

import os
import pickle

from repro.api import run_campaign
from repro.campaign import CacheStore, Job
from repro.campaign.worker import simulate_executable
from repro.memo.engine import run_signature
from repro.uarch.params import ProcessorParams
from repro.workloads.suite import load_workload

JOB = Job("compress", "fast", "tiny")


class TestWarmStart:
    def test_warm_run_is_bit_identical_and_replays_everything(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_campaign(jobs=[JOB], workers=1,
                            cache_dir=cache_dir, name="warm")
        warm = run_campaign(jobs=[JOB], workers=1,
                            cache_dir=cache_dir, name="warm")
        # Simulated timing is part of the canonical payload, so this
        # asserts cycles/instructions/output equality in one shot.
        assert cold.canonical_json() == warm.canonical_json()
        cold_job, warm_job = cold.results[0], warm.results[0]
        assert "warm_start" not in cold_job.metrics
        assert warm_job.metrics["warm_start"] is True
        # Every instruction replays from the persisted cache.
        assert warm_job.result.memo.detailed_instructions == 0
        assert cold_job.result.memo.detailed_instructions > 0

    def test_store_file_keyed_by_run_signature(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(jobs=[JOB], workers=1, cache_dir=cache_dir,
                     name="sig")
        signature = run_signature(load_workload("compress", "tiny"),
                                  ProcessorParams.r10k())
        store = CacheStore(cache_dir)
        assert os.path.exists(store.path_for(signature))
        assert store.load(signature) is not None

    def test_unrelated_signature_misses(self, tmp_path):
        store = CacheStore(str(tmp_path))
        signature = run_signature(load_workload("go", "tiny"),
                                  ProcessorParams.r10k())
        assert store.load(signature) is None

    def test_corrupt_cache_file_treated_as_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(jobs=[JOB], workers=1, cache_dir=cache_dir,
                     name="corrupt")
        signature = run_signature(load_workload("compress", "tiny"),
                                  ProcessorParams.r10k())
        store = CacheStore(cache_dir)
        with open(store.path_for(signature), "wb") as handle:
            handle.write(b"not a cache file")
        assert store.load(signature) is None
        # And the engine still completes (falls back to a cold run).
        outcome = run_campaign(jobs=[JOB], workers=1,
                               cache_dir=cache_dir, name="corrupt")
        assert outcome.ok

    def test_store_skips_rewrite_when_nothing_new(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_campaign(jobs=[JOB], workers=1,
                            cache_dir=cache_dir, name="skip")
        warm = run_campaign(jobs=[JOB], workers=1,
                            cache_dir=cache_dir, name="skip")
        assert cold.results[0].metrics["cache_saved"] is True
        assert warm.results[0].metrics["cache_saved"] is False

    def test_bounded_policy_runs_stay_cold(self, tmp_path):
        """Eviction behaviour is the experiment — a bounded run must
        not warm-start or publish its (truncated) cache."""
        from repro.campaign import PolicySpec

        cache_dir = str(tmp_path / "cache")
        job = Job("compress", "fast", "tiny",
                  policy=PolicySpec("flush", 4096))
        outcome = run_campaign(jobs=[job], workers=1,
                               cache_dir=cache_dir, name="bounded")
        assert outcome.ok
        assert "warm_start" not in outcome.results[0].metrics
        assert CacheStore(cache_dir).entries() == []

    def test_inline_simulate_roundtrip(self, tmp_path):
        """simulate_executable drives the same store used by workers."""
        store = CacheStore(str(tmp_path))
        executable = load_workload("compress", "tiny")
        cold, cold_metrics = simulate_executable(executable, "fast",
                                                 store=store)
        warm, warm_metrics = simulate_executable(executable, "fast",
                                                 store=store)
        assert warm.cycles == cold.cycles
        assert warm_metrics["warm_start"] is True
        assert warm.memo.detailed_instructions == 0


class TestCacheStorePersistence:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(jobs=[JOB], workers=2, cache_dir=cache_dir,
                     name="atomic")
        store = CacheStore(cache_dir)
        leftovers = [name for name in os.listdir(store.root)
                     if not name.endswith((".fspc", ".fsseg"))]
        assert leftovers == []

    def test_pickleable_job_results(self):
        outcome = run_campaign(jobs=[JOB], workers=1, name="pickle")
        clone = pickle.loads(pickle.dumps(outcome.results[0]))
        assert clone.key == JOB.key
        assert clone.result.cycles == outcome.results[0].result.cycles
