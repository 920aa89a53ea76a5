"""CacheStore quarantine: corrupt files become visible misses."""

import io
import os
import pickle
import sys
import threading

import pytest

from repro.api import run_campaign
from repro.branch import NotTakenPredictor
from repro.campaign.cachedir import (
    QUARANTINE_SUFFIX,
    CacheStore,
    StoreSpec,
    make_store,
)
from repro.campaign.engine import Campaign, CampaignRunner
from repro.campaign.jobs import Job
from repro.campaign.progress import TextSink
from repro.guard.faults import FaultPlan, inject_disk_faults
from repro.memo.engine import run_signature
from repro.sim.fastsim import FastSim
from repro.uarch.params import ProcessorParams
from repro.workloads import load_workload


@pytest.fixture()
def populated(tmp_path):
    """A store holding one real persisted cache; returns
    (store_root, signature, reference_result)."""
    executable = load_workload("compress", "tiny")
    sim = FastSim(executable, predictor=NotTakenPredictor())
    result = sim.run()
    store = CacheStore(tmp_path)
    signature = run_signature(executable, ProcessorParams.r10k())
    store.store(signature, sim.pcache)
    return tmp_path, signature, result


def _corrupt_file(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x40
    path.write_bytes(bytes(data))


class TestQuarantine:
    def test_corrupt_file_is_renamed_and_reported(self, populated):
        root, signature, _ = populated
        path = root / (signature.hex() + ".fspc")
        _corrupt_file(path)

        stream = io.StringIO()
        store = CacheStore(root, sink=TextSink(stream))
        assert store.load(signature) is None
        assert not path.exists()
        assert path.with_suffix(".fspc" + QUARANTINE_SUFFIX).exists()
        assert store.quarantined == [signature.hex() + ".fspc"]
        assert any("WARNING:" in line and "cache-quarantined" in line
                   for line in stream.getvalue().splitlines())

    def test_quarantine_counts_in_obs(self, populated):
        from repro.obs import make_observer

        root, signature, _ = populated
        _corrupt_file(root / (signature.hex() + ".fspc"))
        obs = make_observer()
        store = CacheStore(root, obs=obs)
        store.load(signature)
        counter = obs.registry.counters["guard.cache_quarantined"]
        assert counter.value == 1

    def test_clean_load_untouched(self, populated):
        root, signature, _ = populated
        store = CacheStore(root)
        assert store.load(signature) is not None
        assert store.quarantined == []

    def test_missing_file_not_quarantined(self, populated):
        root, _, _ = populated
        store = CacheStore(root)
        assert store.load(b"\x00" * 32) is None
        assert store.quarantined == []

    def test_next_run_records_fresh_cache(self, populated):
        """After quarantine the signature slot is free: a warm-start
        miss records and persists a clean replacement."""
        root, signature, reference = populated
        _corrupt_file(root / (signature.hex() + ".fspc"))
        store = CacheStore(root)
        assert store.load(signature) is None

        executable = load_workload("compress", "tiny")
        sim = FastSim(executable, predictor=NotTakenPredictor())
        assert sim.run().timing_equal(reference)
        assert store.store(signature, sim.pcache)
        fresh = CacheStore(root)
        assert fresh.load(signature) is not None
        assert fresh.quarantined == []


class TestCampaignWithQuarantine:
    def test_warm_campaign_identical_despite_corruption(self, tmp_path):
        """A campaign whose warm store is corrupt produces canonical
        output byte-identical to its own cold run."""
        cache_dir = str(tmp_path / "store")
        campaign = Campaign(
            jobs=(Job(workload="compress", simulator="fast",
                      scale="tiny"),),
            name="quarantine-test",
        )
        cold = CampaignRunner(workers=0,
                              cache_dir=cache_dir).run(campaign)
        for path in (tmp_path / "store").glob("*.fspc"):
            _corrupt_file(path)
        warm = CampaignRunner(workers=0,
                              cache_dir=cache_dir).run(campaign)
        assert warm.canonical_json() == cold.canonical_json()
        bad = list((tmp_path / "store").glob("*" + QUARANTINE_SUFFIX))
        assert len(bad) == 1
        metrics = warm.results[0].metrics
        assert metrics.get("cache_quarantined")

    def test_every_entry_corrupt_two_workers(self, tmp_path):
        """Bit-flip *every* persisted entry, then run a parallel
        campaign whose workers concurrently hit the damage: each entry
        is quarantined, re-recorded cleanly, and the merged output
        matches a clean serial run."""
        jobs = tuple(Job(w, "fast", "tiny")
                     for w in ("compress", "li", "go"))
        baseline = run_campaign(jobs=jobs, workers=0, name="cw")
        cache_dir = str(tmp_path / "store")
        run_campaign(jobs=jobs, workers=0, cache_dir=cache_dir,
                     name="seed")
        entries = CacheStore(cache_dir).entries()
        assert len(entries) == len(jobs)
        faults = inject_disk_faults(
            cache_dir, FaultPlan(seed=7, disk_bit_flips=len(entries)))
        assert len(faults) == len(entries)
        outcome = run_campaign(jobs=jobs, workers=2, cache_dir=cache_dir,
                               name="cw")
        assert outcome.ok
        assert outcome.canonical_json() == baseline.canonical_json()
        bagged = sorted(name for name in os.listdir(cache_dir)
                        if name.endswith(QUARANTINE_SUFFIX))
        assert bagged == [hexsig + ".fspc" + QUARANTINE_SUFFIX
                          for hexsig in entries]
        for result in outcome.results:
            assert result.metrics["cache_quarantined"]
            assert "warm_start" not in result.metrics
        # Every slot was re-recorded: the next run starts warm.
        repopulated = CacheStore(cache_dir)
        assert repopulated.entries() == entries
        rerun = run_campaign(jobs=jobs, workers=2, cache_dir=cache_dir,
                             name="cw")
        assert all(r.metrics.get("warm_start") for r in rerun.results)
        assert repopulated.quarantined == []


class TestConcurrentWriters:
    def test_threads_storing_one_signature_leave_one_loadable_file(
            self, populated):
        """Writer-unique temp names + atomic replace: any number of
        threads may store the same binding at once."""
        root, signature, _ = populated
        cache = CacheStore(root).load(signature)
        os.unlink(root / (signature.hex() + ".fspc"))
        store = CacheStore(root)
        writers = 8
        barrier = threading.Barrier(writers)
        written = []

        def write():
            barrier.wait(timeout=30)
            for _ in range(5):
                written.append(store.store(signature, cache))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write)
                       for _ in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert written == [True] * (writers * 5)
        assert sorted(os.listdir(root)) == [signature.hex() + ".fspc"]
        fresh = CacheStore(root)
        assert fresh.load(signature) is not None
        assert fresh.quarantined == []


class TestStoreSpec:
    def test_build_matches_configuration(self, tmp_path):
        assert StoreSpec().build() is None
        assert make_store(None) is None
        assert not StoreSpec()
        flat = StoreSpec(cache_dir=str(tmp_path / "flat")).build()
        assert isinstance(flat, CacheStore)

    def test_spec_is_picklable(self, tmp_path):
        spec = StoreSpec(cache_dir=str(tmp_path / "flat"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert isinstance(clone.build(), CacheStore)
