"""Tests for p-action cache persistence."""

import hashlib
import io
import os
import shutil

import pytest

from repro import api
from repro.branch import NotTakenPredictor
from repro.errors import MemoizationError
from repro.memo.engine import run_signature
from repro.memo.persist import (
    load_pcache,
    read_pcache,
    save_pcache,
    write_pcache,
)
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.uarch.params import ProcessorParams
from repro.workloads import load_workload
from tests.memo.fixtures import (
    CUT_EVERY_ACTION_FSPC,
    CUT_EVERY_ACTION_SHA256,
)

WORKLOAD = "compress"


@pytest.fixture(scope="module")
def recorded():
    """A populated cache from one full run."""
    sim = FastSim(load_workload(WORKLOAD, "tiny"),
                  predictor=NotTakenPredictor())
    result = sim.run()
    return sim.pcache, result


def round_trip(cache):
    buffer = io.BytesIO()
    write_pcache(cache, buffer)
    buffer.seek(0)
    return read_pcache(buffer)


class TestRoundTrip:
    def test_structure_preserved(self, recorded):
        cache, _ = recorded
        restored = round_trip(cache)
        assert len(restored) == len(cache)
        assert restored.configs_allocated == cache.configs_allocated
        assert restored.actions_allocated == cache.actions_allocated
        assert set(restored.index) == set(cache.index)

    def test_bytes_reaccounted(self, recorded):
        cache, _ = recorded
        restored = round_trip(cache)
        assert restored.bytes_used == restored._measure()

    def test_restored_cache_replays_everything(self, recorded):
        """The headline: a persisted cache starts a new simulation
        fully warm and produces identical results."""
        cache, original_result = recorded
        restored = round_trip(cache)
        sim = FastSim(load_workload(WORKLOAD, "tiny"),
                      predictor=NotTakenPredictor(), pcache=restored)
        result = sim.run()
        assert result.timing_equal(original_result)
        assert result.memo.detailed_instructions == 0

    def test_file_round_trip(self, recorded, tmp_path):
        cache, original_result = recorded
        path = tmp_path / "memo.fspc"
        save_pcache(cache, path)
        restored = load_pcache(path)
        sim = FastSim(load_workload(WORKLOAD, "tiny"),
                      predictor=NotTakenPredictor(), pcache=restored)
        assert sim.run().timing_equal(original_result)


class TestBindingEnforced:
    def test_signature_survives(self, recorded):
        cache, _ = recorded
        restored = round_trip(cache)
        assert restored._bound_program == cache._bound_program

    def test_wrong_program_rejected_after_load(self, recorded):
        cache, _ = recorded
        restored = round_trip(cache)
        with pytest.raises(MemoizationError, match="different program"):
            FastSim(load_workload("go", "tiny"), pcache=restored).run()


class TestFileFromEarlierRecorder:
    """A cache written when every acting cycle cut a configuration holds
    a superset of today's keys, so a warm start over it is a hit."""

    def test_fixture_is_the_pinned_file(self):
        with open(CUT_EVERY_ACTION_FSPC, "rb") as stream:
            digest = hashlib.sha256(stream.read()).hexdigest()
        assert digest == CUT_EVERY_ACTION_SHA256

    def test_warm_start_replays_everything(self, tmp_path):
        executable = load_workload(WORKLOAD, "tiny")
        signature = run_signature(executable, ProcessorParams.r10k())
        shutil.copy(CUT_EVERY_ACTION_FSPC,
                    tmp_path / (signature.hex() + ".fspc"))
        result = api.simulate(executable, engine="fast",
                              cache_dir=str(tmp_path))
        assert result.memo.detailed_instructions == 0
        assert result.timing_equal(SlowSim(executable).run())


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(MemoizationError):
            read_pcache(io.BytesIO(b"NOPE" + bytes(16)))

    def test_truncated(self, recorded):
        from repro.errors import PCacheCorruptError

        cache, _ = recorded
        buffer = io.BytesIO()
        write_pcache(cache, buffer)
        blob = buffer.getvalue()
        with pytest.raises(PCacheCorruptError):
            read_pcache(io.BytesIO(blob[: len(blob) // 2]))

    def test_unversioned_file_is_unsupported_and_quarantined(self, tmp_path):
        """FSPC v1 (magic, then the node count where the sentinel now
        sits) is no longer read: it is damage like any other."""
        from repro.campaign.cachedir import QUARANTINE_SUFFIX, CacheStore
        from repro.errors import PCacheCorruptError

        v1 = b"FSPC" + (0).to_bytes(4, "big") + (0).to_bytes(2, "big")
        with pytest.raises(PCacheCorruptError, match="unsupported"):
            read_pcache(io.BytesIO(v1))
        with pytest.raises(PCacheCorruptError, match="unsupported"):
            read_pcache(io.BytesIO(v1), strict=False)
        store = CacheStore(tmp_path)
        signature = b"\x11" * 32
        with open(store.path_for(signature), "wb") as stream:
            stream.write(v1)
        assert store.load(signature) is None
        assert os.path.exists(store.path_for(signature)
                              + QUARANTINE_SUFFIX)

    def test_empty_cache_round_trips(self):
        from repro.memo.pcache import PActionCache

        restored = round_trip(PActionCache())
        assert len(restored) == 0
