"""What FSSG does with a damaged archive beyond detecting it.

That strict reads raise :class:`~repro.errors.SegStoreCorruptError` for
every truncation, appended byte and bit flip is container-level and
lives in tests/test_framing.py. The claim here is the stronger,
end-to-end one: "no damage can ever change simulated output" — install
recompiles every record from the live graph and digest-checks it, so
even a salvaged (or silently wrong) archive can at worst skip an
install and re-warm. The fallback-to-recompile half is drilled through
the campaign :class:`~repro.campaign.cachedir.CacheStore`, which
quarantines the damaged file and carries on.
"""

import io
import random

import pytest

from repro.campaign.cachedir import CacheStore
from repro.errors import SegStoreCorruptError
from repro.memo.persist import read_pcache, write_pcache
from repro.memo.segstore import capture, dumps, loads
from repro.sim.fastsim import FastSim
from repro.workloads import load_workload

FUZZ_SEED = 0x5EED


@pytest.fixture(scope="module")
def run():
    """One real turbo run: (executable, sim, canonical result)."""
    exe = load_workload("compress", "tiny")
    sim = FastSim(exe, turbo_threshold=2)
    result = sim.run()
    data = result.as_dict()
    data.pop("host_seconds", None)
    return exe, sim, data


@pytest.fixture(scope="module")
def blob(run):
    """A clean serialized archive from that run."""
    _, sim, _ = run
    data = dumps(capture(sim.pcache))
    assert len(data) > 50
    return data


def _canonical(result):
    data = result.as_dict()
    data.pop("host_seconds", None)
    return data


def _warm_pcache(sim):
    buffer = io.BytesIO()
    write_pcache(sim.pcache, buffer)
    buffer.seek(0)
    return read_pcache(buffer)


class TestTruncation:
    def test_salvage_never_wrong_on_truncation(self, run, blob):
        """Salvage mode: either the header itself is gone (raises, the
        store treats it as a miss) or damaged frames drop and survivors
        install — with byte-identical output either way."""
        exe, sim, reference = run
        step = max(1, len(blob) // 16)
        for cut in range(0, len(blob), step):
            try:
                archive = loads(blob[:cut], strict=False)
            except SegStoreCorruptError:
                archive = None
            warm = FastSim(exe, pcache=_warm_pcache(sim), turbo_threshold=2,
                           segstore=archive)
            assert _canonical(warm.run()) == reference


class TestBitFlips:
    def test_seeded_bit_flips_salvage_output_identical(self, run, blob):
        """The end-to-end claim: whatever a flip does to the archive,
        simulated output is byte-identical to the cold run."""
        exe, sim, reference = run
        rng = random.Random(FUZZ_SEED)
        for _ in range(16):
            offset = rng.randrange(len(blob))
            bit = rng.randrange(8)
            mutated = bytearray(blob)
            mutated[offset] ^= 1 << bit
            archive = loads(bytes(mutated), strict=False)
            warm = FastSim(exe, pcache=_warm_pcache(sim), turbo_threshold=2,
                           segstore=archive)
            assert _canonical(warm.run()) == reference


class TestStoreFallback:
    def test_corrupt_archive_quarantines_and_recompiles(self, run,
                                                        tmp_path):
        """A rotten .fsseg through the campaign store: miss, quarantine,
        recompile — byte-identical output."""
        from repro.memo.engine import run_signature
        from repro.uarch.params import ProcessorParams

        exe, sim, reference = run
        store = CacheStore(str(tmp_path))
        signature = run_signature(exe, ProcessorParams.r10k())
        store.store(signature, sim.pcache)
        store.store_segments(signature, capture(sim.pcache))
        path = store.seg_path_for(signature)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(data)
        assert store.load_segments(signature) is None
        assert any(name.endswith(".fsseg")
                   for name in store.quarantined)
        import os
        assert not os.path.exists(path)
        # The run carries on cold-compiled and byte-identical.
        warm = FastSim(exe, pcache=store.load(signature), turbo_threshold=2)
        assert _canonical(warm.run()) == reference

    def test_truncated_archive_quarantines(self, run, tmp_path):
        _, sim, _ = run
        store = CacheStore(str(tmp_path))
        signature = b"\x34" * 32
        store.store_segments(signature, capture(sim.pcache))
        path = store.seg_path_for(signature)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 3])
        assert store.load_segments(signature) is None
        assert store.load_segments(signature) is None  # stays a miss
