"""What FSPC does with a damaged file beyond detecting it.

Detection itself — every truncation point, an appended byte, seeded
bit flips, errors naming record and offset — is container-level and
lives in tests/test_framing.py, parametrised over FSPC, FSSG and FSCJ.
Here: the salvage read (``strict=False``) rebuilds a consistent,
usable cache from whatever survived.
"""

import io

import pytest

from repro.branch import NotTakenPredictor
from repro.memo.persist import read_pcache, write_pcache
from repro.sim.fastsim import FastSim
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def blob():
    """A clean serialized cache from one real run."""
    sim = FastSim(load_workload("compress", "tiny"),
                  predictor=NotTakenPredictor())
    sim.run()
    buffer = io.BytesIO()
    write_pcache(sim.pcache, buffer)
    return buffer.getvalue()


def _equivalent(cache, reference) -> bool:
    return (len(cache) == len(reference)
            and cache.configs_allocated == reference.configs_allocated
            and cache.actions_allocated == reference.actions_allocated
            and set(cache.index) == set(reference.index))


class TestSalvage:
    def test_strict_false_still_usable(self, blob, tmp_path):
        """Salvage mode recovers a usable prefix from a damaged tail
        and a full cache from a clean file."""
        from repro.memo.persist import load_pcache

        path = tmp_path / "clean.fspc"
        path.write_bytes(blob)
        clean = load_pcache(path, strict=False)
        reference = read_pcache(io.BytesIO(blob))
        assert _equivalent(clean, reference)

        cut = tmp_path / "cut.fspc"
        cut.write_bytes(blob[: int(len(blob) * 0.75)])
        salvaged = load_pcache(cut, strict=False)
        # Whatever survived must be a consistent, rebuilt cache.
        assert salvaged.bytes_used == salvaged._measure()
        assert len(salvaged) <= len(reference)
