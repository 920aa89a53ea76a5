"""Persistent compiled segments: capture/install semantics.

The safety contract (docs/performance.md): installing a segment
archive — any archive, including a stale or hostile one — can change
*when* segments get compiled, never *what* a run computes. Install
recompiles every record from the live graph and digest-checks it, so
the worst possible outcome of bad input is a skipped install.
"""

import io

from repro.memo.persist import read_pcache, write_pcache
from repro.memo.segstore import (
    SegmentArchive,
    capture,
    dumps,
    install,
    loads,
)
from repro.sim.fastsim import FastSim
from repro.workloads import load_workload


def _canonical(result):
    data = result.as_dict()
    data.pop("host_seconds", None)
    return data


def _cold_run(workload="compress"):
    exe = load_workload(workload, "tiny")
    sim = FastSim(exe, turbo_threshold=2)
    result = sim.run()
    return exe, sim, result


def _save_load(pcache):
    buffer = io.BytesIO()
    write_pcache(pcache, buffer)
    buffer.seek(0)
    return read_pcache(buffer)


class TestRoundTrip:
    def test_capture_install_round_trip(self):
        exe, sim, cold = _cold_run()
        archive = loads(dumps(capture(sim.pcache)))
        assert len(archive) > 0
        warm = FastSim(exe, pcache=_save_load(sim.pcache), turbo_threshold=2,
                       segstore=archive)
        result = warm.run()
        assert warm.segstore_stats["installed"] == len(archive)
        assert warm.segstore_stats["mismatched"] == 0
        assert _canonical(result) == _canonical(cold)

    def test_install_skips_warm_up_entirely(self):
        """Installed heads replay compiled from their first traversal."""
        exe, sim, _ = _cold_run()
        archive = capture(sim.pcache)
        warm = FastSim(exe, pcache=_save_load(sim.pcache), turbo_threshold=2,
                       segstore=archive)
        warm.run()
        snapshot = warm.pcache.turbo.snapshot()
        assert snapshot["segments_installed"] == len(archive)
        # Installation is not compilation: the honest compile counter
        # only counts segments this run paid to build.
        assert snapshot["segments_compiled"] < snapshot["segments_live"]

    def test_capture_only_live_segments(self):
        _, sim, _ = _cold_run()
        archive = capture(sim.pcache)
        table = sim.pcache.turbo
        live = sum(1 for segment in table.segments
                   if segment.nodes[0].seg is segment)
        assert 0 < len(archive) <= live


class TestInstallSafety:
    def test_node_count_mismatch_installs_nothing(self):
        exe, sim, _ = _cold_run()
        archive = capture(sim.pcache)
        wrong = SegmentArchive(archive.node_count + 1,
                               list(archive.records))
        warm = FastSim(exe, pcache=_save_load(sim.pcache), turbo_threshold=2,
                       segstore=wrong)
        result = warm.run()
        assert warm.segstore_stats == {
            "installed": 0, "stale": len(archive), "mismatched": 0}
        assert _canonical(result) == _canonical(_cold_run()[2])

    def test_flipped_digest_is_rejected(self):
        exe, sim, _ = _cold_run()
        archive = capture(sim.pcache)
        index, digest = archive.records[0]
        bad = bytes([digest[0] ^ 0x01]) + digest[1:]
        tampered = SegmentArchive(
            archive.node_count, [(index, bad)] + archive.records[1:])
        warm = FastSim(exe, pcache=_save_load(sim.pcache), turbo_threshold=2,
                       segstore=tampered)
        result = warm.run()
        assert warm.segstore_stats["mismatched"] == 1
        assert warm.segstore_stats["installed"] == len(archive) - 1
        assert _canonical(result) == _canonical(_cold_run()[2])

    def test_out_of_range_index_is_stale(self):
        exe, sim, _ = _cold_run()
        archive = capture(sim.pcache)
        hostile = SegmentArchive(
            archive.node_count,
            [(archive.node_count + 7, b"\x00" * 32)]
            + archive.records[1:])
        warm = FastSim(exe, pcache=_save_load(sim.pcache), turbo_threshold=2,
                       segstore=hostile)
        warm.run()
        assert warm.segstore_stats["stale"] == 1

    def test_cross_workload_archive_is_harmless(self):
        """An archive from a different program installs nothing wrong."""
        _, other_sim, _ = _cold_run("li")
        other = capture(other_sim.pcache)
        exe, sim, cold = _cold_run("compress")
        warm = FastSim(exe, pcache=_save_load(sim.pcache), turbo_threshold=2,
                       segstore=other)
        result = warm.run()
        assert warm.segstore_stats["installed"] == 0
        assert _canonical(result) == _canonical(cold)

    def test_install_without_turbo_table_is_noop(self):
        _, sim, _ = _cold_run()
        archive = capture(sim.pcache)
        bare = _save_load(sim.pcache)
        assert bare.turbo is None
        stats = install(archive, bare)
        assert stats == {"installed": 0, "stale": len(archive),
                         "mismatched": 0}


class TestEmptyArchive:
    def test_turbo_off_captures_nothing(self):
        exe = load_workload("compress", "tiny")
        sim = FastSim(exe, turbo=False)
        sim.run()
        archive = capture(sim.pcache)
        assert len(archive) == 0
        assert loads(dumps(archive)).records == []
