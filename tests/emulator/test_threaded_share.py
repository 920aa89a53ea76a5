"""``threaded_instructions`` counts generated code, not stepped bodies.

A block is stepped through ``Interpreter.step`` until it earns its
compile (``threaded.COMPILE_AFTER``), unless this process already holds
its code (:mod:`repro.codecache`). Only the runs of generated code count
towards ``block_runs`` and ``threaded_instructions``, so the share of
frontend instructions run as generated code reads 0 when nothing ever
compiles, and rises on a second run in the same process.
"""

from repro import codecache
from repro.emulator import threaded
from repro.sim.fastsim import FastSim
from repro.workloads import load_workload


def _frontend(name):
    sim = FastSim(load_workload(name, "tiny"))
    sim.run()
    return sim.world.frontend


def _share(frontend):
    stats = frontend.frontend_stats()
    return stats["threaded_instructions"] / frontend.executed_instructions


def test_nothing_compiled_reads_no_threaded_instructions(monkeypatch):
    monkeypatch.setattr(codecache, "_CODE_CACHE", {})
    monkeypatch.setattr(threaded, "COMPILE_AFTER", 10 ** 9)
    frontend = _frontend("compress")
    stats = frontend.frontend_stats()
    assert stats["blocks_decoded"] > 0
    assert stats["block_runs"] == 0
    assert stats["threaded_instructions"] == 0
    assert stats["fused_branches"] == 0


def test_second_run_in_process_reads_a_higher_share(monkeypatch):
    monkeypatch.setattr(codecache, "_CODE_CACHE", {})
    first = _share(_frontend("go"))
    second = _share(_frontend("go"))
    assert 0 < first < second <= 1
