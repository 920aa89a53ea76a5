"""The process-wide generated-source cache is bounded, and a block
whose source it already holds runs generated code from its first
decode."""

from repro import codecache
from repro.branch import AlwaysTakenPredictor
from repro.emulator import threaded
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.functional import run_program
from repro.emulator.queues import ControlKind
from repro.isa import assemble
from repro.sim.fastsim import FastSim
from repro.workloads.suite import load_workload
from tests.emulator.test_threaded import cold_runs

LOOP = """
main:
    mov 30, %l0
    clr %l1
loop:
    add %l1, %l0, %l1
    subcc %l0, 1, %l0
    bne loop
    out %l1
    halt
"""


def _flood(count, tag):
    for k in range(count):
        fn = codecache.load(f"def f():\n return {tag!r}, {k}\n",
                            "<test>", "f")
        assert fn() == (tag, k)
        assert len(codecache._CODE_CACHE) <= codecache.MAX_ENTRIES


def test_cap_holds_and_a_block_compiled_before_the_drop_still_runs(
        monkeypatch):
    monkeypatch.setattr(codecache, "_CODE_CACHE", {})
    monkeypatch.setattr(codecache, "MAX_ENTRIES", 8)
    monkeypatch.setattr(threaded, "COMPILE_AFTER", 1)
    exe = assemble(LOOP)
    frontend = SpeculativeFrontend(exe, AlwaysTakenPredictor())
    for _ in range(5):
        frontend.run_one_event()
    assert frontend.frontend_stats()["fused_branches"] == 5
    block_sources = set(codecache._CODE_CACHE)
    assert block_sources and all(
        source.startswith(threaded.BLOCK_HEADER) for source in block_sources)

    _flood(3 * codecache.MAX_ENTRIES, "a")
    assert not block_sources & set(codecache._CODE_CACHE)     # dropped

    # The loop's event function was compiled before the drop and is
    # what keeps running: it holds its own code object.
    while frontend.run_one_event().kind is not ControlKind.HALT:
        _flood(2, frontend.executed_instructions)
        if frontend.bq.outstanding():      # the mispredicted loop exit
            frontend.rollback_to(frontend.bq.outstanding()[0])
    assert frontend.frontend_stats()["fused_branches"] >= 29
    assert frontend.state.output == run_program(exe).output == [465]

    # A dropped source simply compiles again on its next load.
    source = next(iter(block_sources))
    code_before = len(codecache._CODE_CACHE)
    assert callable(codecache.load(source, "<test>", "_blk",
                                   dict(frontend._blocks._namespace)))
    assert source in codecache._CODE_CACHE
    assert len(codecache._CODE_CACHE) in (1, code_before + 1)


def test_same_source_compiles_once():
    source = "def f():\n return 41 + 1\n"
    first = codecache.load(source, "<test>", "f")
    second = codecache.load(source, "<test>", "f")
    assert first is not second            # a namespace each...
    assert first.__code__ is second.__code__    # ...one code object
    assert first() == second() == 42


def _controls(sim):
    return [(r.outcome_key, r.lq_len, r.sq_len)
            for r in sim.world.frontend.queues.controls]


def _generated(sim):
    return {pc for pc, (fn, *_rest) in sim.world.frontend._blocks.blocks
            .items() if fn is not None and fn.__name__ == "_blk"}


def test_a_second_run_starts_every_hot_block_compiled(monkeypatch):
    """In one process the second FastSim run of a program decodes each
    block the first run compiled straight to its generated function —
    no cold run — and gives the same results and control records."""
    monkeypatch.setattr(codecache, "_CODE_CACHE", {})
    runs = cold_runs(monkeypatch)
    exe = load_workload("perl", "tiny")
    first = FastSim(exe)
    reference = first.run()
    hot = _generated(first)
    assert hot
    assert all(runs[pc] == threaded.COMPILE_AFTER - 1 for pc in hot)

    runs.clear()
    second = FastSim(exe)
    result = second.run()
    assert hot <= _generated(second)
    assert not any(runs[pc] for pc in hot)
    assert result.timing_equal(reference)
    assert result.as_dict()["output"] == reference.as_dict()["output"]
    assert _controls(second) == _controls(first)
