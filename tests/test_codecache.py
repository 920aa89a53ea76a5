"""The process-wide generated-source cache is bounded."""

from repro import codecache
from repro.branch import AlwaysTakenPredictor
from repro.emulator import threaded
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.functional import run_program
from repro.emulator.queues import ControlKind
from repro.isa import assemble

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
