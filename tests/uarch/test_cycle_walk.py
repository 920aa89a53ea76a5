"""The one-walk pipeline cycle against the two-walk cycle it replaced.

:func:`reference_cycle` is the cycle as two walks: one advancing the
executing entries (yielding the world requests), then a separate
issue/dispatch walk that accumulates both rename counts on every entry.
It lives here as the oracle, not as a second path. :func:`fused_cycle`
is what :meth:`DetailedSimulator.run` does between retire and fetch —
:func:`cycle_walk` plus the owner that completes the expiries it hands
back. Both run on copies of one iQ state with the same scripted world
replies, and must leave equal entries and fetch state, yield the same
requests and count the same unresolved branches.

States come from the suite's own instructions (every kind, the
serial-unit ones included) in every stage, timers 0-3 and both branch
bits; and from every cycle of real runs under ``r10k`` and ``tight``,
the configuration whose rename files run out. Two mutants of the walk
must be caught: one without the squash stop in the non-pipelined-unit
check, one that never counts rename registers.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instruction import QUEUE_ADDR
from repro.sim.slowsim import SlowSim
from repro.uarch import detailed
from repro.uarch.detailed import DetailedSimulator, _tally, cycle_walk
from repro.uarch.interactions import IssueLoad, IssueStore, PollLoad, Rollback
from repro.uarch.iq import CACHE, DONE, EXEC, FETCHED, QUEUE, STWAIT, IQEntry
from repro.uarch.trace import copy_entry
from repro.workloads import WORKLOAD_ORDER, load_workload
from tests.uarch.test_detailed_golden import CONFIGS

WALK_CONFIGS = ("r10k", "tight")


# -- the oracle ----------------------------------------------------------

def _serial_unit_busy(entries, unit):
    for entry in entries:
        if entry.stage is EXEC and entry.instr.static.serial_unit == unit:
            return True
    return False


def issue_and_dispatch(entries, limits):
    """Issue and dispatch over the already-advanced *entries*."""
    units, queue_sizes, int_rename_limit, fp_rename_limit, room = limits
    free = list(units)
    held = [0, 0, 0]
    int_renames = fp_renames = 0
    undone = 0
    unresolved = 0
    for entry in entries:
        stage = entry.stage
        facts = entry.instr.static
        if stage is DONE:
            int_renames += facts.int_dests
            fp_renames += facts.fp_dests
            continue
        if facts.is_cond:
            unresolved += 1
        queue = facts.queue
        if stage is FETCHED:
            if not room:
                continue
            if (held[queue] >= queue_sizes[queue]
                    or (facts.int_dests and int_renames >= int_rename_limit)
                    or (facts.fp_dests and fp_renames >= fp_rename_limit)):
                room = 0
                continue
            entry.stage = QUEUE
            room -= 1
            held[queue] += 1
        elif (stage is QUEUE and not facts.src_mask & undone and free[queue]
              and not (facts.serial_unit
                       and _serial_unit_busy(entries, facts.serial_unit))):
            entry.stage = EXEC
            entry.timer = facts.latency
            free[queue] -= 1
            if queue == QUEUE_ADDR:
                held[queue] += 1
        elif stage is QUEUE or queue == QUEUE_ADDR:
            held[queue] += 1
            if stage is STWAIT:
                continue
        int_renames += facts.int_dests
        fp_renames += facts.fp_dests
        undone |= facts.dst_mask
    return unresolved


def reference_cycle(sim, limits):
    """Advance every executing entry, then issue and dispatch."""
    entries = sim.iq.entries
    for index, entry in enumerate(entries):
        stage = entry.stage
        if stage is EXEC:
            entry.timer = timer = entry.timer - 1
            if timer > 0:
                continue
            facts = entry.instr.static
            if facts.is_load:
                interval = yield IssueLoad(_tally(entries[:index])[0])
                entry.stage = CACHE
                entry.timer = interval
            elif facts.is_store:
                interval = yield IssueStore(_tally(entries[:index])[1])
                entry.stage = STWAIT
                entry.timer = interval
            elif facts.is_cond and entry.mispredicted:
                entry.stage = DONE
                entry.pred_taken = taken = not entry.pred_taken
                entry.mispredicted = False
                control_ordinal = _tally(entries[:index])[2]
                squashed = entries[index + 1:]
                del entries[index + 1:]
                yield Rollback(control_ordinal, *_tally(squashed))
                instr = entry.instr
                sim.fetch_pc = instr.target if taken else instr.fall_through
                sim.fetch_stalled = False
                sim.fetch_halted = False
            else:
                entry.stage = DONE
                if (facts.is_indirect and sim.fetch_stalled
                        and index == len(entries) - 1):
                    sim.fetch_stalled = False
                    sim.fetch_pc = entry.jump_target
        elif stage is CACHE:
            entry.timer = timer = entry.timer - 1
            if timer <= 0:
                reply = yield PollLoad(_tally(entries[:index])[0])
                if reply == 0:
                    entry.stage = DONE
                else:
                    entry.timer = reply
        elif stage is STWAIT:
            entry.timer = timer = entry.timer - 1
            if timer <= 0:
                entry.stage = DONE
    return issue_and_dispatch(entries, limits)


# -- the walk under test, owned the way DetailedSimulator.run owns it ----

def fused_cycle(sim, limits):
    entries = sim.iq.entries
    walk = cycle_walk(entries, limits)
    try:
        index = next(walk)
        while True:
            entry = entries[index]
            facts = entry.instr.static
            older = _tally(entries[:index])
            reply = None
            if facts.is_load:
                reply = yield (PollLoad if entry.stage is CACHE
                               else IssueLoad)(older[0])
            elif facts.is_store:
                reply = yield IssueStore(older[1])
            elif facts.is_cond:
                yield Rollback(older[2], *_tally(entries[index + 1:]))
                sim.fetch_pc = entry.next_fetch_address()
                sim.fetch_stalled = sim.fetch_halted = False
            elif sim.fetch_stalled and index == len(entries) - 1:
                sim.fetch_stalled = False
                sim.fetch_pc = entry.next_fetch_address()
            index = walk.send(reply)
    except StopIteration as walked:
        return walked.value


def run_cycle(cycle, state, config, replies):
    """Run one *cycle* over a fresh copy of *state*, answering each
    request that has an outcome with the next of *replies* (cyclic).
    Returns everything the comparison looks at."""
    entries, fetch_pc, stalled, halted = state
    sim = DetailedSimulator(EXECUTABLE, CONFIGS[config])
    sim.restore([copy_entry(entry) for entry in entries], fetch_pc,
                stalled, halted)
    generator = cycle(sim, detailed.scan_limits(sim.params))
    requests = []
    outcome = None
    try:
        while True:
            request = generator.send(outcome)
            requests.append(repr(request))
            outcome = None
            if request.has_outcome:
                outcome = replies[len(requests) % len(replies)]
    except StopIteration as done:
        unresolved = done.value
    return (sim.iq.entries, sim.fetch_pc, sim.fetch_stalled,
            sim.fetch_halted, requests, unresolved)


def assert_same_cycle(state, config, replies=(0, 2, 1, 3)):
    assert run_cycle(fused_cycle, state, config, replies) == \
        run_cycle(reference_cycle, state, config, replies)


# -- states drawn from the suite's instructions --------------------------

#: Any executable will do for the simulator object: the walk reads only
#: the entries' own instructions.
EXECUTABLE = load_workload("go", "tiny")


def _instruction_kinds():
    """Up to three instructions of every kind the suite contains (class,
    serial unit, branch kind, destination files), so rare kinds — the
    multiply, the FP divide, the indirect jump — are drawn as often as
    additions."""
    kinds = {}
    for name in WORKLOAD_ORDER:
        executable = load_workload(name, "tiny")
        for address in range(executable.text_base,
                             executable.text_base + len(executable.text), 4):
            instr = executable.instruction_at(address)
            facts = instr.static
            key = (instr.iclass, facts.serial_unit, facts.is_cond,
                   facts.is_indirect, facts.int_dests, facts.fp_dests)
            bucket = kinds.setdefault(key, [])
            if len(bucket) < 3:
                bucket.append(instr)
    return [instr for bucket in kinds.values() for instr in bucket]


POOL = _instruction_kinds()


@st.composite
def iq_entries(draw):
    instr = draw(st.sampled_from(POOL))
    facts = instr.static
    stages = [FETCHED, QUEUE, EXEC, DONE]
    if facts.is_load:
        stages.append(CACHE)
    if facts.is_store:
        stages.append(STWAIT)
    entry = IQEntry(instr, stage=draw(st.sampled_from(stages)),
                    timer=draw(st.integers(0, 3)))
    if facts.is_cond:
        entry.pred_taken = draw(st.booleans())
        entry.mispredicted = draw(st.booleans())
    elif facts.is_indirect:
        entry.jump_target = instr.fall_through
    return entry


iq_states = st.tuples(
    st.lists(iq_entries(), max_size=32),
    st.sampled_from([None, EXECUTABLE.entry]),
    st.booleans(),
    st.booleans(),
)


def test_the_pool_has_every_kind_the_walk_treats_apart():
    facts = [instr.static for instr in POOL]
    assert {1, 2} <= {f.serial_unit for f in facts}
    for kind in ("is_load", "is_store", "is_cond", "is_indirect", "is_halt",
                 "int_dests", "fp_dests"):
        assert any(getattr(f, kind) for f in facts), kind


@pytest.mark.parametrize("config", WALK_CONFIGS)
@settings(max_examples=400, deadline=None)
@given(state=iq_states,
       replies=st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_fused_cycle_matches_the_two_walk_cycle(config, state, replies):
    assert_same_cycle(state, config, replies)


# -- states from real runs -----------------------------------------------

def harvest(name, config):
    """The iQ state at every cycle boundary of a ``tiny`` run."""
    slowsim = SlowSim(load_workload(name, "tiny"), CONFIGS[config])
    sim = slowsim.simulator
    return [([copy_entry(entry) for entry in sim.iq.entries],
             sim.fetch_pc, sim.fetch_stalled, sim.fetch_halted)
            for _ in slowsim.cycles()]


@pytest.fixture(scope="module")
def real_states():
    return {config: [state for name in ("go", "fpppp", "tomcatv")
                     for state in harvest(name, config)]
            for config in WALK_CONFIGS}


@pytest.mark.parametrize("config", WALK_CONFIGS)
def test_every_cycle_of_real_runs(real_states, config):
    for state in real_states[config]:
        assert_same_cycle(state, config)


# -- the rules the fused order must keep, and mutants that break them ----

def _instr(iclass_name, **facts):
    for instr in POOL:
        if instr.iclass.name == iclass_name and all(
                getattr(instr.static, key) == value
                for key, value in facts.items()):
            return instr
    raise LookupError(iclass_name)


def squash_case():
    """An older ready multiply in QUEUE; behind it a mispredicted branch
    that resolves this cycle and, behind that, a multiply with three
    cycles to go. The branch squashes the younger multiply before the
    two-walk cycle issues, so the unit is free."""
    mul = _instr("IMUL")
    branch = _instr("BRANCH", is_cond=True)
    return ([IQEntry(mul, stage=QUEUE),
             IQEntry(branch, stage=EXEC, timer=1, mispredicted=True),
             IQEntry(mul, stage=EXEC, timer=3)],
            None, False, False)


@pytest.mark.parametrize("config", WALK_CONFIGS)
def test_older_multiply_issues_past_a_squashed_one(config):
    state = squash_case()
    result = run_cycle(fused_cycle, state, config, (0,))
    entries = result[0]
    assert [entry.stage for entry in entries] == [EXEC, DONE]
    assert entries[0].timer == entries[0].instr.static.latency
    assert result[4] == [repr(Rollback(0, 0, 0, 0))]
    assert_same_cycle(state, config)


def test_a_younger_multiply_that_keeps_running_holds_the_unit():
    entries, *flags = squash_case()
    entries[1].mispredicted = False  # resolves, squashes nothing
    result = run_cycle(fused_cycle, (entries, *flags), "r10k", (0,))
    assert [entry.stage for entry in result[0]] == [QUEUE, DONE, EXEC]
    assert_same_cycle((entries, *flags), "r10k")


def mutant(function, old, new):
    """*function* recompiled from its source with *old* replaced."""
    source = inspect.getsource(function)
    assert old in source
    namespace = {}
    exec(source.replace(old, new), vars(detailed), namespace)
    return namespace[function.__name__]


def test_a_walk_without_the_squash_stop_is_caught(monkeypatch):
    monkeypatch.setattr(detailed, "_unit_taken", mutant(
        detailed._unit_taken,
        "            elif entry.instr.static.is_cond and entry.mispredicted:\n"
        "                return False  # it squashes everything younger\n",
        ""))
    with pytest.raises(AssertionError):
        assert_same_cycle(squash_case(), "r10k")


def test_a_walk_that_never_counts_renames_is_caught_on_tight(
        monkeypatch, real_states):
    monkeypatch.setattr(detailed, "_out_of_renames", lambda *args: False)
    missed = 0
    for state in real_states["tight"]:
        try:
            assert_same_cycle(state, "tight")
        except AssertionError:
            missed += 1
    assert missed > 0
    # Under r10k no rename file ever fills, so the mutant is invisible.
    for state in real_states["r10k"]:
        assert_same_cycle(state, "r10k")
