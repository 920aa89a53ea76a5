"""A call budget that needs no clock.

Python-level calls are what the replay path pays for in fixed costs,
and under ``sys.setprofile`` they are a count that repeats exactly from
run to run (CPython 3.11 counts a comprehension as a frame, which is
the point: a list rebuilt per store shows). Four budgets:

* **the ports** — on its common path a ``MemorySystem`` port is a leaf:
  a filter-hit load and its poll, a store that finds a free slot and an
  L2-resident line, a cancel with nothing outstanding each make *zero*
  nested Python-level calls; misses, merges and a partial slot expiry
  still go through the helpers, and every reply is what the reference
  port assembled from those helpers gives
  (``tests/cache/test_flat_ports.py``);
* **the whole run** — a warm replay's calls per retired instruction
  stay within 5 % of what the change that introduced this file
  measured;
* **the record path** — growing the graph is a leaf too:
  ``PActionCache.alloc_action`` (with or without the link it folds in)
  / ``attach`` / a ``lookup`` hit make zero nested calls and
  ``alloc_config`` only builds its node, all of them leaving the
  cache's counters where the helper composition they replaced
  (:class:`ReferenceCache`, kept here) leaves them; and a run whose
  cache keeps being flushed stays within 1.05 × the frames per detailed
  cycle it cost when that budget was set;
* **the detailed pipeline** — one walk over the iQ per cycle: the
  bytecodes ``uarch/detailed.py`` executes per simulated cycle of a
  SlowSim run stay under 0.75 × what the two-walk cycle cost. Bytecodes,
  counted under ``sys.settrace`` with ``f_trace_opcodes``, repeat
  exactly too.

Run with ``-s`` to see the per-layer call table.
"""

import collections
import os
import sys

import pytest

import repro
from repro import codecache
from repro.cache.hierarchy import MemorySystem
from repro.errors import MemoizationError
from repro.memo.actions import (
    EDGE_BYTES,
    AdvanceNode,
    ConfigNode,
    ControlNode,
    LoadIssueNode,
    RetireNode,
)
from repro.memo.pcache import PActionCache
from repro.memo.policies import FlushOnFullPolicy
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.uarch import detailed
from repro.uarch.config_codec import config_size_bytes
from repro.uarch.interactions import Retire
from repro.workloads.suite import load_workload
from tests.cache.test_flat_ports import ReferencePort
from tests.memo.test_pcache import make_blob

ROOT = os.path.dirname(repro.__file__) + os.sep


class CallCounter:
    """Counts Python-level calls while active; ``by_layer`` keys are
    the first directory (or module) under ``repro/``."""

    def __init__(self):
        self.total = 0
        self.by_layer = collections.Counter()

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code is not _EXIT:
            self.total += 1
            filename = frame.f_code.co_filename
            if filename.startswith(ROOT):
                filename = filename[len(ROOT):].split(os.sep)[0]
            else:  # generated code ("<repro.turbo segment>"), stdlib
                filename = os.path.basename(filename)
            self.by_layer[filename] += 1

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


_EXIT = CallCounter.__exit__.__code__  # runs with the profiler still on


def nested_calls(port, method, *args):
    """(reply, Python-level calls made from inside the port method)."""
    with CallCounter() as counter:
        reply = getattr(port, method)(*args)
    return reply, counter.total - 1  # the port method's own frame


class Lockstepped:
    """A flat port and the reference, driven with the same requests."""

    def __init__(self):
        self.flat = MemorySystem()
        self.reference = ReferencePort(self.flat.params)

    def call(self, method, *args):
        reply, nested = nested_calls(self.flat, method, *args)
        assert reply == getattr(self.reference, method)(*args)
        assert self.flat.stats == self.reference.stats
        return nested


class TestPortsAreLeaves:
    LINE = 0x4000

    def warmed(self):
        """Both levels hold ``LINE``; nothing is in flight."""
        ports = Lockstepped()
        assert ports.call("issue_load", 0, self.LINE, 0) > 0   # miss
        ports.call("poll_load", 0, 500)
        assert ports.call("issue_load", 1, self.LINE, 600) > 0  # probe hit
        ports.call("poll_load", 1, 700)
        return ports

    def test_filter_hit_loads_and_their_polls(self):
        ports = self.warmed()
        for n in range(50):
            now = 1000 + 3 * n
            assert ports.call("issue_load", 10 + n,
                              self.LINE + 4 * (n % 8), now) == 0
            assert ports.call("poll_load", 10 + n, now + 1) == 0
        assert ports.flat.filter_hits == 50

    def test_stores_that_find_the_previous_slot_expired(self):
        ports = self.warmed()
        for n in range(50):  # L1 hit, L2 hit, one expired slot
            assert ports.call("issue_store", self.LINE + 8, 4,
                              1000 + 10 * n) == 0
        # The L1 does not allocate on a store miss, the L2 does — through
        # the fill helpers, as does retiring that fill's MSHR later.
        other = self.LINE + 0x2000
        assert ports.call("issue_store", other, 8, 2000) > 0
        assert ports.call("issue_store", other, 8, 2500) > 0
        for n in range(50):  # L1 miss, L2 hit, one expired slot
            assert ports.call("issue_store", other, 8, 3000 + 10 * n) == 0
        assert ports.flat.stats.l1_store_misses == 52
        assert ports.flat.stats.store_buffer_stalls == 0

    def test_eight_stores_in_one_cycle_and_the_stall_after_them(self):
        ports = self.warmed()
        for n in range(8):  # inside the buffer's capacity
            assert ports.call("issue_store", self.LINE + 4 * n, 4,
                              1000) == 0
        assert ports.flat.stats.store_buffer_stalls == 0
        # The ninth waits for the earliest slot — still a leaf: the
        # slot minimum is kept beside the list.
        assert ports.call("issue_store", self.LINE, 4, 1000) == 0
        assert ports.flat.stats.store_buffer_stalls == 1

    def test_cancel_with_nothing_outstanding(self):
        ports = self.warmed()
        assert ports.call("cancel_loads_from", 0) == 0

    def test_uncommon_paths_still_go_through_the_helpers(self):
        ports = self.warmed()
        other = self.LINE + 0x100
        assert ports.call("issue_load", 5, other, 1000) > 0       # miss
        assert ports.call("issue_load", 6, other + 4, 1001) > 0   # merge
        assert ports.call("cancel_loads_from", 6) > 0  # one outstanding
        # Partial expiry: three slots complete at 2001..2003; at 2002
        # one has expired and two have not, so the list is filtered.
        for n in range(3):
            ports.call("issue_store", self.LINE, 4, 2000)
        assert ports.call("issue_store", self.LINE, 4, 2002) == 1
        assert sorted(ports.flat._store_slots) == sorted(
            ports.reference._store_slots)
        # An L2 miss allocates through the fill helpers.
        assert ports.call("issue_store", 0x900000, 4, 3000) > 0


#: Python-level calls per retired instruction of a warm third pass at
#: ``test`` scale and compile threshold 1, as measured when the budget
#: was set (the commit before: compress 3.0368, tomcatv 3.3476).
MEASURED = {"compress": 2.3015, "tomcatv": 2.1417}


@pytest.mark.parametrize("name", sorted(MEASURED))
def test_warm_run_call_budget(name):
    executable = load_workload(name, "test")
    pcache = PActionCache()
    for _ in range(2):  # record, then compile along a full replay
        FastSim(executable, pcache=pcache, turbo_threshold=1).run()
    compiled = pcache.turbo.segments_compiled

    sim = FastSim(executable, pcache=pcache, turbo_threshold=1)
    with CallCounter() as counter:
        result = sim.run()

    assert result.memo.detailed_instructions == 0
    assert pcache.turbo.segments_compiled == compiled
    calls = counter.total
    per_instruction = calls / result.instructions
    print(f"\n{name}: {calls} calls / {result.instructions} retired = "
          f"{per_instruction:.4f} (budget {1.05 * MEASURED[name]:.4f})")
    for layer, count in counter.by_layer.most_common(12):
        print(f"  {layer:28s} {count:8d}")
    assert per_instruction <= 1.05 * MEASURED[name]


# -- the record path -----------------------------------------------------

class ReferenceCache(PActionCache):
    """``PActionCache``'s graph-growth methods as the composition of
    helpers they were before they became leaves — the specification the
    flat methods are compared with."""

    def _account(self, nbytes):
        self.bytes_used += nbytes
        if self.bytes_used > self.peak_bytes:
            self.peak_bytes = self.bytes_used

    def account_edge(self, node):
        if len(node.edges) > 1:
            self._account(EDGE_BYTES)

    def lookup(self, blob):
        node = self.index.get(blob)
        if node is not None:
            self.touch(node)
            self.last_lookup_blob = blob
        return node

    def alloc_config(self, blob):
        if blob in self.index:
            raise MemoizationError("configuration already allocated")
        node = ConfigNode(blob, config_size_bytes(blob))
        self.index[blob] = node
        self.configs_allocated += 1
        self._account(node.size_bytes())
        self.touch(node)
        return node

    def alloc_action(self, node, point=None):
        self.actions_allocated += 1
        self._account(node.size_bytes())
        self.touch(node)
        self.attach(point, node)
        return node

    def attach(self, point, node):
        if point is None:
            return
        parent, key = point
        if key is None:
            if parent.is_outcome:
                raise MemoizationError("needs an edge key")
            parent.next = node
        else:
            if not parent.is_outcome:
                raise MemoizationError("cannot hold outcome edges")
            parent.edges[key] = node
            self.account_edge(parent)
        self.graph_generation += 1


class ForgetsThePeak(ReferenceCache):
    def _account(self, nbytes):
        self.bytes_used += nbytes


class ChargesTheFirstEdge(ReferenceCache):
    def account_edge(self, node):
        self._account(EDGE_BYTES)


class SkipsTheTouch(ReferenceCache):
    def alloc_action(self, node, point=None):
        self.actions_allocated += 1
        self._account(node.size_bytes())
        self.attach(point, node)
        return node


class DropsTheFoldedLink(ReferenceCache):
    def alloc_action(self, node, point=None):
        return super().alloc_action(node)


COUNTERS = ("bytes_used", "peak_bytes", "touch_clock", "graph_generation",
            "actions_allocated", "configs_allocated")


def growth(cache):
    """One recording's worth of graph growth on *cache* — two
    configurations with a flush between them (bytes fall below the
    peak), plain and keyed attaches, a first, a second and an
    overwritten edge, a lookup hit and a miss. Returns, per cache call,
    ``(method, nested Python-level calls, counters after)`` and, last,
    every node's touch stamp."""
    steps = []

    def call(method, *args):
        with CallCounter() as counter:
            reply = getattr(cache, method)(*args)
        steps.append((method, counter.total - 1,  # the method's own frame
                      [getattr(cache, name) for name in COUNTERS]))
        return reply

    first = call("alloc_config", make_blob(1))
    chain = [first]
    for delta in (1, 2, 3):
        node = call("alloc_action", AdvanceNode(delta))
        call("attach", (chain[-1], None), node)
        chain.append(node)
    retire = call("alloc_action", RetireNode(Retire(2, 1, 0, 0, 1)))
    load = call("alloc_action", LoadIssueNode(0))
    call("attach", (chain[-1], None), load)
    call("attach", (load, 3), chain[1])
    call("attach", (load, 7), chain[2])
    call("attach", (load, 7), chain[3])
    cache.bytes_used = 0  # what a flush does to the accounting
    second = call("alloc_config", make_blob(2))
    control = call("alloc_action", ControlNode())
    call("attach", (control, ("taken", 4)), second)
    # The recorder's one call per action: allocated and linked at once,
    # plain, as a first edge and as a charged second edge.
    folded = [call("alloc_action", AdvanceNode(5), (second, None))]
    folded.append(call("alloc_action", LoadIssueNode(1),
                       (folded[-1], None)))
    folded.append(call("alloc_action", AdvanceNode(6), (folded[1], 2)))
    folded.append(call("alloc_action", AdvanceNode(7), (folded[1], 9)))
    assert call("lookup", make_blob(2)) is second
    assert cache.last_lookup_blob == make_blob(2)
    assert call("lookup", make_blob(9)) is None
    call("attach", None, first)
    steps.append([node.touch_gen for node in
                  chain + [retire, load, second, control] + folded])
    return steps


class TestGrowingTheGraphIsALeaf:
    def test_flat_methods_match_the_helper_composition(self):
        flat = growth(PActionCache())
        reference = growth(ReferenceCache())
        assert flat[-1] == reference[-1]
        assert any(peak > used for _, _, (used, peak, *_) in flat[:-1])
        for (method, nested, counters), (_, _, want) in zip(flat[:-1],
                                                            reference):
            assert counters == want, method
            # A configuration builds its node at the model's size;
            # nothing else calls anything.
            assert nested == (2 if method == "alloc_config" else 0), method

    @pytest.mark.parametrize("mutant", [ForgetsThePeak, ChargesTheFirstEdge,
                                        SkipsTheTouch,
                                        DropsTheFoldedLink])
    def test_a_broken_reference_is_noticed(self, mutant):
        assert growth(mutant()) != growth(ReferenceCache())

    def test_checks_are_still_made(self):
        cache = PActionCache()
        config = cache.alloc_config(make_blob(1))
        load = cache.alloc_action(LoadIssueNode(0))
        with pytest.raises(MemoizationError):
            cache.alloc_config(make_blob(1))
        with pytest.raises(MemoizationError):
            cache.attach((load, None), config)
        with pytest.raises(MemoizationError):
            cache.attach((config, 3), load)
        with pytest.raises(MemoizationError):
            cache.alloc_action(AdvanceNode(1), (load, None))
        with pytest.raises(MemoizationError):
            cache.alloc_action(AdvanceNode(1), (config, 3))


#: Python-level frames per detailed cycle of one run whose cache is
#: flushed at 0.35 x its natural size, ``test`` scale, after an
#: unbounded run of the same program in the same process (so blocks it
#: compiled start compiled), as measured when the budget was set
#: (193 235 / 171 443 / 172 793 frames over 6 744 / 4 882 / 6 945
#: detailed cycles; they repeat exactly). The commit before read
#: 39.29 / 43.37 / 30.02, against a budget of 0.70 x the frames
#: recording cost when it still cost more than simulating (74.88 /
#: 86.61 / 58.10, that is 52.42 / 60.63 / 40.67).
RECORD_MEASURED = {"gcc": 28.65, "compress": 35.12, "tomcatv": 24.88}


@pytest.mark.parametrize("name", sorted(RECORD_MEASURED))
def test_bounded_run_frames_per_detailed_cycle(name, monkeypatch):
    # The count depends on which blocks start compiled: start from an
    # empty code cache, so that it is what the unbounded run compiled.
    monkeypatch.setattr(codecache, "_CODE_CACHE", {})
    executable = load_workload(name, "test")
    natural = FastSim(executable).run().memo.peak_cache_bytes
    sim = FastSim(executable, policy=FlushOnFullPolicy(
        max(int(0.35 * natural), 512)))
    with CallCounter() as counter:
        result = sim.run()
    assert result.memo.evictions > 0
    per_cycle = counter.total / result.memo.detailed_cycles
    budget = 1.05 * RECORD_MEASURED[name]
    print(f"\n{name}: {counter.total} frames / "
          f"{result.memo.detailed_cycles} detailed cycles = "
          f"{per_cycle:.2f} (budget {budget:.2f})")
    for layer, count in counter.by_layer.most_common(8):
        print(f"  {layer:28s} {count:8d}")
    assert per_cycle <= budget


# -- the detailed pipeline -----------------------------------------------

class OpcodeCounter:
    """Counts the bytecodes executed in one source file while active."""

    def __init__(self, filename):
        self.filename = filename
        self.total = 0

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename != self.filename:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._opcode

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.total += 1
        return self._opcode

    def __enter__(self):
        self._saved = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved)


#: Bytecodes executed in ``uarch/detailed.py`` per simulated cycle of a
#: SlowSim run at ``tiny`` (after one untimed pass) while the cycle
#: walked the iQ twice, once to advance and once to issue and dispatch;
#: the one-walk cycle that set this budget reads 1173.3 / 1583.4 /
#: 1320.8.
KERNEL_BEFORE = {"compress": 2096.4, "go": 2457.2, "tomcatv": 2381.8}


@pytest.mark.parametrize("name", sorted(KERNEL_BEFORE))
def test_detailed_pipeline_bytecodes_per_cycle(name):
    executable = load_workload(name, "tiny")
    SlowSim(executable).run()
    sim = SlowSim(executable)
    with OpcodeCounter(detailed.__file__) as counter:
        result = sim.run()
    per_cycle = counter.total / result.cycles
    print(f"\n{name}: {counter.total} bytecodes / {result.cycles} cycles = "
          f"{per_cycle:.1f} (budget {0.75 * KERNEL_BEFORE[name]:.1f})")
    assert per_cycle <= 0.75 * KERNEL_BEFORE[name]
