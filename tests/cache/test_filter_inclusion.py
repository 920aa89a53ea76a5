"""DEW's inclusion property, checked per access (ROADMAP item 4).

The L1 load filter answers a load from a cheap front check before the
full model. That is sound only if *every* filter hit is an L1 hit the
full model would also have reported — line present in the tags, no L1
fill for it still in flight — and if nothing the caller can see depends
on the filter: same interval back, same ready cycle stored under the
same key. Equal end-of-run statistics do not show either; here each
access is checked as it happens, on the request streams real runs make
(the suite programs and generated programs under two predictors).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import BimodalPredictor, NotTakenPredictor
from repro.cache.hierarchy import MemorySystem
from repro.isa import assemble
from repro.sim.slowsim import SlowSim
from repro.sim.world import World
from repro.workloads.fuzz import random_program
from repro.workloads.suite import WORKLOAD_ORDER, load_workload
from tests.cache.recording import RecordingMemorySystem


def request_stream(executable, predictor_cls=BimodalPredictor):
    """Every port request of one detailed run, in order."""
    sim = SlowSim(executable, predictor=predictor_cls())
    memory = RecordingMemorySystem(sim.params.memory)
    sim.world = World(executable, sim.params, predictor_cls(),
                      memory_system=memory)
    sim.run()
    return memory.stream


class InclusionChecked(MemorySystem):
    """Asserts the inclusion property on each of its own filter hits."""

    def issue_load(self, key, address, now):
        line = self.l1.line_address(address)
        present = self.l1.contains(line)           # no LRU, no counters
        inflight = self.l1_mshrs.lookup(line)
        hits = self.filter_hits
        interval = super().issue_load(key, address, now)
        if self.filter_hits != hits:
            assert present, f"filter hit on absent line {line:#x}"
            assert inflight is None or inflight <= now, (
                f"filter hit on line {line:#x} still filling "
                f"until {inflight} at {now}")
        return interval


def replay_checked(stream):
    """Replay *stream* into a filtered (checked) and an unfiltered
    memory system in lockstep, comparing after every request."""
    filtered = InclusionChecked(l1_filter=True)
    plain = MemorySystem(l1_filter=False)
    for index, (method, *args) in enumerate(stream):
        replies = [getattr(mem, method)(*args) for mem in (filtered, plain)]
        assert replies[0] == replies[1], (index, method, args)
        assert filtered._ready == plain._ready, (index, method, args)
    assert filtered.stats == plain.stats
    assert (filtered.l1.hits, filtered.l1.misses, filtered.l1.evictions) == (
        plain.l1.hits, plain.l1.misses, plain.l1.evictions)
    assert plain.filter_hits == 0
    return filtered


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_suite_stream_filter_hits_are_l1_hits(name):
    stream = request_stream(load_workload(name, "tiny"))
    filtered = replay_checked(stream)
    assert filtered.filter_hits > 0  # the property was exercised
    assert filtered.filter_hits <= filtered.stats.l1_load_hits


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       predictor_cls=st.sampled_from([BimodalPredictor, NotTakenPredictor]))
def test_fuzz_stream_filter_hits_are_l1_hits(seed, predictor_cls):
    executable = assemble(random_program(seed, iterations=12))
    replay_checked(request_stream(executable, predictor_cls))


def test_checker_catches_a_stale_filter_entry():
    """The check bites: an entry left behind after its line was evicted
    (what a missed invalidation would do) is reported at the next hit."""
    mem = InclusionChecked()
    mem.issue_load(0, 0x1000, 0)
    mem.poll_load(0, 500)
    mem.issue_load(1, 0x1000, 600)      # probe hit: entry installed
    assert mem.l1.invalidate(0x1000)    # tags drop the line, filter not told
    with pytest.raises(AssertionError, match="absent line"):
        mem.issue_load(2, 0x1000, 700)
