"""Tests for p-action cache replacement policies (paper §4.3).

The safety property: **no policy ever changes simulation results** —
limiting, flushing, or collecting the cache only trades speed for
memory. Plus structural tests of each collector.
"""

import pytest

from repro.branch import AlwaysTakenPredictor
from repro.isa import assemble
from repro.memo.actions import AdvanceNode, ConfigNode, LoadIssueNode
from repro.memo.pcache import PActionCache
from repro.memo.policies import (
    CopyingGCPolicy,
    FlushOnFullPolicy,
    GenerationalGCPolicy,
    UnboundedPolicy,
    make_policy,
)
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.workloads import load_workload

WORKLOAD = """
main:
    set buf, %l0
    mov 40, %l6
outer:
    mov 16, %l1
    clr %l3
fill:
    st %l3, [%l0 + %l3]
    add %l3, 4, %l3
    subcc %l1, 1, %l1
    bne fill
    mov 16, %l1
    clr %l3
    clr %l4
sum:
    ld [%l0 + %l3], %l5
    add %l4, %l5, %l4
    add %l3, 4, %l3
    subcc %l1, 1, %l1
    bne sum
    call stir
    subcc %l6, 1, %l6
    bne outer
    out %l4
    halt
stir:
    and %l4, 0xff, %l4
    ret
    .data
buf: .space 64
"""


def reference():
    return SlowSim(assemble(WORKLOAD)).run()


def run_with_policy(policy):
    return FastSim(assemble(WORKLOAD), policy=policy).run()


@pytest.fixture(scope="module")
def slow_result():
    return reference()


class TestPoliciesPreserveResults:
    @pytest.mark.parametrize("limit", [512, 2048, 16384, 1 << 20])
    def test_flush_on_full_exact(self, slow_result, limit):
        fast = run_with_policy(FlushOnFullPolicy(limit))
        assert fast.timing_equal(slow_result)

    @pytest.mark.parametrize("limit", [2048, 16384])
    def test_copying_gc_exact(self, slow_result, limit):
        fast = run_with_policy(CopyingGCPolicy(limit))
        assert fast.timing_equal(slow_result)

    @pytest.mark.parametrize("limit", [2048, 16384])
    def test_generational_gc_exact(self, slow_result, limit):
        fast = run_with_policy(GenerationalGCPolicy(limit))
        assert fast.timing_equal(slow_result)

    def test_unbounded_exact(self, slow_result):
        fast = run_with_policy(UnboundedPolicy())
        assert fast.timing_equal(slow_result)


class TestPolicyBehaviour:
    def test_unbounded_never_collects(self):
        fast = run_with_policy(UnboundedPolicy())
        assert fast.memo.evictions == 0

    def test_small_flush_limit_collects(self):
        fast = run_with_policy(FlushOnFullPolicy(512))
        assert fast.memo.evictions >= 1

    def test_flush_keeps_cache_near_limit(self):
        limit = 2048
        fast = run_with_policy(FlushOnFullPolicy(limit))
        # After a flush the cache restarts from zero; peak can overshoot
        # by at most one allocation burst (a cycle's worth of actions).
        assert fast.memo.peak_cache_bytes <= limit + 512

    def test_tighter_limit_means_more_detailed_work(self):
        generous = run_with_policy(FlushOnFullPolicy(1 << 20))
        tight = run_with_policy(FlushOnFullPolicy(600))
        assert (tight.memo.detailed_instructions
                >= generous.memo.detailed_instructions)

    def test_gc_records_survival_rates(self):
        policy = CopyingGCPolicy(2048)
        run_with_policy(policy)
        assert policy.survival_rates, "expected at least one collection"
        assert all(0.0 <= rate <= 1.0 for rate in policy.survival_rates)


class TestCopyingGCStructure:
    def make_cache_with_two_chains(self):
        cache = PActionCache()
        blob_a = b"A" * 12
        blob_b = b"B" * 12
        config_a = cache.alloc_config(blob_a)
        config_b = cache.alloc_config(blob_b)
        cache.attach((config_a, None), cache.alloc_action(AdvanceNode(1)))
        cache.attach((config_b, None), cache.alloc_action(AdvanceNode(2)))
        return cache, blob_a, blob_b

    def test_untouched_configs_are_collected(self):
        cache, blob_a, blob_b = self.make_cache_with_two_chains()
        policy = CopyingGCPolicy(1)  # force a collection
        clock = cache.touch_clock
        policy._last_collection_clock = clock  # nothing touched "since"
        cache.lookup(blob_a)  # touch only chain A's config
        assert policy.maybe_collect(cache)
        assert cache.lookup(blob_a) is not None
        assert cache.lookup(blob_b) is None

    def test_dead_successors_pruned(self):
        cache, blob_a, _ = self.make_cache_with_two_chains()
        policy = CopyingGCPolicy(1)
        policy._last_collection_clock = cache.touch_clock
        node_a = cache.lookup(blob_a)  # config touched, chain NOT touched
        assert policy.maybe_collect(cache)
        assert node_a.next is None  # stale chain unlinked

    def test_bytes_reaccounted_after_collection(self):
        cache, blob_a, _ = self.make_cache_with_two_chains()
        policy = CopyingGCPolicy(1)
        policy._last_collection_clock = cache.touch_clock
        cache.lookup(blob_a)
        policy.maybe_collect(cache)
        assert cache.bytes_used == cache._measure()


class TestGenerationalGC:
    def test_survivors_promoted(self):
        cache = PActionCache()
        config = cache.alloc_config(b"C" * 12)
        policy = GenerationalGCPolicy(1)
        assert policy.maybe_collect(cache)
        assert config.generation == 1

    def test_minor_collection_keeps_old_generation(self):
        cache = PActionCache()
        old = cache.alloc_config(b"O" * 12)
        old.generation = 1
        young = cache.alloc_config(b"Y" * 12)
        policy = GenerationalGCPolicy(1)
        policy._last_collection_clock = cache.touch_clock  # nothing touched
        assert policy.maybe_collect(cache)  # minor #1
        assert cache.lookup(b"O" * 12) is not None
        assert cache.lookup(b"Y" * 12) is None


class TestOutcomeEdgePruning:
    def test_gc_prunes_stale_edges_only(self):
        cache = PActionCache()
        config = cache.alloc_config(b"Z" * 12)
        load = cache.alloc_action(LoadIssueNode(0))
        cache.attach((config, None), load)
        fresh = cache.alloc_action(AdvanceNode(1))
        stale = cache.alloc_action(AdvanceNode(6))
        cache.attach((load, 1), fresh)
        cache.attach((load, 6), stale)
        policy = CopyingGCPolicy(1)
        policy._last_collection_clock = cache.touch_clock
        cache.lookup(b"Z" * 12)
        cache.touch(load)
        cache.touch(fresh)
        assert policy.maybe_collect(cache)
        assert 1 in load.edges
        assert 6 not in load.edges


class TestFactory:
    def test_unbounded_no_limit(self):
        assert isinstance(make_policy("unbounded"), UnboundedPolicy)

    def test_limit_required(self):
        with pytest.raises(ValueError):
            make_policy("flush")

    def test_all_names(self):
        for name in ("flush", "copying-gc", "generational-gc"):
            policy = make_policy(name, limit_bytes=1024)
            assert policy.describe().startswith(name.split("@")[0])

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_policy("lru", limit_bytes=1)

    def test_nonpositive_limits_rejected(self):
        for cls in (FlushOnFullPolicy, CopyingGCPolicy, GenerationalGCPolicy):
            with pytest.raises(ValueError):
                cls(0)


class TestRepeatedRunsUnderPressure:
    def test_warm_reuse_with_flush_policy(self):
        """Even with flushes, a shared cache across runs stays exact."""
        exe = assemble(WORKLOAD)
        policy = FlushOnFullPolicy(4096)
        first = FastSim(exe, predictor=AlwaysTakenPredictor(), policy=policy)
        result1 = first.run()
        second = FastSim(exe, predictor=AlwaysTakenPredictor(),
                         policy=policy, pcache=first.pcache)
        result2 = second.run()
        assert result2.timing_equal(result1)

    def test_reuse_after_collection_at_the_terminal_configuration(self):
        """wave5 under generational GC at 0.2x its natural peak collects
        right after allocating the terminal configuration, so that
        configuration stays in the index with no EndNode. Runs reusing
        the cache, once unbounded and once bounded, replay onto it and
        must fall back and finish like SlowSim."""
        exe = load_workload("wave5", "tiny")
        slow = SlowSim(exe).run()
        limit = int(0.2 * FastSim(exe).run().memo.peak_cache_bytes)
        first = FastSim(exe, policy=GenerationalGCPolicy(limit))
        assert first.run().timing_equal(slow)
        for policy in (None, GenerationalGCPolicy(limit)):
            reuse = FastSim(exe, policy=policy, pcache=first.pcache)
            result = reuse.run(max_cycles=20 * slow.cycles)
            assert result.timing_equal(slow)


#: §4.3 golden: (program at ``tiny``, collector) -> (limit in bytes,
#: survival rate of every collection). Each limit is 0.35x the natural
#: peak the program had when every acting cycle cut a configuration;
#: the rates were re-measured under the outcome-only cut rule
#: (docs/memoization.md, step 3), which keeps the graph smaller, so
#: every case still collects at least four times. Generational GC
#: collects twice as often because its minor collections keep the
#: promoted generation.
SURVIVAL_GOLDEN = {
    ("gcc", "copying-gc"): (10292, [
        1.0, 0.005752636625119847, 0.9942318784849068,
        0.0055769230769230765, 1.0, 0.0050115651503469544]),
    ("gcc", "generational-gc"): (10292, [
        1.0, 1.0, 1.0, 0.005877891543420554, 1.0, 1.0, 1.0,
        0.0049722700325109965, 1.0, 1.0, 1.0, 0.005146778497903164]),
    ("compress", "copying-gc"): (6407, [
        1.0, 0.012110202845897668, 0.9877899877899878,
        0.01221001221001221]),
    ("compress", "generational-gc"): (6407, [
        1.0, 1.0, 1.0, 0.30499561787905344, 1.0, 1.0, 1.0,
        0.0039085989176187615]),
    ("tomcatv", "copying-gc"): (5434, [
        1.0, 0.01325214899713467, 0.9864170337738619,
        0.014668133480014669, 0.9855647780584627, 0.014435221941537351,
        1.0, 0.014250089063056644]),
    ("tomcatv", "generational-gc"): (5434, [
        1.0, 1.0, 1.0, 0.013927576601671309, 1.0, 1.0, 1.0,
        0.013778849466069583, 1.0, 1.0, 1.0, 0.013990905911157748,
        1.0, 1.0, 1.0, 0.014089468122578372]),
}


class TestCollectorGolden:
    @pytest.mark.parametrize("name,kind", sorted(SURVIVAL_GOLDEN))
    def test_collections_and_survival_rates(self, name, kind):
        limit, rates = SURVIVAL_GOLDEN[name, kind]
        policy = make_policy(kind, limit)
        result = FastSim(load_workload(name, "tiny"), policy=policy).run()
        assert result.memo.evictions == len(rates)
        assert policy.survival_rates == rates
