"""Where the recorder cuts configurations (docs/memoization.md, step 3).

Replay can leave a chain only at an outcome node, so a configuration is
cut at a cycle boundary only if an outcome-bearing action (control, load
issue, load poll, store issue) was recorded since the last one. No
configuration is then *interior*: reachable from another configuration
through advances, retires and rollbacks alone.

The re-anchor after an eviction is cut without an outcome, but it is
allocated with no attach point, so it links nothing and cannot make a
configuration interior either: the bounded graphs are held to the same
walk. The earlier rule (cut after any action, a ``Retire`` included)
is kept as a file it wrote, and the walk must find its interior
configurations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import BimodalPredictor, NotTakenPredictor
from repro.isa import assemble
from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    RetireNode,
    RollbackNode,
)
from repro.memo.persist import load_pcache
from repro.memo.policies import make_policy
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.workloads.fuzz import random_program
from repro.workloads.suite import WORKLOAD_ORDER, load_workload
from tests.memo.fixtures import CUT_EVERY_ACTION_FSPC

#: Nodes with one successor and nothing for replay to check.
PASS_THROUGH = (AdvanceNode, RetireNode, RollbackNode)
#: Figure 7's tight point, as a fraction of the natural p-cache size.
BOUNDED_FRACTION = 0.35
COLLECTORS = ("flush", "copying-gc", "generational-gc")


def interior_configurations(pcache):
    """Configurations reached from another through pass-through nodes."""
    found = []
    for config in pcache.reachable_nodes():
        if type(config) is not ConfigNode:
            continue
        node = config.next
        while type(node) in PASS_THROUGH:
            node = node.next
        if type(node) is ConfigNode:
            found.append(node)
    return found


def check_graphs(executable, predictor_cls):
    """Record *executable* unbounded and under every collector at
    ``BOUNDED_FRACTION`` of its natural size; every graph must be free
    of interior configurations and every run timing-equal. Returns the
    unbounded result and the bounded runs' eviction counts."""
    unbounded_sim = FastSim(executable, predictor=predictor_cls())
    unbounded = unbounded_sim.run()
    assert interior_configurations(unbounded_sim.pcache) == []
    limit = int(BOUNDED_FRACTION * unbounded.memo.peak_cache_bytes)
    evictions = []
    for kind in COLLECTORS:
        sim = FastSim(executable, predictor=predictor_cls(),
                      policy=make_policy(kind, limit))
        result = sim.run()
        assert result.timing_equal(unbounded), kind
        assert interior_configurations(sim.pcache) == [], kind
        evictions.append(result.memo.evictions)
    return unbounded, evictions


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_suite_program_has_no_interior_configuration(name):
    _, evictions = check_graphs(load_workload(name, "tiny"),
                                BimodalPredictor)
    assert min(evictions) > 0  # the bounded graphs really were collected


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       predictor_cls=st.sampled_from([BimodalPredictor, NotTakenPredictor]))
def test_fuzz_program_has_no_interior_configuration(seed, predictor_cls):
    """Drawn programs (not-taken prediction adds rollbacks): the same
    walk, and the unbounded run against SlowSim statistic by statistic."""
    executable = assemble(random_program(seed))
    fast, _ = check_graphs(executable, predictor_cls)
    slow = SlowSim(executable, predictor=predictor_cls()).run()
    assert fast.cycles == slow.cycles
    assert fast.sim_stats == slow.sim_stats
    assert fast.cache_stats == slow.cache_stats


def prune_after_leading_retire(pcache):
    """Cut every chain at the first ``Retire`` it records before any
    outcome; returns how many chains were cut. Replay then falls back
    with a chain log holding no outcome node."""
    pruned = 0
    for config in list(pcache.index.values()):
        node = config.next
        while type(node) is AdvanceNode or type(node) is RollbackNode:
            node = node.next
        if type(node) is RetireNode and node.next is not None:
            node.next = None
            pruned += 1
    return pruned


@pytest.mark.parametrize("audit_every", [None, 1])
@pytest.mark.parametrize("name", ["compress", "gcc", "tomcatv"])
def test_fallback_without_an_outcome_cuts_no_interior_configuration(
        name, audit_every):
    """Both ways back into record mode from replay — the engine's resync
    and the guard's hand-off — pass on whether the chain since the last
    configuration held an outcome: a log of retires alone does not."""
    executable = load_workload(name, "tiny")
    slow = SlowSim(executable).run()
    recorder = FastSim(executable)
    recorder.run()
    pcache = recorder.pcache
    assert prune_after_leading_retire(pcache) > 0
    warm = FastSim(executable, pcache=pcache,
                   audit_every=audit_every).run()
    assert warm.timing_equal(slow)
    assert warm.memo.replay_episodes > 1  # it did fall back
    assert interior_configurations(pcache) == []


def test_walk_finds_the_earlier_rules_interior_configurations():
    """The file the cut-after-any-action recorder wrote for compress is
    the mutant this walk must catch."""
    pcache = load_pcache(CUT_EVERY_ACTION_FSPC)
    assert len(interior_configurations(pcache)) > 0
