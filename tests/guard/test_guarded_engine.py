"""GuardedEngine: audits never change timing; corruption never escapes.

Two properties, both load-bearing:

1. **Transparency** — with ``audit_every=1`` (every replay episode
   re-verified against a fresh detailed simulator) results are
   ``timing_equal`` to the unguarded FastSim *and* to SlowSim, cold
   and warm. The guard observes; it must never perturb.
2. **Containment** — a corrupted p-action chain (any payload class)
   is detected before its wrong outcome is applied, reported with the
   right divergence kind, invalidated/spliced out of the cache, and
   the run completes with correct timing anyway.
"""

import io
from dataclasses import replace

import pytest

from repro.branch import NotTakenPredictor
from repro.guard.engine import GuardedEngine
from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    EndNode,
    LoadIssueNode,
    LoadPollNode,
    RetireNode,
    StoreIssueNode,
)
from repro.memo.pcache import reachable
from repro.memo.persist import load_pcache, read_pcache, write_pcache
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.workloads import load_workload
from tests.memo.fixtures import CUT_EVERY_ACTION_FSPC

WORKLOADS = ["compress", "go", "tomcatv"]


def _run(name, pcache=None, audit_every=None):
    sim = FastSim(load_workload(name, "tiny"),
                  predictor=NotTakenPredictor(), pcache=pcache,
                  audit_every=audit_every)
    result = sim.run()
    return sim, result


WORLD_CALLS = ("advance_cycles", "retire", "rollback", "get_control",
               "issue_load", "poll_load", "issue_store")


def _world_calls(sim):
    """Run *sim*; its world calls as (method, arguments, world.cycle)."""
    world = sim.world
    log = []

    def logged(method, call):
        def wrapper(*args):
            log.append((method, args, world.cycle))
            return call(*args)
        return wrapper

    for method in WORLD_CALLS:
        setattr(world, method, logged(method, getattr(world, method)))
    sim.run()
    return log


class TestTransparency:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_cold_guarded_matches_unguarded_and_slowsim(self, name):
        _, plain = _run(name)
        guarded_sim, guarded = _run(name, audit_every=1)
        slow = SlowSim(load_workload(name, "tiny"),
                       predictor=NotTakenPredictor()).run()
        assert guarded.timing_equal(plain)
        assert guarded.timing_equal(slow)
        assert guarded_sim.engine.divergences == 0

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_warm_guarded_matches(self, name):
        recorder, plain = _run(name)
        guarded_sim, guarded = _run(name, pcache=recorder.pcache,
                                    audit_every=1)
        assert guarded.timing_equal(plain)
        assert guarded_sim.engine.divergences == 0
        assert guarded_sim.engine.audits > 0

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_warm_audited_world_calls_match_interpreted_replay(self, name):
        """Audits never perturb, call by call: every world call of a
        warm ``audit_every=1`` run — method, arguments and the clock it
        lands on — is the one interpreted replay makes."""
        recorders = [_run(name)[0] for _ in range(2)]
        guarded = FastSim(load_workload(name, "tiny"),
                          predictor=NotTakenPredictor(),
                          pcache=recorders[0].pcache, audit_every=1)
        plain = FastSim(load_workload(name, "tiny"),
                        predictor=NotTakenPredictor(),
                        pcache=recorders[1].pcache, turbo=False)
        calls = _world_calls(guarded)
        assert guarded.engine.audits > 0
        assert len(calls) > 500
        assert calls == _world_calls(plain)

    def test_sampling_audits_subset(self):
        # tomcatv's cold run has many replay episodes (each record →
        # lookup-hit transition starts one), so sampling has room to
        # show between "none" and "all".
        every_sim, _ = _run("tomcatv", audit_every=1)
        some_sim, sampled = _run("tomcatv", audit_every=3)
        assert 0 < some_sim.engine.audits < every_sim.engine.audits
        assert sampled.timing_equal(_run("tomcatv")[1])

    def test_persisted_warm_episode_is_audited_at_any_rate(self):
        """Episode 0 is audited at every rate, and a persisted-warm run
        is usually that one episode: audited whole at ``audit_every=50``."""
        recorder, plain = _run("compress")
        stream = io.BytesIO()
        write_pcache(recorder.pcache, stream)
        stream.seek(0)
        warm_sim, warm = _run("compress", pcache=read_pcache(stream),
                              audit_every=50)
        assert warm.memo.replay_episodes == 1
        assert warm.memo.detailed_instructions == 0
        assert warm_sim.engine.audits == 1
        assert warm.timing_equal(plain)

    def test_audit_every_validated(self):
        with pytest.raises(ValueError):
            _run("compress", audit_every=0)


def _root_chain(cache):
    """The first indexed configuration's chain — replayed first on a
    warm run, so corruption here is guaranteed to meet an audit."""
    entry = next(iter(cache.index.values()))
    node, nodes = entry.next, []
    while node is not None:
        nodes.append(node)
        node = node.next
    return entry, nodes


def _first_crossed_config(entry):
    """The first configuration past *entry* on the path a warm run of
    the same program retraces: linear successors, and at an outcome the
    one edge the cold run recorded. None if an outcome has several."""
    node = entry.next
    while node is not None and not isinstance(node, ConfigNode):
        if not node.is_outcome:
            node = node.next
        elif len(node.edges) == 1:
            node = next(iter(node.edges.values()))
        else:
            return None
    return node


def _corrupt(cache, kind):
    entry, nodes = _root_chain(cache)
    if kind == "entry-blob":
        blob = bytearray(entry.blob)
        blob[-1] ^= 0x01
        entry.blob = bytes(blob)
        return
    if kind == "ordinal":
        # Every load/store queue ordinal: the root chain's prefix ends
        # at its first outcome, so whichever load or store an audit
        # meets first carries the wrong one.
        for node in reachable(cache.index.values()):
            if isinstance(node, (LoadIssueNode, LoadPollNode,
                                 StoreIssueNode)):
                node.ordinal ^= 1
        return
    if kind == "config-blob":
        # Configurations are cut only after an outcome, so the first
        # one the root episode crosses lies past the chain's prefix.
        node = _first_crossed_config(entry)
        if node is not None:
            blob = bytearray(node.blob)
            blob[0] ^= 0x80
            node.blob = bytes(blob)
            return
    for node in nodes:
        if node.is_outcome:
            break  # stay in the unconditionally-replayed prefix
        if kind == "retire-count" and isinstance(node, RetireNode):
            node.request = replace(node.request,
                                   count=node.request.count + 1)
            return
        if kind == "advance-delta" and isinstance(node, AdvanceNode):
            node.delta += 3
            return
    pytest.skip(f"no {kind} target in the root chain prefix")


# Which DivergenceReport.kind each corruption class must produce.
EXPECTED_KIND = {
    "retire-count": "action-payload",
    "ordinal": "action-payload",
    "advance-delta": "clock-skew",
    "config-blob": "config-blob",
    "entry-blob": "entry-blob",
}


class TestContainment:
    @pytest.mark.parametrize("corruption", sorted(EXPECTED_KIND))
    def test_detected_reported_recovered(self, corruption):
        _, reference = _run("compress")
        recorder, _ = _run("compress")
        _corrupt(recorder.pcache, corruption)
        guarded_sim, guarded = _run("compress", pcache=recorder.pcache,
                                    audit_every=1)
        engine = guarded_sim.engine
        assert engine.divergences >= 1
        kinds = [report.kind for report in engine.reports]
        assert EXPECTED_KIND[corruption] in kinds
        # The headline: wrong recorded state never became wrong output.
        assert guarded.timing_equal(reference)

    def test_report_payload(self):
        recorder, _ = _run("compress")
        _corrupt(recorder.pcache, "retire-count")
        guarded_sim, _ = _run("compress", pcache=recorder.pcache,
                              audit_every=1)
        report = guarded_sim.engine.reports[0]
        record = report.as_dict()
        assert record["kind"] == "action-payload"
        assert record["episode"] >= 0
        assert "expected" in record and "actual" in record

    def test_unaudited_sampling_still_correct_on_corruption(self):
        """An episode that sampling skips replays through the plain
        engine path, whose resync fallback keeps timing correct — the
        guard adds detection, not correctness. (Sampling audits episode
        0, the corrupt root chain, at every rate, so the skipped path
        is driven here with no guard at all.)"""
        _, reference = _run("compress")
        recorder, _ = _run("compress")
        _corrupt(recorder.pcache, "entry-blob")
        _, guarded = _run("compress", pcache=recorder.pcache)
        assert guarded.timing_equal(reference)


def _terminal_entry(cache):
    for entry in cache.index.values():
        if isinstance(entry.next, EndNode):
            return entry
    pytest.skip("no terminal configuration recorded")


def _run_bimodal(pcache=None, audit_every=None):
    """compress at ``tiny`` with the default (bimodal) predictor, the
    one the earlier recorder's cache file was written with."""
    sim = FastSim(load_workload("compress", "tiny"), pcache=pcache,
                  audit_every=audit_every)
    result = sim.run()
    return sim, result


class TestTerminalConfiguration:
    """The finishing boundary's snapshot (post-halt, drained queue) is
    audited like any other entry: its shadow yields ``Finished`` at
    once, so a pruned ending is re-recorded through the hand-off and a
    wrong delta is an ``end-mismatch``. Today's recorder does not cut
    that configuration (the halting cycle only retires), so the cache
    comes from a file the earlier recorder wrote."""

    def test_pruned_terminal_repaired(self):
        _, reference = _run_bimodal()
        pcache = load_pcache(CUT_EVERY_ACTION_FSPC)
        _terminal_entry(pcache).next = None
        guarded_sim, guarded = _run_bimodal(pcache=pcache, audit_every=1)
        assert guarded.timing_equal(reference)
        assert guarded_sim.engine.divergences == 0
        # The repair re-attached the EndNode for the next run.
        assert isinstance(_terminal_entry(pcache).next, EndNode)

    def test_corrupt_terminal_delta_detected(self):
        _, reference = _run_bimodal()
        pcache = load_pcache(CUT_EVERY_ACTION_FSPC)
        _terminal_entry(pcache).next.delta = 9
        guarded_sim, guarded = _run_bimodal(pcache=pcache, audit_every=1)
        assert guarded.timing_equal(reference)
        kinds = [report.kind for report in guarded_sim.engine.reports]
        assert "end-mismatch" in kinds


class TestEngineSurface:
    def test_guarded_engine_is_dropin(self):
        sim, _ = _run("compress", audit_every=1)
        assert isinstance(sim.engine, GuardedEngine)
        snapshot = sim.pcache.snapshot()
        assert "invalidations" in snapshot

    def test_default_engine_unchanged(self):
        sim, _ = _run("compress")
        assert not isinstance(sim.engine, GuardedEngine)
