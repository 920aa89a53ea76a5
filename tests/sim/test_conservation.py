"""Conservation laws — an oracle that shares no code with the engines.

Bit-identity tests compare one simulator with another; a bug both share
(or a fold that mis-settles the world the same way on every path)
passes them. These laws hold for *any* correct run, whatever produced
it, and are checked on the live world after every run of the matrix
{SlowSim, FastSim interpreted, compiled (threshold 1), audited every
third episode, bounded ``flush``, persisted-warm}:

* one clock: ``world.cycle == stats.cycles == result.cycles``;
* cursors are retirement counts: ``lq_base/sq_base/cf_base ==
  retired_loads/stores/controls``;
* every cache access is a hit or a miss, per level and kind;
* nothing is left in flight: no outstanding load key survives the run;
* what retired is what the frontend committed (executed minus
  squashed), and the frontend queues hold exactly the retired entries
  plus its one-event lookahead, the halt.
"""

import io

import pytest

from repro.branch import NotTakenPredictor
from repro.emulator.queues import ControlKind
from repro.isa import assemble
from repro.memo.pcache import PActionCache
from repro.memo.persist import read_pcache, write_pcache
from repro.memo.policies import make_policy
from repro.memo.segstore import capture
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.workloads.fuzz import random_program
from repro.workloads.suite import WORKLOAD_ORDER, load_workload


def run_slow(executable, **kwargs):
    return [SlowSim(executable, **kwargs)]


def run_interpreted(executable, **kwargs):
    cache = PActionCache()
    return [FastSim(executable, pcache=cache, turbo=False, **kwargs)
            for _ in range(2)]


def run_compiled(executable, **kwargs):
    cache = PActionCache()
    return [FastSim(executable, pcache=cache, turbo_threshold=1, **kwargs)
            for _ in range(2)]


def run_audited(executable, **kwargs):
    """Every third episode replays under the guard's lockstep audit,
    the others through compiled segments: both settle one ``memo``."""
    cache = PActionCache()
    return [FastSim(executable, pcache=cache, turbo_threshold=1, audit_every=3,
                    **kwargs) for _ in range(3)]


def run_bounded(executable, **kwargs):
    probe = FastSim(executable, **kwargs)
    probe.run()
    limit = max(int(probe.pcache.peak_bytes * 0.35), 512)
    return [FastSim(executable, turbo_threshold=1,
                    policy=make_policy("flush", limit_bytes=limit),
                    **kwargs)]


def run_persisted_warm(executable, **kwargs):
    """Warm from FSPC bytes and a captured segment archive, the way a
    campaign job starts from its cache directory."""
    cache = PActionCache()
    for _ in range(2):  # record, then compile along a full replay
        FastSim(executable, pcache=cache, turbo_threshold=1, **kwargs).run()
    stream = io.BytesIO()
    write_pcache(cache, stream)
    stream.seek(0)
    return [FastSim(executable, pcache=read_pcache(stream),
                    segstore=capture(cache), **kwargs)]


MODES = {
    "slow": run_slow,
    "interpreted": run_interpreted,
    "compiled": run_compiled,
    "audited-every-3": run_audited,
    "bounded-flush": run_bounded,
    "persisted-warm": run_persisted_warm,
}


def assert_conserved(sim):
    """Run *sim* (not yet run) and check every law on its world."""
    result = sim.run()
    world = sim.world
    stats = world.stats
    cache = world.cache.stats
    frontend = world.frontend

    assert world.cycle == stats.cycles == result.cycles
    assert (world.lq_base, world.sq_base, world.cf_base) == (
        stats.retired_loads, stats.retired_stores, stats.retired_controls)
    assert result.instructions == stats.retired_instructions

    assert cache.l1_load_hits + cache.l1_load_misses == cache.loads
    assert cache.l1_store_hits + cache.l1_store_misses == cache.stores
    # Wrong-path accesses reach the cache but never retire.
    assert cache.loads >= stats.retired_loads
    assert cache.stores >= stats.retired_stores
    assert world.cache.outstanding_loads == 0

    assert stats.retired_instructions == frontend.committed_instructions
    assert stats.mispredictions == frontend.rollbacks
    # The frontend stopped at the halt: its queues hold what retired,
    # every fetched control retired, and the one record it ran ahead of
    # fetch is the halt itself.
    queues = frontend.queues
    assert len(queues.loads) == stats.retired_loads
    assert len(queues.stores) == stats.retired_stores
    assert world.cf_fetched == world.cf_base == len(queues.controls) - 1
    assert queues.controls[-1].kind is ControlKind.HALT
    if result.memo is not None and sim.name == "FastSim":
        memo = result.memo
        assert (memo.replayed_instructions + memo.detailed_instructions
                == stats.retired_instructions)
        assert memo.replayed_cycles + memo.detailed_cycles == stats.cycles
    return result


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_suite_program_conserves(name, mode):
    executable = load_workload(name, "tiny")
    sims = MODES[mode](executable)
    results = [assert_conserved(sim) for sim in sims]
    if mode not in ("slow", "bounded-flush"):  # a flushed tiny run may
        assert results[-1].memo.replayed_instructions > 0  # never replay
    if mode == "persisted-warm":
        assert results[-1].memo.detailed_instructions == 0
        assert sims[-1].segstore_stats["installed"] > 0


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_generated_program_conserves_under_rollbacks(seed, mode):
    executable = assemble(random_program(seed, iterations=12))
    for sim in MODES[mode](executable, predictor=NotTakenPredictor()):
        result = assert_conserved(sim)
    assert result.sim_stats.mispredictions > 0
