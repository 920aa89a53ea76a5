"""Golden pin of the detailed pipeline model and its request protocol.

``golden_detailed.json`` holds, for all 18 suite programs at ``tiny``
scale under five processor configurations, the results of a detailed
run *and* a sha256 over the ``repr`` of every request the simulator
yielded, in order — the protocol the p-action cache records. Any change
to :class:`DetailedSimulator` must reproduce both exactly. The
``baseline/*`` rows pin :class:`IntegratedSimulator`, which shares the
per-cycle pipeline walk, the same way under the same configurations.

Regenerate (only when the *model* is meant to change)::

    PYTHONPATH=src python tests/uarch/test_detailed_golden.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim.baseline import IntegratedSimulator
from repro.sim.world import World
from repro.uarch.config_codec import decode_config, encode_config
from repro.uarch.detailed import DetailedSimulator
from repro.uarch.interactions import FINISHED, CycleBoundary, Finished
from repro.uarch.params import ProcessorParams
from repro.workloads import WORKLOAD_ORDER, load_workload

GOLDEN_PATH = Path(__file__).with_name("golden_detailed.json")

#: r10k, the narrow config of test_detailed.py, two of the
#: campaign-small-jobs design-space points (bench/workloads.py), and
#: ``tight``: 8 renames per file and 4-entry queues, so rename and
#: queue-full stalls happen thousands of times at ``tiny`` (the other
#: four never stall on a rename register).
CONFIGS = {
    "r10k": ProcessorParams.r10k(),
    "narrow": ProcessorParams.narrow(),
    "iq16": replace(ProcessorParams.r10k(), iq_capacity=16),
    "bht128": replace(ProcessorParams.r10k(), bht_entries=128),
    "tight": replace(ProcessorParams.r10k(), phys_int_regs=40,
                     phys_fp_regs=40, int_queue=4, fp_queue=4,
                     addr_queue=4),
}


def drive(executable, params, snapshot_cycle=None):
    """Run the detailed model to completion against a fresh world.

    Its own loop over :meth:`World.answer`, not ``SlowSim.cycles``:
    the golden digests every request, not every cycle.

    Returns ``(world, stream, snapshot)``: *stream* is every
    ``(repr(request), outcome)`` pair in order; *snapshot* is
    ``(blob, position)`` taken at the ``CycleBoundary`` ending cycle
    *snapshot_cycle* — the encoded configuration and the stream index
    of the first request after it.
    """
    world = World(executable, params)
    simulator = DetailedSimulator(executable, params)
    generator = simulator.run()
    stream = []
    snapshot = None
    outcome = None
    while True:
        request = generator.send(outcome)
        kind = type(request)
        outcome = None
        if kind is CycleBoundary:
            world.advance_cycles(1)
        elif kind is not Finished:
            outcome = world.answer(request)
        stream.append((repr(request), outcome))
        if kind is Finished:
            return world, stream, snapshot
        if kind is CycleBoundary and world.cycle == snapshot_cycle:
            blob = encode_config(simulator.iq.entries, simulator.fetch_pc,
                                 simulator.fetch_stalled,
                                 simulator.fetch_halted)
            snapshot = (blob, len(stream))


def golden_row(name, config):
    world, stream, _ = drive(load_workload(name, "tiny"), CONFIGS[config])
    digest = hashlib.sha256()
    for text, _ in stream:
        digest.update(text.encode())
        digest.update(b"\n")
    return {
        "cycles": world.stats.cycles,
        "instructions": world.stats.retired_instructions,
        "sim_stats": world.stats.as_dict(),
        "cache_stats": world.cache.stats.as_dict(),
        "output": list(world.program_output),
        "requests": len(stream),
        "requests_sha256": digest.hexdigest(),
    }


def baseline_key(name, config):
    return (f"baseline/{name}" if config == "r10k"
            else f"baseline/{name}/{config}")


def baseline_row(name, config="r10k"):
    result = IntegratedSimulator(load_workload(name, "tiny"),
                                 CONFIGS[config]).run()
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "sim_stats": result.sim_stats.as_dict(),
        "cache_stats": result.cache_stats.as_dict(),
        "output": result.output,
        "fetched": result.frontend_instructions,
        "rollbacks": result.rollbacks,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_results_and_request_stream_match_golden(golden, name, config):
    assert golden_row(name, config) == golden[f"{name}/{config}"]


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_integrated_baseline_matches_golden(golden, name):
    assert baseline_row(name) == golden[f"baseline/{name}"]


@pytest.mark.parametrize("config", [c for c in CONFIGS if c != "r10k"])
@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_integrated_baseline_matches_golden_under_config(golden, name,
                                                         config):
    assert baseline_row(name, config) == golden[baseline_key(name, config)]


@pytest.mark.parametrize("fraction", [0.25, 0.6, 1.0])
@pytest.mark.parametrize("name,config", [
    ("go", "r10k"), ("li", "narrow"), ("tomcatv", "iq16"),
    ("fpppp", "bht128"),
])
def test_restored_configuration_continues_identically(golden, name, config,
                                                      fraction):
    """encode → decode → restore at a boundary, then re-feed the
    original outcomes: the request-stream suffix must be identical and
    end where the original ended. Fraction 1.0 is the finishing
    boundary — the terminal configuration, drained and halted — whose
    suffix is just ``Finished``."""
    executable = load_workload(name, "tiny")
    params = CONFIGS[config]
    cycle = int(golden[f"{name}/{config}"]["cycles"] * fraction)
    _, stream, snapshot = drive(executable, params, snapshot_cycle=cycle)
    blob, position = snapshot
    suffix = stream[position:]
    if fraction == 1.0:
        assert suffix == [(repr(FINISHED), None)]
    else:
        assert len(suffix) > 100

    resumed = DetailedSimulator(executable, params)
    resumed.restore(*decode_config(blob, executable))
    generator = resumed.run()
    outcome = None
    for expected, recorded_outcome in suffix:
        assert repr(generator.send(outcome)) == expected
        outcome = recorded_outcome
    with pytest.raises(StopIteration):
        generator.send(outcome)


if __name__ == "__main__":
    rows = {f"{name}/{config}": golden_row(name, config)
            for name in WORKLOAD_ORDER for config in CONFIGS}
    rows.update((baseline_key(name, config), baseline_row(name, config))
                for name in WORKLOAD_ORDER for config in CONFIGS)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}"
        for key in sorted(rows)) + "\n}\n")
    print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
