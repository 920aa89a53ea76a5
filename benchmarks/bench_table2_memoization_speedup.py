"""Table 2 — SlowSim vs. FastSim: the memoization speedup.

Paper: memoization improves overall simulation performance by
**4.9–11.9x** across SPEC95 with no change in any simulated statistic.
Each benchmark here times one full simulation of one workload; the
summary renders the table (speedups computed from the simulators' own
host-time measurements, exactly as the analysis module does).
"""

import pytest

from conftest import WORKLOADS, write_result
from repro.analysis.report import render_table2
from repro.analysis.tables import table2
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.workloads.suite import load_workload


@pytest.mark.parametrize("name", WORKLOADS)
def test_slowsim(benchmark, runner, name):
    """Detailed simulation, no memoization (the numerator)."""
    def run():
        return SlowSim(load_workload(name, runner.scale)).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    runner._results[(name, "slow")] = result
    assert result.instructions > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_fastsim(benchmark, runner, name):
    """Memoized simulation (the denominator)."""
    def run():
        return FastSim(load_workload(name, runner.scale)).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    runner._results[(name, "fast")] = result
    slow = runner._results.get((name, "slow"))
    if slow is not None:
        assert result.timing_equal(slow), (
            f"{name}: memoization changed simulation results"
        )


def test_render_table2(benchmark, runner, results_dir):
    """Assemble and persist Table 2 from the measured runs."""
    rows = benchmark.pedantic(
        lambda: table2(runner, WORKLOADS), rounds=1, iterations=1
    )
    write_result(results_dir, "table2.txt", render_table2(rows))
    speedups = [r.speedup for r in rows]
    # Shape check: memoization wins everywhere.
    assert min(speedups) > 1.0
