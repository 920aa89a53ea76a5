"""Tests for the table/figure regeneration machinery.

Runs on a two-workload subset at tiny scale so the full suite stays
fast; the paper-scale runs are the ``fastsim-repro table2…5`` commands
(EXPERIMENTS.md).
"""

import pytest

from repro.analysis import (
    figure7,
    figure7_series,
    gc_policy_study,
    render_figure7,
    render_policy_study,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    table2,
    table3,
    table4,
    table5,
)
from repro.api import suite_runner

SUBSET = ["mgrid", "compress"]


@pytest.fixture(scope="module")
def runner():
    return suite_runner(scale="tiny")


class TestRunner:
    def test_results_cached(self, runner):
        first = runner.run("mgrid", "fast")
        second = runner.run("mgrid", "fast")
        assert first is second

    def test_policy_runs_not_cached(self, runner):
        from repro.campaign.jobs import PolicySpec

        first = runner.run("mgrid", "fast", policy=PolicySpec("flush", 4096))
        second = runner.run("mgrid", "fast", policy=PolicySpec("flush", 4096))
        assert first is not second

    def test_native_measures_functional_execution(self, runner):
        native = runner.native("mgrid")
        assert native.instructions > 0
        assert native.seconds > 0
        assert native.output == runner.run("mgrid", "fast").output

    def test_unknown_simulator(self, runner):
        with pytest.raises(ValueError):
            runner.run("mgrid", "warp-drive")

    def test_run_all_shape(self, runner):
        table = runner.run_all(SUBSET, simulators=("fast", "slow"))
        assert set(table) == set(SUBSET)
        assert set(table["mgrid"]) == {"fast", "slow"}


class TestTable2:
    def test_rows_and_invariants(self, runner):
        rows = table2(runner, SUBSET)
        assert [r.benchmark for r in rows] == SUBSET
        for row in rows:
            assert row.slow_slowdown > 0 and row.fast_slowdown > 0
            # At tiny scale warm-up dominates and host timing is noisy,
            # so only sanity-check the ratio here; the real >1 speedup
            # claim is measured at benchmark scale by ``bench/run.py``
            # (the ``paper.table2.*`` rows).
            assert row.speedup > 0.3
            assert row.speedup == pytest.approx(
                row.slow_slowdown / row.fast_slowdown, rel=1e-6
            )

    def test_render(self, runner):
        text = render_table2(table2(runner, SUBSET))
        assert "107.mgrid" in text
        assert "Slow/Fast" in text


class TestTable3:
    def test_rows(self, runner):
        rows = table3(runner, SUBSET)
        for row in rows:
            # Sanity at noisy tiny scale; strong claims are in EXPERIMENTS.md.
            assert row.fast_kinsts > row.slow_kinsts * 0.5
            assert row.fast_vs_baseline > 0.5
            assert row.cycles > 0

    def test_render(self, runner):
        text = render_table3(table3(runner, SUBSET))
        assert "Fast/Base" in text


class TestTable4:
    def test_fraction_consistency(self, runner):
        for row in table4(runner, SUBSET):
            total = row.detailed_instructions + row.replayed_instructions
            assert total == runner.run(row.benchmark, "fast").instructions
            assert 0 < row.detailed_fraction < 1

    def test_render(self, runner):
        text = render_table4(table4(runner, SUBSET))
        assert "%" in text


class TestTable5:
    def test_paper_band_shape(self, runner):
        for row in table5(runner, SUBSET):
            assert row.static_configs > 0
            assert row.static_actions > row.static_configs
            assert 1.0 <= row.actions_per_config <= 10.0
            assert 0.5 <= row.cycles_per_config <= 4.0
            assert row.max_chain >= row.avg_chain

    def test_render(self, runner):
        text = render_table5(table5(runner, SUBSET))
        assert "Act/Cfg" in text


class TestFigure7:
    def test_sweep_points(self, runner):
        points = figure7(runner, ["mgrid"], fractions=(0.2, 1.0))
        assert len(points) == 2
        by_fraction = {p.limit_fraction: p for p in points}
        # A tight limit flushes; a generous one may not.
        assert by_fraction[0.2].flushes >= by_fraction[1.0].flushes

    def test_series_grouping(self, runner):
        points = figure7(runner, SUBSET, fractions=(0.5, 1.0))
        series = figure7_series(points)
        assert set(series) == set(SUBSET)
        for line in series.values():
            limits = [p.limit_bytes for p in line]
            assert limits == sorted(limits)

    def test_render(self, runner):
        text = render_figure7(figure7(runner, ["mgrid"],
                                      fractions=(0.5, 1.0)))
        assert "50%" in text and "100%" in text


class TestPolicyStudy:
    def test_three_policies_per_workload(self, runner):
        rows = gc_policy_study(runner, ["mgrid"])
        assert [r.policy for r in rows] == [
            "flush", "copying-gc", "generational-gc"
        ]

    def test_render(self, runner):
        text = render_policy_study(gc_policy_study(runner, ["mgrid"]))
        assert "copying-gc" in text
