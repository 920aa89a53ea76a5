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
from repro.api import run_campaign
from repro.campaign import CampaignResult, Job, JobResult, PolicySpec

SUBSET = ["mgrid", "compress"]


@pytest.fixture(scope="module")
def suite():
    """One campaign feeds every table below (and sizes the figures)."""
    return run_campaign(SUBSET, scale="tiny", include_native=True,
                        workers=0)


class TestRunner:
    def test_native_measures_functional_execution(self, suite):
        native = suite[Job("mgrid", "native", "tiny").key].native
        assert native.instructions > 0
        assert native.seconds > 0
        assert native.output == suite[
            Job("mgrid", "fast", "tiny").key].result.output

    def test_unknown_simulator(self):
        with pytest.raises(ValueError):
            Job("mgrid", simulator="warp-drive")

    def test_progress_reaches_a_custom_sink(self):
        """Pool options pass through to ``run_campaign`` untouched."""
        from repro.campaign import ProgressSink

        class Collector(ProgressSink):
            def emit(self, kind, **fields):
                events.append((kind, fields.get("key")))

        events = []
        table4(["compress"], scale="tiny", workers=0,
               progress=Collector())
        assert ("job-ok", Job("compress", "fast", "tiny").key) in events

    def test_failed_job_raises_naming_the_key(self, suite):
        job = Job("mgrid", "fast", "tiny")
        broken = CampaignResult(suite.campaign, [
            JobResult(job=job, status="failed", error="boom")])
        with pytest.raises(RuntimeError, match="mgrid:fast:tiny: boom"):
            table4(["mgrid"], scale="tiny", result=broken)


class TestCannedResult:
    def test_rows_without_running_anything(self, suite, monkeypatch):
        """Tables 4 and 5 are functions of a result: built by hand from
        two canned JobResults, with everything that could run a job
        patched to raise."""
        import repro.api
        import repro.campaign.engine
        import repro.campaign.worker

        canned = CampaignResult(suite.campaign, [
            JobResult(job=job, status="ok", result=suite[job.key].result)
            for job in (Job(name, "fast", "tiny") for name in SUBSET)
        ])

        def refuse(*args, **kwargs):
            raise AssertionError("a canned result must not run jobs")

        monkeypatch.setattr(repro.api, "run_campaign", refuse)
        monkeypatch.setattr(repro.campaign.worker, "execute_job", refuse)
        monkeypatch.setattr(repro.campaign.engine, "execute_job", refuse)
        rows4 = table4(SUBSET, scale="tiny", result=canned)
        rows5 = table5(SUBSET, scale="tiny", result=canned)
        assert [r.benchmark for r in rows4] == SUBSET
        assert [r.benchmark for r in rows5] == SUBSET
        for row4, row5, name in zip(rows4, rows5, SUBSET):
            memo = canned[Job(name, "fast", "tiny").key].result.memo
            assert row4.detailed_instructions == memo.detailed_instructions
            assert row5.static_configs == memo.configs_allocated
        # Table 2 reads jobs the canned result does not hold.
        with pytest.raises(KeyError, match="native"):
            table2(SUBSET, scale="tiny", result=canned)


class TestTable2:
    def test_rows_and_invariants(self, suite):
        rows = table2(SUBSET, scale="tiny", result=suite)
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

    def test_render(self, suite):
        text = render_table2(table2(SUBSET, scale="tiny", result=suite))
        assert "107.mgrid" in text
        assert "Slow/Fast" in text


class TestTable3:
    def test_rows(self, suite):
        rows = table3(SUBSET, scale="tiny", result=suite)
        for row in rows:
            # Sanity at noisy tiny scale; strong claims are in EXPERIMENTS.md.
            assert row.fast_kinsts > row.slow_kinsts * 0.5
            assert row.fast_vs_baseline > 0.5
            assert row.cycles > 0

    def test_render(self, suite):
        text = render_table3(table3(SUBSET, scale="tiny", result=suite))
        assert "Fast/Base" in text


class TestTable4:
    def test_fraction_consistency(self, suite):
        rows3 = table3(SUBSET, scale="tiny", result=suite)
        for row, row3 in zip(table4(SUBSET, scale="tiny", result=suite),
                             rows3):
            total = row.detailed_instructions + row.replayed_instructions
            assert total == row3.instructions
            assert 0 < row.detailed_fraction < 1

    def test_render(self, suite):
        text = render_table4(table4(SUBSET, scale="tiny", result=suite))
        assert "%" in text


class TestTable5:
    def test_paper_band_shape(self, suite):
        for row in table5(SUBSET, scale="tiny", result=suite):
            assert row.static_configs > 0
            assert row.static_actions > row.static_configs
            # Every configuration visit is followed by an advance and
            # an outcome (configurations are cut only after one).
            assert 2.0 <= row.actions_per_config <= 10.0
            assert row.cycles_per_config >= 1.0
            assert row.max_chain >= row.avg_chain

    def test_render(self, suite):
        text = render_table5(table5(SUBSET, scale="tiny", result=suite))
        assert "Act/Cfg" in text


class TestFigure7:
    def test_sweep_points(self, suite):
        points = figure7(["mgrid"], fractions=(0.2, 1.0), scale="tiny",
                         result=suite, workers=0)
        assert len(points) == 2
        by_fraction = {p.limit_fraction: p for p in points}
        # A tight limit flushes; a generous one may not.
        assert by_fraction[0.2].flushes >= by_fraction[1.0].flushes

    def test_exactly_two_campaigns(self, monkeypatch):
        """The unbounded slow + fast pass, then the policy grid with
        equal limits (both fractions clamp to the 512-byte floor)
        collapsed into one job."""
        import repro.api

        campaigns = []
        real = repro.api.run_campaign

        def counting(**options):
            campaigns.append([job.key for job in options["jobs"]])
            return real(**options)

        monkeypatch.setattr(repro.api, "run_campaign", counting)
        points = figure7(["mgrid"], fractions=(1e-6, 2e-6), scale="tiny",
                         workers=0)
        flush = Job("mgrid", "fast", "tiny", policy=PolicySpec("flush", 512))
        assert campaigns == [
            [Job("mgrid", "slow", "tiny").key,
             Job("mgrid", "fast", "tiny").key],
            [flush.key],
        ]
        assert [p.limit_bytes for p in points] == [512, 512]

    def test_series_grouping(self, suite):
        points = figure7(SUBSET, fractions=(0.5, 1.0), scale="tiny",
                         result=suite, workers=0)
        series = figure7_series(points)
        assert set(series) == set(SUBSET)
        for line in series.values():
            limits = [p.limit_bytes for p in line]
            assert limits == sorted(limits)

    def test_render(self, suite):
        text = render_figure7(figure7(
            ["mgrid"], fractions=(0.5, 1.0), scale="tiny", result=suite,
            workers=0))
        assert "50%" in text and "100%" in text


class TestPolicyStudy:
    def test_three_policies_per_workload(self, suite):
        rows = gc_policy_study(["mgrid"], scale="tiny", result=suite,
                               workers=0)
        assert [r.policy for r in rows] == [
            "flush", "copying-gc", "generational-gc"
        ]

    def test_render(self, suite):
        text = render_policy_study(gc_policy_study(
            ["mgrid"], scale="tiny", result=suite, workers=0))
        assert "copying-gc" in text
