"""Tests for the top-level public API surface."""

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_assemble_eager(self):
        exe = repro.assemble("main: halt")
        assert isinstance(exe, repro.Executable)

    @pytest.mark.parametrize("name", [
        "FastSim", "SlowSim", "IntegratedSimulator", "SamplingSimulator",
        "ProcessorParams", "SimulationResult", "load_workload",
        "WORKLOADS", "trace_pipeline", "profile_pipeline",
    ])
    def test_lazy_attribute(self, name):
        assert getattr(repro, name) is not None

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.WarpDrive  # noqa: B018

    def test_end_to_end_through_top_level(self):
        exe = repro.assemble(
            "main: mov 2, %l0\nadd %l0, 3, %l1\nout %l1\nhalt"
        )
        fast = repro.FastSim(exe).run()
        assert fast.output == [5]

    def test_workload_registry_exposed(self):
        assert "go" in repro.WORKLOADS
        exe = repro.load_workload("go", "tiny")
        assert len(exe.text) > 0


class TestSubpackageSurfaces:
    def test_isa_all(self):
        import repro.isa as isa

        for name in isa.__all__:
            assert hasattr(isa, name), name

    def test_memo_all(self):
        import repro.memo as memo

        for name in memo.__all__:
            assert hasattr(memo, name), name

    def test_uarch_all(self):
        import repro.uarch as uarch

        for name in uarch.__all__:
            assert hasattr(uarch, name), name

    def test_analysis_all(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_workloads_all(self):
        import repro.workloads as workloads

        for name in workloads.__all__:
            assert hasattr(workloads, name), name

    def test_emulator_all(self):
        import repro.emulator as emulator

        for name in emulator.__all__:
            assert hasattr(emulator, name), name


class TestOneHostOneBlockingCaller:
    """The campaign layer has one store, one (blocking) caller and one
    front door; the shared cache tier, the submit/await handle, the
    per-simulation backend and the second and third ways to run a job
    list are gone from every signature and export list."""

    def test_entry_points_lost_the_parked_parameters(self):
        import dataclasses
        import inspect

        import repro.api as api
        from repro.campaign import Campaign, CampaignRunner

        signatures = {
            "simulate": set(inspect.signature(api.simulate).parameters),
            "run_campaign":
                set(inspect.signature(api.run_campaign).parameters),
            "CampaignRunner":
                set(inspect.signature(CampaignRunner).parameters),
        }
        for name, parameters in signatures.items():
            assert not parameters & {"shared_cache_dir", "mp_context"}, name
        assert "backend" not in signatures["simulate"]
        assert "backend" in signatures["run_campaign"]
        # Placement is the runner's alone.
        assert [field.name for field in dataclasses.fields(Campaign)] == [
            "jobs", "name"]

    def test_deleted_names_are_not_exported(self):
        import repro.analysis
        import repro.api
        import repro.campaign
        import repro.obs

        deleted = {
            "submit_campaign", "CampaignHandle", "EventStream",
            "ProgressCounter", "EVENT_SCHEMA", "TieredCacheStore",
            "CircuitBreaker", "shared_tier_breaker", "reset_breakers",
            "CampaignCancelled", "suite_runner", "SuiteRunner",
            "run_jobs", "export_all", "export_json",
        }
        for module in (repro, repro.api, repro.campaign, repro.obs,
                       repro.analysis):
            assert not deleted & set(module.__all__), module.__name__
            for name in deleted:
                assert not hasattr(module, name), (module.__name__, name)
