"""Facade API tests: ``repro.api`` and the lazy top-level re-exports."""

import pytest

import repro
from repro.api import run_campaign, simulate
from repro.isa.assembler import assemble


class TestSimulate:
    def test_workload_name(self):
        result = simulate("compress", engine="fast", scale="tiny")
        assert result.cycles > 0

    def test_engines_agree_on_timing(self):
        fast = simulate("compress", engine="fast", scale="tiny")
        slow = simulate("compress", engine="slow", scale="tiny")
        assert fast.timing_equal(slow)

    def test_executable_passthrough(self):
        source = """
main:
    mov 2, %l0
    add %l0, %l0, %l0
    out %l0
    halt
"""
        result = simulate(assemble(source))
        assert result.output == [4]

    def test_assembly_file_path(self, tmp_path):
        path = tmp_path / "prog.s"
        path.write_text("main:\n    mov 7, %l0\n    out %l0\n    halt\n")
        result = simulate(str(path))
        assert result.output == [7]

    def test_unresolvable_name_rejected(self):
        with pytest.raises(ValueError, match="cannot resolve"):
            simulate("no-such-workload")

    def test_cache_dir_warm_start_is_exact(self, tmp_path):
        cold = simulate("compress", scale="tiny",
                        cache_dir=str(tmp_path))
        warm = simulate("compress", scale="tiny",
                        cache_dir=str(tmp_path))
        assert warm.cycles == cold.cycles
        assert warm.memo.detailed_instructions == 0

    def test_policy_spec_accepted(self):
        from repro.campaign import PolicySpec

        result = simulate("compress", scale="tiny",
                          policy=PolicySpec("flush", 4096))
        assert result.cycles == simulate("compress", scale="tiny").cycles


class TestRunCampaign:
    def test_grid_campaign(self):
        outcome = run_campaign(
            workloads=["compress"], simulators=("fast", "slow"),
            scale="tiny", workers=2,
        )
        assert outcome.ok and len(outcome) == 2
        fast = outcome["compress:fast:tiny"].result
        slow = outcome["compress:slow:tiny"].result
        assert fast.cycles == slow.cycles

    def test_explicit_jobs(self):
        from repro.campaign import Job

        outcome = run_campaign(
            jobs=[Job("go", "fast", "tiny")], workers=0, name="explicit",
        )
        assert outcome.ok
        assert outcome.campaign.name == "explicit"


class TestTopLevelExports:
    def test_lazy_facade_exports(self):
        assert repro.simulate is simulate
        assert repro.run_campaign is run_campaign

    def test_lazy_campaign_types(self):
        from repro.campaign import Campaign, Job, PolicySpec

        assert repro.Campaign is Campaign
        assert repro.Job is Job
        assert repro.PolicySpec is PolicySpec

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_real_symbol
