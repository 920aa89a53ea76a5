"""Obs-safety checker: telemetry hooks must be write-only."""

import textwrap

from repro.lint import LintContext, run_checkers
from repro.lint.obschecks import ObsSafetyChecker
from repro.lint.runner import lint_source


def lint(code):
    context = LintContext.for_source(textwrap.dedent(code), path="<test>")
    return run_checkers(context, [ObsSafetyChecker])


def rules(code):
    return sorted(f.rule for f in lint(code))


class TestCleanShapes:
    def test_bare_statement_hook_calls_pass(self):
        assert rules("""
            obs.counter("memo.resyncs")
            obs.event("job-ok", cat="campaign", seconds=1.5)
            self.obs.gauge("sim.cycles", cycles)
            self._obs.observe("memo.chain_length", length)
        """) == []

    def test_unbound_with_span_passes(self):
        assert rules("""
            with obs.span("memo.record", cat="memo"):
                step()
            with self.obs.span("sim.run"), open("x") as fh:
                fh.read()
        """) == []

    def test_non_observer_receivers_ignored(self):
        assert rules("""
            total = registry.counter("x")
            observatory.span("not-an-obs-hook")
            result = compute.observe(thing)
        """) == []

    def test_plain_reads_in_args_pass(self):
        assert rules("""
            obs.sample_cycle(world.cycle, self, len(iq.entries))
            obs.gauge("bytes", cache.bytes_used + overhead)
        """) == []


class TestResultUsed:
    def test_assignment_flagged(self):
        findings = lint('x = obs.counter("c")')
        assert [f.rule for f in findings] == ["obs/result-used"]
        assert "counter" in findings[0].message

    def test_return_flagged(self):
        assert rules("""
            def f(obs):
                return obs.event("x")
        """) == ["obs/result-used"]

    def test_condition_flagged(self):
        assert rules("""
            if obs.span("s"):
                pass
        """) == ["obs/result-used"]

    def test_with_as_binding_flagged(self):
        """`with obs.span(...) as x` binds a null-path None — disallowed."""
        assert rules("""
            with obs.span("memo.record") as handle:
                pass
        """) == ["obs/result-used"]

    def test_nested_expression_flagged(self):
        assert rules('print(obs.counter("c"))') == ["obs/result-used"]


class TestMutatingArg:
    def test_walrus_in_arg_flagged(self):
        findings = lint('obs.gauge("n", (n := compute()))')
        assert [f.rule for f in findings] == ["obs/mutating-arg"]
        assert "walrus" in findings[0].message

    def test_mutating_method_in_arg_flagged(self):
        findings = lint('obs.event("x", size=len(seen.append(item)))')
        assert [f.rule for f in findings] == ["obs/mutating-arg"]
        assert ".append()" in findings[0].message

    def test_mutating_method_in_keyword_flagged(self):
        assert rules(
            'obs.counter("c", amount=queue.pop())'
        ) == ["obs/mutating-arg"]

    def test_both_rules_can_fire_on_one_call(self):
        assert rules('x = obs.gauge("g", items.pop())') == [
            "obs/mutating-arg", "obs/result-used"]


class TestSuppression:
    def test_disable_comment_honoured(self):
        findings = lint_source(
            'x = obs.counter("c")'
            "  # repro-lint: disable=obs/result-used\n"
        )
        assert [f.rule for f in findings if f.rule.startswith("obs/")] == []

    def test_rules_registered_in_default_run(self):
        findings = lint_source('x = obs.counter("c")\n')
        assert "obs/result-used" in {f.rule for f in findings}


class TestInstrumentedTreeIsClean:
    def test_obs_package_and_instrumented_modules_pass(self):
        from repro.lint.runner import lint_paths

        findings = lint_paths(["src/repro/obs"], strict=True)
        assert [f for f in findings if f.rule.startswith("obs/")] == []
