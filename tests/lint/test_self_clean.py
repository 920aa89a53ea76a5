"""The repository lints itself clean — the tier-1 gate.

This is the point of the whole subsystem: every determinism and
memo-safety rule holds over ``src/repro`` right now, so any future
violation is a regression the CI gate catches. The whole-program form
of the gate is ``test_flow.py::TestRealTree``; here the tree is linted
file by file, once. The workload generators are held to the same
standard through the asm rules.
"""

import os

import pytest

import repro
from repro.lint import exit_code, lint_asm_source, lint_paths
from repro.lint.asmlint import ASM_RULES
from repro.lint.registry import CHECKERS, all_rules

SRC_ROOT = os.path.dirname(repro.__file__)


@pytest.fixture(scope="module")
def tree_findings():
    return lint_paths([SRC_ROOT])


class TestSourceTreeIsClean:
    def test_src_repro_lints_clean(self, tree_findings):
        assert tree_findings == [], "\n".join(
            f.render() for f in tree_findings)

    def test_exit_code_for_the_tree_is_zero(self, tree_findings):
        assert exit_code(tree_findings) == 0


class TestWorkloadProgramsAreClean:
    def test_generated_suite_sources_pass_asm_lint(self):
        from repro.workloads.suite import WORKLOADS

        for name, workload in WORKLOADS.items():
            findings = lint_asm_source(
                workload.source("test"), path=f"{name}.s"
            )
            assert findings == [], (
                name, [f.render() for f in findings]
            )


class TestRegistryShape:
    def test_all_four_checker_families_registered(self):
        names = {checker.name for checker in CHECKERS}
        assert {"determinism", "memo-safety", "action-nodes"} <= names

    def test_rule_ids_are_namespaced_and_unique(self):
        rules = all_rules() + list(ASM_RULES)
        assert len(rules) == len(set(rules))
        for rule in rules:
            family, _, name = rule.partition("/")
            assert family and name, rule
