"""Memo-safety checker: hidden pipeline state vs. the codec manifest."""

import textwrap

from repro.lint import LintContext, run_checkers
from repro.lint.memosafety import MemoSafetyChecker, allowed_fields
from repro.uarch.config_codec import CONFIG_FIELD_MANIFEST


def lint(code):
    context = LintContext.for_source(textwrap.dedent(code), path="<test>")
    return run_checkers(context, [MemoSafetyChecker])


def rules(code):
    return sorted({f.rule for f in lint(code)})


CLEAN_IQENTRY = """
class IQEntry:
    __slots__ = ("instr", "stage", "timer", "pred_taken",
                 "mispredicted", "jump_target")

    def __init__(self, instr):
        self.instr = instr
        self.stage = 0
        self.timer = 0
        self.pred_taken = False
        self.mispredicted = False
        self.jump_target = None
"""


class TestHiddenState:
    def test_clean_iqentry_passes(self):
        assert rules(CLEAN_IQENTRY) == []

    def test_dummy_mutable_attribute_detected(self):
        """The acceptance fixture: one extra attribute on an iQ entry
        is hidden state — two pipeline states differing only in it
        would collide on one configuration key."""
        findings = lint(CLEAN_IQENTRY + """
    def touch(self):
        self.history = []
""")
        assert [f.rule for f in findings] == ["memo/hidden-state"]
        assert "history" in findings[0].message
        assert "collide" in findings[0].message

    def test_extra_slot_detected(self):
        findings = lint("""
            class IQEntry:
                __slots__ = ("instr", "stage", "timer", "pred_taken",
                             "mispredicted", "jump_target", "age")
        """)
        assert [f.rule for f in findings] == ["memo/hidden-state"]
        assert "age" in findings[0].message

    def test_private_attribute_still_counts(self):
        assert rules("""
            class InstructionQueue:
                __slots__ = ("entries", "capacity", "_dirty")
        """) == ["memo/hidden-state"]

    def test_simulator_attrs_checked_against_pipeline_group(self):
        findings = lint("""
            class DetailedSimulator:
                def __init__(self, executable, params):
                    self.executable = executable
                    self.params = params
                    self.iq = None
                    self.fetch_pc = 0
                    self.fetch_stalled = False
                    self.fetch_halted = False
                    self.cycle_count = 0
        """)
        assert [f.rule for f in findings] == ["memo/hidden-state"]
        assert "cycle_count" in findings[0].message

    def test_unrelated_class_names_ignored(self):
        assert rules("""
            class Whatever:
                def __init__(self):
                    self.anything = 1
        """) == []


class TestOpenInstanceDict:
    def test_iqentry_without_slots_flagged(self):
        assert "memo/open-instance-dict" in rules("""
            class IQEntry:
                def __init__(self, instr):
                    self.instr = instr
        """)

    def test_queue_without_slots_flagged(self):
        assert "memo/open-instance-dict" in rules("""
            class InstructionQueue:
                def __init__(self, capacity):
                    self.capacity = capacity
                    self.entries = []
        """)

    def test_slotted_classes_pass(self):
        assert rules("""
            class InstructionQueue:
                __slots__ = ("entries", "capacity")

                def __init__(self, capacity):
                    self.capacity = capacity
                    self.entries = []
        """) == []


class TestManifestHelpers:
    def test_allowed_fields_union_for_simulator(self):
        allowed = allowed_fields("DetailedSimulator")
        assert allowed == (CONFIG_FIELD_MANIFEST["pipeline"]
                           | CONFIG_FIELD_MANIFEST["signature"])

    def test_unknown_class_has_no_field_set(self):
        assert allowed_fields("SomethingElse") is None


class TestRealSourcesAreBound:
    """The real simulator classes must stay inside the manifest — run
    the checker over the actual installed sources."""

    def _lint_module(self, module):
        import inspect

        path = inspect.getsourcefile(module)
        with open(path) as handle:
            source = handle.read()
        context = LintContext.for_source(source, path=path)
        return run_checkers(context, [MemoSafetyChecker])

    def test_iq_module_clean(self):
        from repro.uarch import iq

        assert self._lint_module(iq) == []

    def test_detailed_module_clean(self):
        from repro.uarch import detailed

        assert self._lint_module(detailed) == []
