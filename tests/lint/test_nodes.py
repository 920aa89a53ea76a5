"""Action-node discipline checker: slots, size accounting, edges."""

import textwrap

from repro.lint import LintContext, run_checkers
from repro.lint.nodes import ActionNodeChecker


def lint(code):
    context = LintContext.for_source(textwrap.dedent(code), path="<test>")
    return run_checkers(context, [ActionNodeChecker])


def rules(code):
    return sorted({f.rule for f in lint(code)})


BASE = """
class Node:
    __slots__ = ("next",)

    def __init__(self):
        self.next = None

    def size_bytes(self):
        return 16
"""


class TestMissingSlots:
    def test_subclass_without_slots_flagged(self):
        assert rules(BASE + """
class RetireNode(Node):
    def __init__(self):
        super().__init__()
""") == ["memo/missing-slots"]

    def test_slotted_subclass_passes(self):
        assert rules(BASE + """
class RetireNode(Node):
    __slots__ = ("count",)

    def __init__(self, count):
        super().__init__()
        self.count = count
""") == []

    def test_root_itself_requires_slots(self):
        assert rules("""
class Node:
    def __init__(self):
        self.next = None
""") == ["memo/missing-slots"]

    def test_unrelated_hierarchies_ignored(self):
        assert rules("""
class Reporter:
    def __init__(self):
        self.lines = []
""") == []

    def test_transitive_subclasses_checked(self):
        assert rules(BASE + """
class OutcomeNode(Node):
    __slots__ = ("edges",)

    def __init__(self):
        super().__init__()
        self.edges = {}

    def size_bytes(self):
        return 32

class LoadNode(OutcomeNode):
    def __init__(self):
        super().__init__()
""") == ["memo/missing-slots"]


class TestUnaccountedContainer:
    def test_container_without_size_override_flagged(self):
        findings = lint(BASE + """
class BranchNode(Node):
    __slots__ = ("history",)

    def __init__(self):
        super().__init__()
        self.history = []
""")
        assert [f.rule for f in findings] == ["memo/unaccounted-container"]
        assert "BranchNode.history" in findings[0].message

    def test_size_override_in_class_accepted(self):
        assert rules(BASE + """
class OutcomeNode(Node):
    __slots__ = ("edges",)

    def __init__(self):
        super().__init__()
        self.edges = {}

    def size_bytes(self):
        return 16 + 24 * len(self.edges)
""") == []

    def test_size_override_in_ancestor_accepted(self):
        """The OutcomeNode.edges / EDGE_BYTES pattern: descendants of
        an accounted class inherit the accounting."""
        assert rules(BASE + """
class OutcomeNode(Node):
    __slots__ = ("edges",)

    def __init__(self):
        super().__init__()
        self.edges = {}

    def size_bytes(self):
        return 16 + 24 * len(self.edges)

class LoadNode(OutcomeNode):
    __slots__ = ("pending",)

    def __init__(self):
        super().__init__()
        self.pending = {}
""") == []

    def test_root_size_bytes_does_not_count(self):
        """The root's fixed-size model cannot cover a growing
        container in a subclass."""
        assert rules(BASE + """
class TraceNode(Node):
    __slots__ = ("seen",)

    def __init__(self):
        super().__init__()
        self.seen = set()
""") == ["memo/unaccounted-container"]

    def test_scalar_attributes_are_fine(self):
        assert rules(BASE + """
class CycleNode(Node):
    __slots__ = ("cycles",)

    def __init__(self, cycles):
        super().__init__()
        self.cycles = cycles
""") == []


class TestOutcomeNextAssignment:
    OUTCOME_BASE = BASE + """
class OutcomeNode(Node):
    __slots__ = ("edges",)
    is_outcome = True

    def __init__(self):
        super().__init__()
        self.edges = {}

    def size_bytes(self):
        return 32
"""

    def test_next_assignment_in_outcome_subclass_flagged(self):
        findings = lint(self.OUTCOME_BASE + """
class LoadNode(OutcomeNode):
    __slots__ = ()

    def resolve(self, successor):
        self.next = successor
""")
        assert [f.rule for f in findings] == \
            ["memo/outcome-next-assignment"]
        assert "edge table" in findings[0].message

    def test_edge_routing_passes(self):
        assert rules(self.OUTCOME_BASE + """
class LoadNode(OutcomeNode):
    __slots__ = ()

    def resolve(self, outcome, successor):
        self.edges[outcome] = successor
""") == []

    def test_non_outcome_nodes_may_set_next(self):
        assert rules(BASE + """
class CycleNode(Node):
    __slots__ = ()

    def link(self, successor):
        self.next = successor
""") == []

    def test_is_outcome_flag_alone_triggers(self):
        assert rules(BASE + """
class StoreNode(Node):
    __slots__ = ("edges",)
    is_outcome = True

    def __init__(self):
        super().__init__()
        self.edges = {}

    def size_bytes(self):
        return 32

    def hack(self, successor):
        self.next = successor
""") == ["memo/outcome-next-assignment"]


class TestRealActionsModule:
    def test_memo_actions_is_clean(self):
        import inspect

        from repro.memo import actions

        path = inspect.getsourcefile(actions)
        with open(path) as handle:
            source = handle.read()
        context = LintContext.for_source(source, path=path)
        assert run_checkers(context, [ActionNodeChecker]) == []
