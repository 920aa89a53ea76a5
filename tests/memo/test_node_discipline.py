"""Structural discipline of the p-action cache's node classes.

Nodes are allocated by the million and their footprint is a *model*
(``size_bytes``) that Table 5 and Figure 7 account with, so three
properties are checked on the class objects and on real graphs:

* every ``Node`` class declares ``__slots__`` — an instance ``__dict__``
  is memory the model cannot see and a place to stash undeclared state;
* a slot holding a growable container comes with a ``size_bytes``
  override below ``Node`` — the root's fixed ``ACTION_BYTES`` cannot
  cover growth (``OutcomeNode.edges`` / ``EDGE_BYTES``);
* no outcome node holds ``next`` — its successors are keyed by the
  world's reply in ``edges``, and a bare successor would replay past an
  outcome it never checked.
"""

import io
from collections.abc import MutableMapping, MutableSequence, MutableSet

import pytest

from repro.errors import MemoizationError
from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    ControlNode,
    EndNode,
    LoadIssueNode,
    LoadPollNode,
    Node,
    RetireNode,
    RollbackNode,
    StoreIssueNode,
)
from repro.memo.pcache import PActionCache
from repro.memo.persist import read_pcache, write_pcache
from repro.sim.fastsim import FastSim
from repro.uarch.interactions import Retire, Rollback
from repro.workloads import load_workload

#: One way to build each concrete node class. A concrete class missing
#: here fails ``test_container_slot_has_a_size_override``.
FACTORIES = {
    ConfigNode: lambda: ConfigNode(bytes(10), 16),
    AdvanceNode: lambda: AdvanceNode(1),
    RetireNode: lambda: RetireNode(Retire(1, 0, 0, 0, 0)),
    RollbackNode: lambda: RollbackNode(Rollback(0, 0, 0, 0)),
    ControlNode: ControlNode,
    LoadIssueNode: lambda: LoadIssueNode(0),
    LoadPollNode: lambda: LoadPollNode(0),
    StoreIssueNode: lambda: StoreIssueNode(0),
    EndNode: lambda: EndNode(0),
}

#: Programs whose recorded graphs are walked.
PROGRAMS = ("compress", "go", "tomcatv")


def node_classes():
    """``Node`` and every class below it, in a stable order."""
    found = []
    frontier = [Node]
    while frontier:
        cls = frontier.pop()
        if cls not in found:
            found.append(cls)
            frontier.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__qualname__)


def concrete_classes():
    """Node classes with no subclass — the ones recording builds."""
    return [cls for cls in node_classes() if not cls.__subclasses__()]


def _slots(cls):
    return [name for klass in cls.__mro__
            for name in vars(klass).get("__slots__", ())]


def _holds_next(node):
    return node.is_outcome and node.next is not None


@pytest.fixture(scope="module")
def recorded_graphs():
    """Per program: the recorded cache and its write/read round trip."""
    graphs = {}
    for name in PROGRAMS:
        sim = FastSim(load_workload(name, "tiny"))
        sim.run()
        buffer = io.BytesIO()
        write_pcache(sim.pcache, buffer)
        buffer.seek(0)
        graphs[name] = (sim.pcache, read_pcache(buffer))
    return graphs


@pytest.mark.parametrize("cls", node_classes(),
                         ids=lambda cls: cls.__qualname__)
def test_every_node_class_declares_slots(cls):
    assert "__slots__" in vars(cls), cls.__qualname__


@pytest.mark.parametrize("cls", concrete_classes(),
                         ids=lambda cls: cls.__qualname__)
def test_container_slot_has_a_size_override(cls):
    assert cls in FACTORIES, f"no factory for {cls.__qualname__}"
    node = FACTORIES[cls]()
    assert not hasattr(node, "__dict__")
    containers = [
        name for name in _slots(cls)
        if isinstance(getattr(node, name, None),
                      (MutableMapping, MutableSequence, MutableSet))
    ]
    if containers:
        assert any("size_bytes" in vars(klass)
                   for klass in cls.__mro__[:cls.__mro__.index(Node)]), (
            f"{cls.__qualname__}.{containers[0]} is a container but no "
            "class below Node overrides size_bytes")


@pytest.mark.parametrize("cls", [cls for cls in concrete_classes()
                                 if cls.is_outcome],
                         ids=lambda cls: cls.__qualname__)
def test_built_outcome_node_holds_no_next(cls):
    assert not _holds_next(FACTORIES[cls]())


def test_alloc_action_refuses_next_on_an_outcome_node():
    """``attach``'s copy of the link is tested in test_pcache.py."""
    cache = PActionCache()
    control = cache.alloc_action(ControlNode())
    with pytest.raises(MemoizationError, match="needs an edge key"):
        cache.alloc_action(AdvanceNode(1), (control, None))
    assert control.next is None


@pytest.mark.parametrize("name", PROGRAMS)
def test_recorded_and_persisted_outcome_nodes_hold_no_next(
        recorded_graphs, name):
    for cache in recorded_graphs[name]:
        nodes = list(cache.reachable_nodes())
        assert any(node.is_outcome for node in nodes)
        assert not [node for node in nodes if _holds_next(node)]
        assert {type(node) for node in nodes} <= set(FACTORIES)
