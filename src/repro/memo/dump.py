"""P-action cache inspection — render the graph the paper draws.

The paper's Figures 5 and 6 depict configurations linked to action
chains with outcome-keyed branches. :func:`dump_chain` renders one
configuration's chain in that style; :func:`cache_summary` gives the
whole-cache statistics view. Useful when debugging memoization issues
("why did fast-forwarding stop here?") and in teaching contexts.

Example output::

    Config 38B (11 instructions, start 0x10074)
      +6 cycles
      Retire 4 (1 loads)
      IssueLoad #0
        = 1  -> ...
        = 6  -> Config 40B ...
        = 18 -> <not yet computed>
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.program import Executable
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
from repro.uarch.config_codec import decode_config


def describe_node(node: Node) -> str:
    """One-line description of an action node."""
    kind = type(node)
    if kind is ConfigNode:
        return f"Config {len(node.blob)}B"
    if kind is AdvanceNode:
        return f"+{node.delta} cycles"
    if kind is RetireNode:
        request = node.request
        parts = [f"Retire {request.count}"]
        if request.loads:
            parts.append(f"{request.loads} loads")
        if request.stores:
            parts.append(f"{request.stores} stores")
        if request.branches:
            parts.append(f"{request.branches} branches")
        return parts[0] + (
            f" ({', '.join(parts[1:])})" if len(parts) > 1 else ""
        )
    if kind is RollbackNode:
        return f"Rollback branch#{node.request.control_ordinal}"
    if kind is ControlNode:
        return "ReturnToDirectExec"
    if kind is LoadIssueNode:
        return f"IssueLoad #{node.ordinal}"
    if kind is LoadPollNode:
        return f"PollLoad #{node.ordinal}"
    if kind is StoreIssueNode:
        return f"IssueStore #{node.ordinal}"
    if kind is EndNode:
        return f"End (+{node.delta} cycles)"
    return repr(node)  # pragma: no cover


def describe_config(node: ConfigNode,
                    executable: Optional[Executable] = None) -> str:
    """Describe a configuration, decoding it when possible."""
    base = describe_node(node)
    if executable is None:
        return base
    entries, fetch_pc, stalled, halted = decode_config(node.blob, executable)
    detail = f"{len(entries)} instructions"
    if entries:
        detail += f", start 0x{entries[0].instr.address:x}"
    if stalled:
        detail += ", fetch stalled"
    if halted:
        detail += ", fetch halted"
    elif fetch_pc is not None:
        detail += f", fetch 0x{fetch_pc:x}"
    return f"{base} ({detail})"


def dump_chain(
    start: ConfigNode,
    executable: Optional[Executable] = None,
    max_nodes: int = 40,
) -> str:
    """Render the action chain from *start*, Figure-5 style.

    Follows single successors inline; at outcome nodes, lists every
    recorded edge (descending one level) and marks missing outcomes as
    "<not yet computed>" — the question marks of Figure 6.
    """
    lines: List[str] = []

    def walk(node: Optional[Node], depth: int, budget: int) -> int:
        indent = "  " * depth
        while node is not None and budget > 0:
            budget -= 1
            if type(node) is ConfigNode:
                lines.append(indent + describe_config(node, executable))
                if depth > 0:
                    return budget  # stop at the next configuration
                node = node.next
                continue
            if node.is_outcome:
                lines.append(indent + describe_node(node))
                if not node.edges:
                    lines.append(indent + "  = <not yet computed>")
                for key, successor in node.edges.items():
                    lines.append(indent + f"  = {key!r} ->")
                    budget = walk(successor, depth + 2, budget)
                return budget
            lines.append(indent + describe_node(node))
            if type(node) is EndNode:
                return budget
            node = node.next
        if node is not None and budget <= 0:
            lines.append(indent + "...")
        elif node is None:
            lines.append(indent + "<chain truncated>")
        return budget

    walk(start, 0, max_nodes)
    return "\n".join(lines)


def cache_summary(cache: PActionCache) -> str:
    """Whole-cache statistics (the aggregate view of Table 5)."""
    node_counts = {}
    edge_total = 0
    for node in cache.reachable_nodes():
        name = type(node).__name__
        node_counts[name] = node_counts.get(name, 0) + 1
        if node.is_outcome:
            edge_total += len(node.edges)
    lines = [
        "P-action cache summary",
        f"  configurations indexed : {len(cache)}",
        f"  configs allocated      : {cache.configs_allocated}",
        f"  actions allocated      : {cache.actions_allocated}",
        f"  outcome edges          : {edge_total}",
        f"  modelled bytes         : {cache.bytes_used}"
        f" (peak {cache.peak_bytes})",
        f"  collections/flushes    : {cache.collections}",
        "  node mix:",
    ]
    for name in sorted(node_counts):
        lines.append(f"    {name:16s} {node_counts[name]}")
    return "\n".join(lines)
