"""P-action cache inspection — the whole-cache statistics view.

:func:`cache_summary` counts what a p-action cache holds (the aggregate
view of the paper's Table 5): configurations, actions, outcome edges,
modelled bytes and the mix of node kinds. Useful when debugging
memoization ("how much did this run record?") and in teaching
contexts; ``examples/persistent_memoization.py`` prints it.
"""

from __future__ import annotations

from repro.memo.pcache import PActionCache


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
