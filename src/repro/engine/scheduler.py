"""SCC condensation levels and order-preserving work partitions.

Partitioning the call graph's SCC condensation into *levels* — level 0
holds the SCCs with no external callees, level k+1 the SCCs all of
whose external callees sit at levels ≤ k — makes every SCC within one
level independent of every other: two same-level SCCs cannot call each
other, or their levels would differ. The level count is the number of
barrier waves any bottom-up fan-out of return jump functions would
need; the engine builds those in the parent instead, and the benchmark
reports the count as ``engine.waves``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.callgraph.callgraph import CallGraph
from repro.ir.module import Procedure


def condensation_levels(callgraph: CallGraph) -> List[List[List[Procedure]]]:
    """Bottom-up levels of the SCC condensation.

    Returns ``levels[k] = [scc, ...]`` where each SCC is the member list
    exactly as :meth:`CallGraph.sccs` produced it; concatenating the
    levels in order (and the SCCs within each level in their given
    order) reproduces the full bottom-up order, so a merge that walks
    this structure observes summaries in the serial pipeline's order.
    """
    components = callgraph.sccs()  # reverse topological: callees first
    component_of: Dict[Procedure, int] = {}
    for index, component in enumerate(components):
        for member in component:
            component_of[member] = index

    level_of: List[int] = []
    for index, component in enumerate(components):
        callee_levels = [
            level_of[component_of[callee]]
            for member in component
            for callee in callgraph.callees(member)
            if component_of[callee] != index
        ]
        level_of.append(max(callee_levels) + 1 if callee_levels else 0)

    depth = max(level_of) + 1 if level_of else 0
    levels: List[List[List[Procedure]]] = [[] for _ in range(depth)]
    for index, component in enumerate(components):
        levels[level_of[index]].append(component)
    return levels


def partition(items: List, chunks: int) -> List[List]:
    """Split ``items`` into at most ``chunks`` contiguous, order-
    preserving, near-equal slices (no empty slices)."""
    if not items:
        return []
    chunks = max(1, min(chunks, len(items)))
    size, remainder = divmod(len(items), chunks)
    result = []
    start = 0
    for index in range(chunks):
        end = start + size + (1 if index < remainder else 0)
        result.append(items[start:end])
        start = end
    return result
