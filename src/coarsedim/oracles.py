"""Independent brute-force references that the ``oracle`` command runs.

They avoid the library's own algorithms, so they can check it on random tiny
instances: a chain graph built by merging every element into each of its
points, chain indices by literal endpoint enumeration, and the shrinking
clauses checked one by one, point by point.
"""

from __future__ import annotations

from .covers import ChainGraph, Cover, is_refinement
from .extnat import INFINITY, ExtNat


def chain_graph_by_elements(cover: Cover) -> ChainGraph:
    """Chain graph built one element at a time: each point gains every element it lies in."""
    nbrs: list[set[int]] = [{x} for x in range(cover.n_points)]
    for s in cover.sets:
        for x in s:
            nbrs[x].update(s)
    return ChainGraph(tuple(tuple(sorted(v)) for v in nbrs))


def chain_index_by_enumeration(cover: Cover, x: int, region) -> ExtNat:
    """Chain index via the sets of endpoints reachable by chains of length <= j."""
    inside = frozenset(region)
    if x not in inside:
        return ExtNat(0)
    graph = chain_graph_by_elements(cover)
    reachable = {x}
    for j in range(1, cover.n_points + 1):
        nxt = set(reachable)
        for p in reachable:
            nxt.update(graph.neighbors[p])
        reachable = nxt
        if reachable - inside:
            return ExtNat(j)
    return INFINITY


def shrink_clause_violation(fine: Cover, coarse: Cover, shrunk: Cover) -> str | None:
    """The first shrinking clause ``shrunk`` breaks, or None when it keeps all of them.

    The clauses: one element per coarse element, each inside its coarse
    element, a coarsening of ``fine``, multiplicity at most fine's at every
    point, and every coarse point whose coarse multiplicity is at most its fine
    multiplicity kept in each element containing it.
    """
    if len(shrunk.sets) != len(coarse.sets):
        return "length"
    for s, vs in enumerate(coarse.sets):
        if not shrunk.sets[s] <= vs:
            return f"shrinking at element {s}"
    if not is_refinement(fine, shrunk).ok:
        return "coarsening"
    for x in range(fine.n_points):
        if shrunk.multiplicity(x) > fine.multiplicity(x):
            return f"multiplicity at point {x}"
    for s, vs in enumerate(coarse.sets):
        for x in vs:
            if coarse.multiplicity(x) <= fine.multiplicity(x) and x not in shrunk.sets[s]:
                return f"membership of point {x} in element {s}"
    return None
