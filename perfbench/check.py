"""Independent output checker.

Everything here is plain: ``Fraction`` sums for l1 distances, one BFS per
source for chain distances, double loops for metric diameters.  It reads the
program's inputs and outputs as data (sets, weight dicts, distance rows) and
imports nothing from ``coarsedim``, so a later change to the library's
kernels cannot change what the checker accepts.

Each function returns ``None`` when the reported value re-verifies and a
short reason when it does not.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


def l1(a: dict, b: dict) -> Fraction:
    total = Fraction(0)
    for v in set(a) | set(b):
        total += abs(a.get(v, 0) - b.get(v, 0))
    return total


def adjacency(sets, n: int) -> list[set[int]]:
    adj = [{x} for x in range(n)]
    for s in sets:
        for x in s:
            adj[x].update(s)
    return adj


def bfs(adj, source: int) -> list[int | None]:
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def chain_diameter(adj, points) -> int | None:
    """Largest chain distance within ``points``; None when some pair is disconnected."""
    best = 0
    for a in points:
        dist = bfs(adj, a)
        for b in points:
            if dist[b] is None:
                return None
            best = max(best, dist[b])
    return best


def metric_diameter(dist, points) -> Fraction:
    pts = sorted(points)
    return max((dist[a][b] for a in pts for b in pts), default=Fraction(0))


def star_sets(sets, against) -> list[frozenset[int]]:
    """Each set replaced by the union of the elements of ``against`` meeting it."""
    return [frozenset().union(*(t for t in against if t & s)) for s in sets]


def unit_sums(values: dict) -> str | None:
    for x, w in values.items():
        if sum(w.values()) != 1 or any(c < 0 for c in w.values()):
            return f"weights at point {x} are not a probability vector"
    return None


def variation_witness(values: dict, sets, value: Fraction, pair) -> str | None:
    """The reported pair lies in one element and realises the reported variation."""
    if pair is None:
        return None if value == 0 else f"variation {value} has no witness pair"
    x, y = pair
    if not x < y:
        return f"variation pair {pair} is not ordered"
    if not any(x in s and y in s for s in sets):
        return f"variation pair {pair} shares no cover element"
    if l1(values[x], values[y]) != value:
        return f"variation pair {pair} does not realise {value}"
    return None


def lipschitz_witness(values: dict, dist, delta: Fraction, value: Fraction,
                      allowance: Fraction, pair) -> str | None:
    x, y = pair
    if allowance != delta * dist[x][y] + delta:
        return f"Lipschitz allowance at {pair} is not delta*d + delta"
    if l1(values[x], values[y]) != value:
        return f"Lipschitz pair {pair} does not realise {value}"
    return None


def star_preimage(values: dict, v) -> list[int]:
    return sorted(x for x, w in values.items() if v in w)


def chain_bound_witness(values: dict, vertices, adj, witness, max_diameter,
                        memo: dict) -> str | None:
    """The witness vertex's star preimage has the reported chain diameter.

    ``max_diameter`` is an int, or None for an infinite diameter.
    """
    if witness is None:
        return None if max_diameter == 0 else "boundedness has no witness"
    pts = star_preimage(values, vertices[witness])
    key = tuple(pts)
    if key not in memo:
        memo[key] = chain_diameter(adj, pts)
    if memo[key] != max_diameter:
        return f"star preimage {witness} has chain diameter {memo[key]}, not {max_diameter}"
    return None


def metric_bound_witness(values: dict, vertices, dist, witness,
                         max_diameter: Fraction) -> str | None:
    if witness is None:
        return None if max_diameter == 0 else "boundedness has no witness"
    diam = metric_diameter(dist, star_preimage(values, vertices[witness]))
    if diam != max_diameter:
        return f"star preimage {witness} has metric diameter {diam}, not {max_diameter}"
    return None


def asdim_count(cover_sets, witness_sets, n: int) -> str | None:
    """Every cover element meets at most n+1 witness elements and fits in one."""
    for i, s in enumerate(cover_sets):
        met = sum(1 for t in witness_sets if s & t)
        if met > n + 1:
            return f"element {i} meets {met} witness elements"
        if not any(s <= t for t in witness_sets):
            return f"element {i} fits in no witness element"
    return None
