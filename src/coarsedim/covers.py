"""Finite coarse spaces and the algebra of indexed covers.

Points are ids 0..n-1.  A space carries a gauge cover; every notion of
"bounded" below is chain diameter measured in the gauge's chain graph.
A cover is an indexed family of point subsets.  The index order is the
well-order used by the shrinking construction, and shrinking outputs keep
empty members (flagged via ``allow_empty``) so their index set stays
aligned with the cover they shrink.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import InputError, PreconditionError
from .extnat import INFINITY, ExtNat


@dataclass(frozen=True)
class Cover:
    """Indexed family of subsets of {0, ..., n_points-1} whose union is everything."""

    sets: tuple[frozenset[int], ...]
    n_points: int
    allow_empty: bool = False
    # iterated_star's retained level: (level, balls, the points each ball gained last)
    _star_tower = None

    def __post_init__(self):
        _check_int(self.n_points, 1, "n_points")
        if not self.sets:
            raise InputError("a cover needs at least one element")
        n = self.n_points
        covered = set().union(*self.sets)
        if not _are_points(covered, n) or (not self.allow_empty and not all(self.sets)):
            for i, s in enumerate(self.sets):  # name the first defect in index order
                if not s and not self.allow_empty:
                    raise InputError(f"cover element {i} is empty")
                for x in s:
                    if type(x) is not int:
                        raise InputError(f"cover element {i} contains {x!r}, not an int point")
                    if not (0 <= x < n):
                        raise InputError(f"cover element {i} contains unknown point {x}")
        if len(covered) != n:
            missing = next(x for x in range(n) if x not in covered)  # stops at the first gap
            raise InputError(f"cover misses point {missing}")

    @staticmethod
    def of(sets: Iterable[Iterable[int]], n_points: int, allow_empty: bool = False) -> "Cover":
        return Cover(tuple(map(frozenset, sets)), n_points, allow_empty)

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.sets[i]

    @cached_property
    def membership(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the ascending indices of the elements containing it."""
        mem: list[list[int]] = [[] for _ in range(self.n_points)]
        for i, s in enumerate(self.sets):
            for x in s:
                mem[x].append(i)
        return tuple(tuple(m) for m in mem)

    @cached_property
    def chain(self) -> "ChainGraph":
        """The chain graph of this cover, built on first use."""
        return chain_graph(self)

    @cached_property
    def _largest(self) -> dict:
        """Per space value, the largest element diameter ``is_uniformly_bounded``
        measured in it and the least index attaining it."""
        return {}

    def multiplicity(self, x: int) -> int:
        """Number of elements containing x (duplicates counted per index)."""
        _check_point(x, self.n_points)
        return len(self.membership[x])

    def max_multiplicity(self) -> int:
        return max(map(len, self.membership))

    def has_empty_elements(self) -> bool:
        return any(not s for s in self.sets)

    def normalize(self) -> "Cover":
        """Drop empty and duplicate elements and elements strictly contained in another.

        Keeps first occurrences, preserving index order of the survivors.
        """
        return Cover(tuple(_maximal(self.sets)), self.n_points, self.allow_empty)


_EXACT = {int, Fraction}  # the exact scalar types: weights, distances, eps, delta and bounds


def _check_int(value, least: int, name: str) -> None:
    """A point count, dimension or scale is an int of at least ``least``; a bool is not one."""
    if type(value) is not int or value < least:
        raise InputError(f"{name} = {value!r} is not an int >= {least}")


def _check_rational(value, least, name: str, strict: bool = True) -> Fraction:
    """An int or a Fraction (never a bool, a float or a str) above ``least``, or at least it
    when not ``strict``; returned as a Fraction."""
    if type(value) not in _EXACT:
        raise InputError(f"{name} = {value!r} is not an int or Fraction")
    if value < least or strict and value == least:
        raise InputError(f"{name} = {value} is not {'>' if strict else '>='} {least}")
    return value if type(value) is Fraction else Fraction(value)


def _check_same_points(a, b) -> None:
    """Two objects over points 0..n-1 must have one n; the message names both."""
    if a.n_points != b.n_points:
        raise InputError(f"{type(a).__name__} of {a.n_points} points and {type(b).__name__} "
                         f"of {b.n_points} points are over different point sets")


def _check_point(x, n: int) -> None:
    """A point of 0..n-1 is an int id in range; a bool or a float is not one."""
    if not (type(x) is int and 0 <= x < n):
        raise InputError(f"unknown point {x!r}")


def _are_points(pts, n: int) -> bool:
    """Whether every member of ``pts`` would pass ``_check_point``: one C-level pass."""
    return set(map(type, pts)) <= {int} and (not pts or (min(pts) >= 0 and max(pts) < n))


def _check_points(points, n: int) -> frozenset[int]:
    """The points as a frozenset; ``_check_point`` names an offender if there is one."""
    pts = frozenset(points)
    if not _are_points(pts, n):
        for x in pts:
            _check_point(x, n)
    return pts


def _by_vertex(sets) -> dict[int, tuple[frozenset[int], ...]]:
    """For each point, the given sets that contain it."""
    at: dict[int, list[frozenset[int]]] = {}
    for f in sets:
        for v in f:
            at.setdefault(v, []).append(f)
    return {v: tuple(fs) for v, fs in at.items()}


def _is_maximal(f: frozenset[int], by_vertex) -> bool:
    """No set strictly contains the nonempty ``f``; a superset holds each of its points."""
    return not any(f < g for g in by_vertex[next(iter(f))])


def _maximal(sets) -> list[frozenset[int]]:
    """The distinct nonempty sets that no other set strictly contains, in first-seen order."""
    distinct = [s for s in dict.fromkeys(sets) if s]
    at = _by_vertex(distinct)
    return [s for s in distinct if _is_maximal(s, at)]


@dataclass(frozen=True)
class FiniteCoarseSpace:
    """A finite point set 0..n-1 with a gauge cover fixing the base scale."""

    n_points: int
    gauge: Cover

    def __post_init__(self):
        _check_int(self.n_points, 1, "n_points")
        _check_same_points(self, self.gauge)
        if self.gauge.has_empty_elements():
            raise InputError("gauge must not contain empty elements")

    @property
    def chain(self) -> "ChainGraph":
        return self.gauge.chain

    @cached_property
    def _diameters(self) -> dict[frozenset[int], ExtNat]:
        """The chain diameters measured so far; the gauge is frozen, so none goes stale."""
        return {}

    def set_diameter(self, points) -> ExtNat:
        """Chain diameter of a point set in the gauge's chain graph, measured once per set."""
        key = _check_points(points, self.n_points)
        d = self._diameters.get(key)
        if d is None:
            d = self._diameters[key] = diameter_in_graph(key, self.chain)
        return d


@dataclass(frozen=True)
class ChainGraph:
    """x ~ y when some element of the generating cover contains both (reflexive)."""

    neighbors: tuple[tuple[int, ...], ...]

    @property
    def n_points(self) -> int:
        return len(self.neighbors)

    def distances_from(self, sources: Iterable[int], within: frozenset[int] | None = None,
                       until: frozenset[int] | None = None) -> list[int | None]:
        """Multi-source BFS distance to the nearest source; None where unreachable.

        With ``within``, the search enters only points of that set: every
        other point but the sources stays None.  With ``until``, the search
        returns once every point of that set has its distance, so points
        farther out may stay None too.  Each distance it gives is exact: BFS
        fixes a point's distance when it first reaches the point.
        """
        dist: list = [None] * self.n_points
        queue: deque[int] = deque(sources)  # BFS distances do not depend on the source order
        for s in queue:
            dist[s] = 0
        # without ``until`` the count starts below zero and never reaches it
        stop = frozenset() if until is None else until
        left = -1 if until is None else len(until.difference(queue))
        while queue and left:
            x = queue.popleft()
            d = dist[x] + 1
            for y in self.neighbors[x]:
                if dist[y] is None and (within is None or y in within):
                    dist[y] = d
                    queue.append(y)
                    if y in stop:
                        left -= 1
                        if not left:
                            break
        return dist

    def is_connected(self) -> bool:
        return all(d is not None for d in self.distances_from([0]))


def chain_graph(cover: Cover) -> ChainGraph:
    """Neighbours of x: the union of the elements containing x.

    Points with the same membership share one row, so a coarse cover whose
    elements hold hundreds of points costs one row per distinct membership,
    not one per point.
    """
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for m in cover.membership:
        if m not in rows:
            rows[m] = tuple(sorted(set().union(*(cover.sets[i] for i in m))))
    return ChainGraph(tuple(rows[m] for m in cover.membership))


@dataclass(frozen=True)
class RefinementCheck:
    """Outcome of a refinement test.

    On success, ``assignment[t]`` is the least coarse index whose element
    contains fine element t.  On failure, ``counterexample`` is the index of
    a fine element contained in no coarse element.
    """

    ok: bool
    assignment: tuple[int, ...] | None
    counterexample: int | None


def is_refinement(fine: Cover, coarse: Cover) -> RefinementCheck:
    """Check that every element of ``fine`` is contained in an element of ``coarse``."""
    _check_same_points(fine, coarse)
    assignment = []
    for t, s in enumerate(fine.sets):
        found = None
        if not s:
            found = 0  # the empty set sits inside everything; least index by convention
        else:
            # an element holding s holds each of its points, so any one point's
            # membership, in ascending order, finds the least such index
            for j in coarse.membership[next(iter(s))]:
                if s <= coarse.sets[j]:
                    found = j
                    break
        if found is None:
            return RefinementCheck(False, None, t)
        assignment.append(found)
    return RefinementCheck(True, tuple(assignment), None)


def star_set(points: Iterable[int], cover: Cover) -> frozenset[int]:
    """Union of all cover elements meeting the given set."""
    return frozenset(_grow(_check_points(points, cover.n_points), cover))


def _grow(frontier: Iterable[int], cover: Cover) -> set[int]:
    """Union of the elements of ``cover`` meeting ``frontier``, each merged once per call."""
    membership, sets = cover.membership, cover.sets
    merged: set[int] = set()
    grown: set[int] = set()
    for x in frontier:
        for e in membership[x]:
            if e not in merged:
                merged.add(e)
                grown |= sets[e]
    return grown


def star_cover(cover: Cover, against: Cover) -> Cover:
    """Element-wise star: each element replaced by its star in ``against``.

    Index set and order of ``cover`` are preserved.
    """
    _check_same_points(cover, against)
    return Cover(tuple(star_set(s, against) for s in cover.sets),
                 cover.n_points, cover.allow_empty)


def iterated_star(cover: Cover, k: int) -> Cover:
    """k-fold star iterate of a cover against itself.

    Level 0 is the cover itself; each level stars every element once more, so
    level k holds the chain balls of radius k around the original elements.
    Index set of the result equals the index set of the input.

    The cover keeps the last level reached, with the points each ball gained
    last, and a call for that level or above continues from it.  A call below
    it drops the kept level, grows each ball from its element and keeps the
    new level instead; level 0 leaves the kept level as it is.
    """
    _check_int(k, 0, "k")
    if k == 0:
        return cover
    tower = cover._star_tower
    if tower is None or k < tower[0]:
        object.__setattr__(cover, "_star_tower", None)  # free the dropped level first
        tower = (0, cover.sets, cover.sets)
    level, balls, gains = tower
    for _ in range(level, k):
        if not any(gains):
            break
        balls, gains = _star_step(balls, gains, cover)
    object.__setattr__(cover, "_star_tower", (k, balls, gains))
    return Cover(balls, cover.n_points, cover.allow_empty)


def _star_step(balls, gains, cover: Cover):
    """One more level of every ball: each grows by the elements meeting its last gains.

    An element merged one level down may be merged again; the tower keeps no
    record of merged elements.
    """
    next_balls: list[frozenset[int]] = []
    next_gains: list[tuple[int, ...]] = []
    for ball, gain in zip(balls, gains):
        gain = _grow(gain, cover) - ball
        if gain:
            ball = ball | gain
        next_balls.append(ball)
        next_gains.append(tuple(gain))
    return tuple(next_balls), tuple(next_gains)


def _region_distances(cover: Cover, inside: frozenset[int]) -> list[int | None]:
    """BFS distances whose entries on the region ``inside`` are its chain indices.

    A shortest chain leaves the region through a point next to it, so the BFS
    starts from those points and enters only the region.  They are found
    through the elements that meet the region but do not lie inside it; when
    the region holds most of the space, starting from the whole complement
    costs less.  Entries off the region are 0 or None and mean nothing.
    """
    n = cover.n_points
    if 2 * len(inside) > n:
        return cover.chain.distances_from(y for y in range(n) if y not in inside)
    membership, sets = cover.membership, cover.sets
    met: set[int] = set()
    rim: set[int] = set()
    for x in inside:
        for e in membership[x]:
            if e not in met:
                met.add(e)
                if not sets[e] <= inside:
                    rim |= sets[e] - inside
    return cover.chain.distances_from(rim, within=inside)


def chain_indices(cover: Cover, region: Iterable[int]) -> list[int | None]:
    """Per point, the shortest chain length to a point outside ``region``; None if unreachable.

    A fresh list of n entries: 0 off the region, and on it the distances of
    one BFS from the points next to it (see ``_region_distances``).  Callers
    that read only the region, as ``interior`` and ``barycentric_map`` do,
    read the BFS distances in place instead.
    """
    n = cover.n_points
    inside = _check_points(region, n)
    dist = _region_distances(cover, inside)
    index: list[int | None] = [0] * n
    for x in inside:
        index[x] = dist[x]
    return index


def chain_index(cover: Cover, x: int, region: Iterable[int]) -> ExtNat:
    """The chain index of x in ``region`` as an ExtNat; ``ExtNat(None)`` is infinity."""
    _check_point(x, cover.n_points)
    return ExtNat(chain_indices(cover, region)[x])


def interior(cover: Cover, region: Iterable[int], k: int,
             index: list[int | None] | None = None) -> frozenset[int]:
    """The points of ``region`` whose k-fold star stays inside it: chain index above k.

    Only the region's entries of ``index`` are read, so a caller that has a
    list whose entries on the region are its chain indices may pass it in;
    without one, a BFS from the points next to the region gives it.
    """
    _check_int(k, 0, "k")
    inside = _check_points(region, cover.n_points)
    if index is None:
        index = _region_distances(cover, inside)
    return frozenset(x for x in inside if index[x] is None or index[x] > k)


def star_misfit(cover: Cover, k: int, coarse: Cover,
                inner: list[frozenset[int]] | None = None) -> int | None:
    """The least index whose k-fold star fits in no element of ``coarse``, or None.

    This is the counterexample of ``is_refinement(iterated_star(cover, k), coarse)``
    without building a star: the k-fold star of an element fits in a coarse
    element exactly when the element lies in that element's k-interior.
    ``inner`` may pass in those k-interiors, in coarse order, when the caller
    has them.
    """
    _check_same_points(cover, coarse)
    if inner is None:
        inner = [interior(cover, s, k) for s in coarse.sets]
    for t, s in enumerate(cover.sets):
        if s and not any(s <= inner[j] for j in coarse.membership[next(iter(s))]):
            return t
    return None


def diameter_in_graph(points: Iterable[int], graph: ChainGraph) -> ExtNat:
    """Largest graph distance between two points of the set: exact, INFINITY if split.

    Eccentricities are taken within the set S, measured in the whole graph
    (Takes & Kosters, CIKM 2011; iFUB, Crescenzi et al., TCS 2013).  A BFS
    from a in S gives ecc(a) = max d(a, b) over b in S and raises the best
    diameter to it.  By the triangle inequality every other b in S then has
    max(ecc(a) - d, d) <= ecc(b) <= ecc(a) + d with d = d(a, b); these
    bounds tighten lo(b) and hi(b), and b is dropped once hi(b) <= best.
    The first source is the least id; after it, sources alternate between
    the candidate with the largest hi and the one with the smallest lo, ties
    to the least id, until no candidate is left.
    If the first BFS misses a point of S, the set is split: INFINITY.
    Each BFS stops once every point of S has its distance, since only those
    distances are read; on a set small against the graph it walks little
    more than the set's ball around the source.

    Worst case |S| BFS runs, as on a cycle, where no bound ever drops a
    candidate.  Alternating with the smallest lo, rather than always taking
    the largest hi, saves BFS runs on 2-D grids (29 against 40 for the star
    preimages of the ``roundtrip2d`` skeleton map at seed 1, in one
    ``is_uniformly_bounded`` call) and changes nothing on lines.
    """
    inside = _check_points(points, graph.n_points)
    pts = sorted(inside)
    if len(pts) < 2:
        return ExtNat(0)
    lo = dict.fromkeys(pts, 0)
    hi = dict.fromkeys(pts, 2 * graph.n_points)  # above every ecc + d
    best = 0
    candidates = pts
    source = pts[0]
    pick_high = True
    while True:
        dist = graph.distances_from((source,), until=inside)
        row = [dist[b] for b in pts]
        if None in row:
            return INFINITY
        ecc = max(row)
        best = max(best, ecc)
        kept = []
        for b in candidates:
            d = dist[b]
            h = min(hi[b], ecc + d)
            if h > best and b != source:
                hi[b] = h
                lo[b] = max(lo[b], ecc - d, d)
                kept.append(b)
        if not kept:
            return ExtNat(best)
        candidates = kept
        # max and min return the first extreme item, and kept ascends by id
        source = max(kept, key=hi.__getitem__) if pick_high else min(kept, key=lo.__getitem__)
        pick_high = not pick_high


@dataclass(frozen=True)
class BoundednessCertificate:
    """Largest element diameter against a declared budget.

    ``max_diameter`` is an ExtNat for chain diameters and a Fraction for
    metric diameters; ``witness`` is the least element index attaining it.
    """

    bound: object
    max_diameter: object
    witness: int | None
    ok: bool


def is_uniformly_bounded(cover: Cover, space, bound) -> BoundednessCertificate:
    """Check every element has diameter <= bound, as measured by ``space.set_diameter``.

    A coarse space measures chain diameter in its gauge (an ExtNat), a metric
    space measures metric diameter (a Fraction).  The bound is an int or a
    Fraction of at least 0, kept in the certificate as it was given, and is
    refused before any diameter is read.  The largest diameter and its witness
    do not depend on the bound, so the cover keeps them per space value: a
    later call on this cover object with an equal space decides its bound on
    them, as ``certify_pu`` and ``certify_delta_pu`` do on a map's kept star
    preimage cover.  An equal cover built anew measures again.
    """
    _check_rational(bound, 0, "bound", strict=False)
    _check_same_points(cover, space)
    kept = cover._largest.get(space)
    if kept is None:
        worst = space.set_diameter(())
        worst_set = None
        for s in dict.fromkeys(cover.sets):  # each distinct set once, by its least index
            d = space.set_diameter(s)
            if worst < d:
                worst = d
                worst_set = s
            if d == INFINITY:  # nothing exceeds it
                break
        witness = None if worst_set is None else cover.sets.index(worst_set)
        kept = cover._largest[space] = (worst, witness)
    worst, witness = kept
    return BoundednessCertificate(bound, worst, witness, worst <= bound)


def shrink_with_multiplicity(fine: Cover, coarse: Cover) -> Cover:
    """Shrink ``coarse`` without pushing multiplicity above that of ``fine``.

    Requires ``fine`` to refine ``coarse``.  The result W keeps coarse's index
    set: W_s collects the fine elements whose least containing coarse index is
    s, plus every x in coarse_s whose coarse multiplicity does not exceed its
    fine multiplicity.  W shrinks coarse, coarsens fine, and satisfies
    m_W(x) <= m_fine(x) at every point.  Empty members are retained.
    """
    check = is_refinement(fine, coarse)
    if not check.ok:
        raise PreconditionError(
            f"fine element {check.counterexample} is contained in no coarse element",
            witness=fine.sets[check.counterexample],
        )
    base: list[set[int]] = [set() for _ in coarse.sets]
    for t, j in enumerate(check.assignment):
        base[j] |= fine.sets[t]
    # the points come from a validated cover, so the memberships are read unchecked
    coarse_mem, fine_mem = coarse.membership, fine.membership
    for s, vs in enumerate(coarse.sets):
        base[s].update(x for x in vs if len(coarse_mem[x]) <= len(fine_mem[x]))
    return Cover(tuple(frozenset(b) for b in base), coarse.n_points, allow_empty=True)
