"""Independent brute-force references for the differential tests, on tiny instances.

These deliberately avoid the algorithms used by the library proper (multi-
source BFS, frontier star growth, shared chain-graph rows) so they can serve
as oracles in randomized comparisons: chain indices by path search, stars by
scanning every element, the maximal elements of a cover by comparing every
pair, nearest sources by Floyd-Warshall, nerves by checking every index
subset, variation by measuring every within-element pair, the coarsening
witnesses by intersecting the carrier of every point, chain diameters by a
full BFS from every point, refinements by scanning every coarse element, and
l1 distances, metric diameters, the triangle check, ball covers, the metric
pair scans and the map file's weights in Fraction arithmetic, and certificate
documents through a tagged copy and ``json.dumps``. The sampler
``random_fraction`` draws the rationals the property tests use.

The references the ``oracle`` command runs, and the per-element chain graph
they share, live in ``coarsedim.oracles``.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from itertools import combinations

from coarsedim.covers import ChainGraph, Cover
from coarsedim.errors import InputError
from coarsedim.extnat import INFINITY, ExtNat
from coarsedim.formats import EXTNAT_TAG, FRACTION_TAG
from coarsedim.oracles import chain_graph_by_elements


def chain_index_by_paths(cover: Cover, x: int, region) -> ExtNat:
    """Chain index via depth-first enumeration of all injective chains (tiny spaces)."""
    inside = frozenset(region)
    if x not in inside:
        return ExtNat(0)
    graph = chain_graph_by_elements(cover)
    best: list[int | None] = [None]

    def walk(p: int, length: int, visited: frozenset[int]):
        if best[0] is not None and length >= best[0]:
            return
        for y in graph.neighbors[p]:
            if y in visited:
                continue
            if y not in inside:
                if best[0] is None or length + 1 < best[0]:
                    best[0] = length + 1
            else:
                walk(y, length + 1, visited | {y})

    walk(x, 0, frozenset((x,)))
    return ExtNat(best[0])


def chain_diameter_all_pairs(points, graph: ChainGraph) -> ExtNat:
    """Chain diameter of a point set from one full BFS per point, no pruning."""
    pts = sorted(set(points))
    if len(pts) < 2:
        return ExtNat(0)
    best = 0
    for a in pts:
        dist = graph.distances_from([a])
        for b in pts:
            d = dist[b]
            if d is None:
                return INFINITY
            if d > best:
                best = d
    return ExtNat(best)


def nearest_source_all_pairs(cover: Cover, sources) -> tuple[list, list]:
    """Per point, the chain distance to the sources and the least source at it.

    All-pairs distances by Floyd-Warshall on the reference chain graph; both
    entries are None where no source is reachable.
    """
    n = cover.n_points
    graph = chain_graph_by_elements(cover)
    d = [[0 if x == y else 1 if y in graph.neighbors[x] else n for y in range(n)]
         for x in range(n)]  # n stands for "unreachable": every path is shorter
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    nearest = [min((d[s][x], s) for s in sources) for x in range(n)]
    return ([dx if dx < n else None for dx, _ in nearest],
            [s if dx < n else None for dx, s in nearest])


def refinement_by_scan(fine: Cover, coarse: Cover) -> tuple[tuple[int, ...] | None, int | None]:
    """(assignment, counterexample) of ``is_refinement`` by scanning every coarse element.

    Each fine element gets the least index of a coarse element holding it (0
    for an empty one); the counterexample is the first fine element held by none.
    """
    assignment = []
    for t, s in enumerate(fine.sets):
        j = next((j for j, c in enumerate(coarse.sets) if s <= c), None)
        if j is None:
            return None, t
        assignment.append(j)
    return tuple(assignment), None


def star_set_bruteforce(points, cover: Cover) -> frozenset[int]:
    region = frozenset(points)
    out: set[int] = set()
    for s in cover.sets:
        if s & region:
            out |= s
    return frozenset(out)


def iterated_star_bruteforce(cover: Cover, k: int) -> Cover:
    """k-fold star by literally starring every element once per level."""
    sets = list(cover.sets)
    for _ in range(k):
        sets = [star_set_bruteforce(s, cover) for s in sets]
    return Cover(tuple(sets), cover.n_points, cover.allow_empty)


def normalize_pairwise(cover: Cover) -> Cover:
    """``Cover.normalize`` by comparing every element with every other."""
    keep = []
    for i, s in enumerate(cover.sets):
        if not any(s < t or (s == t and j < i) for j, t in enumerate(cover.sets) if j != i):
            keep.append(s)
    return Cover(tuple(keep), cover.n_points, cover.allow_empty)


def variation_all_pairs(values, cover: Cover, distance):
    """(value, pair) of the variation from every within-element pair x < y.

    At value 0 the pair is the least within-element pair, or None if there is none.
    """
    best, best_pair = 0, None
    pairs = sorted({p for s in cover.sets for p in combinations(sorted(s), 2)})
    for x, y in pairs:
        d = distance(values[x], values[y])
        if d > best:
            best, best_pair = d, (x, y)
    if not best:
        best_pair = pairs[0] if pairs else None
    return best, best_pair


def coarsening_by_points(f, cover: Cover):
    """(witnesses, first failing index) of the coarsening condition, point by point.

    Each element intersects the carrier of every one of its points in
    ascending order, with no early stop.
    """
    witnesses = []
    failure = None
    for i, s in enumerate(cover.sets):
        common = None
        for p in sorted(s):
            carrier = f.value(p).carrier
            common = set(carrier) if common is None else common & carrier
        witnesses.append(min(common) if common else None)
        if common is not None and not common and failure is None:
            failure = i
    return tuple(witnesses), failure


def set_diameter_fractions(metric, points) -> Fraction:
    """Metric diameter of a point set, comparing the Fraction distance of every pair."""
    pts = sorted(set(points))
    best = Fraction(0)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if metric.dist[a][b] > best:
                best = metric.dist[a][b]
    return best


def triangle_violation_fractions(dist) -> tuple[int, int, int] | None:
    """The first (i, j, k) with d(i, j) > d(i, k) + d(k, j), comparing Fraction sums."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][j] > dist[i][k] + dist[k][j]:
                    return i, j, k
    return None


def ball_cover_fractions(metric, radius) -> Cover:
    """One closed ball per point, comparing each Fraction distance with the radius."""
    radius = Fraction(radius)
    n = metric.n_points
    return Cover(tuple(frozenset(y for y in range(n) if metric.dist[c][y] <= radius)
                       for c in range(n)), n)


def lebesgue_pair_fractions(metric, cover: Cover, delta) -> tuple[int, int] | None:
    """The first pair x < y closer than 1/delta that shares no cover element."""
    threshold = 1 / Fraction(delta)
    for x in range(metric.n_points):
        for y in range(x + 1, metric.n_points):
            if metric.dist[x][y] < threshold:
                if set(cover.membership[x]).isdisjoint(cover.membership[y]):
                    return x, y
    return None


def l1_distance_fractions(a, b) -> Fraction:
    """Exact l1 distance between two barycentric points over a shared vertex universe."""
    total = Fraction(0)
    for v in a.carrier | b.carrier:
        total += abs(a.weight(v) - b.weight(v))
    return total


def dump_pu_fractions(f) -> str:
    """The map file of f, each weight written from its reduced Fraction."""
    lines = ["partition-of-unity", f"points {f.n_points}",
             "vertices " + " ".join(str(v) for v in f.vertices)]
    for x in range(f.n_points):
        for v, w in sorted(f.values[x].weights.items()):
            lines.append(f"value {x} {v} {w.numerator} {w.denominator}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def dump_metric_fractions(metric) -> str:
    """The metric file of a space, each distance written from its Fraction in ``dist``."""
    lines = ["metric-space", f"points {metric.n_points}"]
    for i in range(metric.n_points):
        for j in range(i + 1, metric.n_points):
            d = metric.dist[i][j]
            lines.append(f"distance {i} {j} {d.numerator} {d.denominator}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def delta_pair_scan_fractions(f, metric, delta) -> dict:
    """The pair conditions of ``certify_delta_pu``, every comparison made on Fractions.

    The Lipschitz pair is the first pair of largest margin gap - (delta*d + delta);
    the Lebesgue pair is the first pair closer than 1/delta with disjoint carriers.
    """
    delta = Fraction(delta)
    lip_ok, lip_pair, lip_value, lip_allow = True, None, Fraction(0), delta
    worst_margin = None
    leb_ok, leb_pair = True, None
    for x in range(metric.n_points):
        for y in range(x + 1, metric.n_points):
            d = metric.dist[x][y]
            gap = l1_distance_fractions(f.values[x], f.values[y])
            allowance = delta * d + delta
            margin = gap - allowance
            if worst_margin is None or margin > worst_margin:
                worst_margin = margin
                lip_pair, lip_value, lip_allow = (x, y), gap, allowance
            if gap > allowance:
                lip_ok = False
            if d < 1 / delta and leb_ok and not (f.values[x].carrier & f.values[y].carrier):
                leb_ok, leb_pair = False, (x, y)
    return {"lipschitz_ok": lip_ok, "lipschitz_pair": lip_pair, "lipschitz_value": lip_value,
            "lipschitz_allowance": lip_allow, "lebesgue_ok": leb_ok, "lebesgue_pair": leb_pair}


def nerve_simplices_bruteforce(cover: Cover, d_cap: int) -> frozenset[frozenset[int]]:
    """All index subsets up to the cap with a common point, checked one by one."""
    out: set[frozenset[int]] = set()
    indices = range(len(cover.sets))
    for size in range(1, d_cap + 2):
        for combo in combinations(indices, size):
            common = cover.sets[combo[0]]
            for i in combo[1:]:
                common = common & cover.sets[i]
                if not common:
                    break
            if common:
                out.add(frozenset(combo))
    return frozenset(out)


def encode(value):
    """Recursively convert a value into JSON-ready form with tagged rationals."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return {FRACTION_TAG: [value.numerator, value.denominator]}
    if isinstance(value, ExtNat):
        return {EXTNAT_TAG: value.value if value.is_finite else "inf"}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [encode(v) for v in sorted(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, float):
        raise InputError("refusing to serialize a float; use Fraction")
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def doc_dumps_reference(doc) -> str:
    """A certificate document through the tagged copy and the standard json encoder."""
    return json.dumps(encode(doc), sort_keys=True, indent=1) + "\n"


def random_fraction(rng, low: int, high: int, max_denominator: int = 16) -> Fraction:
    den = rng.randrange(1, max_denominator + 1)
    num = rng.randrange(low * den, high * den + 1)
    return Fraction(num, den)
