"""Finite metric spaces, ball covers, and the bridge between metric and
cover-based partition-of-unity certificates."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, itemgetter

from .covers import (_EXACT, BoundednessCertificate, Cover, _check_int, _check_point,
                     _check_points, _check_rational, _check_same_points, is_uniformly_bounded)
from .errors import InputError, PreconditionError
from .pou import (BarycentricPoint, PartitionOfUnity, PUCertificate, _l1_ratio, certify_pu,
                  l1_distance)


@dataclass(frozen=True, init=False)
class FiniteMetricSpace:
    """Points 0..n-1 with exact rational distances.

    The distances are kept once, in ``_scaled``: int numerators over one
    common denominator, (den, rows), with den the lcm of the reduced
    denominators.  Every comparison of distances reads it, and so do ``==``
    and ``hash``.  ``dist`` gives the distances as Fractions, built on first
    read.  Entries must be ints or Fractions.  The triangle inequality is
    verified on construction (O(n^3)) unless ``check_triangle`` is False.

    A space is immutable, so it also keeps the diameter of every point set
    ``set_diameter`` has measured, as ``FiniteCoarseSpace`` does; an equal
    space built anew measures again.  It keeps its hash too: a map keys its
    scans, and a cover its largest diameter, by the metric's value, and
    hashing reads all n^2 entries.
    """

    n_points: int
    _scaled: tuple[int, tuple[tuple[int, ...], ...]] = field(repr=False)

    def __init__(self, n_points, dist, check_triangle: bool = True):
        _check_int(n_points, 1, "n_points")
        rows = [tuple(row) for row in dist]
        if len(rows) != n_points or any(len(r) != n_points for r in rows):
            raise InputError("distance matrix shape does not match the point count")
        all_int = True
        for i, row in enumerate(rows):
            types = set(map(type, row))
            if not types <= _EXACT:
                j, d = next((j, d) for j, d in enumerate(row) if type(d) not in _EXACT)
                raise InputError(f"distance ({i}, {j}) is {d!r}, not an int or Fraction")
            all_int = all_int and Fraction not in types
        if all_int:  # den is 1 and the rows are the numerators already
            den, ints = 1, tuple(rows)
        else:
            den = lcm(*{d.denominator for row in rows for d in row})
            ints = tuple(tuple(d.numerator * (den // d.denominator) for d in row) for row in rows)
        for i, row in enumerate(ints):
            if row[i] != 0:
                raise InputError(f"nonzero self-distance at point {i}")
            for j in range(i + 1, n_points):
                if row[j] != ints[j][i]:
                    raise InputError(f"asymmetric distance between {i} and {j}")
                if row[j] < 0:
                    raise InputError(f"negative distance between {i} and {j}")
        if check_triangle:
            # (i, j, k) fails iff (j, i, k) does, so the first failure has i < j
            for i, row in enumerate(ints):
                for j in range(i + 1, n_points):
                    col = ints[j]  # d(k, j) = d(j, k)
                    if row[j] > min(map(add, row, col)):
                        k = next(k for k in range(n_points) if row[j] > row[k] + col[k])
                        raise InputError(f"triangle inequality fails on ({i}, {j}, {k})")
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "_scaled", (den, ints))

    @classmethod
    def line(cls, n: int) -> "FiniteMetricSpace":
        """0..n-1 with unit spacing."""
        rows = [[abs(i - j) for j in range(n)] for i in range(n)]
        return cls(n, rows, check_triangle=False)

    @classmethod
    def from_l1_points(cls, coords) -> "FiniteMetricSpace":
        """l1 distances between points with int or Fraction coordinates.

        Each pair is summed once, in ints over the common denominator.
        """
        pts = [tuple(p) for p in coords]
        for i, p in enumerate(pts):
            if not set(map(type, p)) <= _EXACT:
                c = next(c for c in p if type(c) not in _EXACT)
                raise InputError(f"coordinate {c!r} of point {i} is not an int or Fraction")
        cden = lcm(*{c.denominator for p in pts for c in p})
        ints = [tuple(c.numerator * (cden // c.denominator) for c in p) for p in pts]
        n = len(pts)
        rows = [[0] * n for _ in range(n)]
        for i, a in enumerate(ints):
            row = rows[i]
            for j in range(i + 1, n):
                row[j] = rows[j][i] = Fraction(sum(abs(s - t) for s, t in zip(a, ints[j])), cden)
        return cls(n, rows, check_triangle=False)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.n_points, self._scaled))

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as Fractions, built on first read."""
        den, rows = self._scaled
        return tuple(tuple(Fraction(e, den) for e in row) for row in rows)

    def d(self, x: int, y: int) -> Fraction:
        _check_point(x, self.n_points)
        _check_point(y, self.n_points)
        den, rows = self._scaled
        return Fraction(rows[x][y], den)

    @cached_property
    def _diameters(self) -> dict[frozenset[int], Fraction]:
        """The set diameters measured so far; the distances are frozen, so none goes stale."""
        return {}

    def set_diameter(self, points) -> Fraction:
        """Largest distance between two points of the set (0 for <= 1), measured once per set."""
        key = _check_points(points, self.n_points)
        d = self._diameters.get(key)
        if d is None:
            den, rows = self._scaled
            top = 0
            if len(key) > 1:
                row_slice = itemgetter(*key)
                top = max(max(row_slice(rows[a])) for a in key)
            d = self._diameters[key] = Fraction(top, den)
        return d


def ball_cover(metric: FiniteMetricSpace, radius) -> Cover:
    """One closed ball per point, indexed by its center."""
    radius = _check_rational(radius, 0, "radius")
    den, rows = metric._scaled
    top = radius.numerator * den // radius.denominator  # d <= radius iff d*den <= top
    return Cover(tuple(frozenset(y for y, e in enumerate(row) if e <= top) for row in rows),
                 metric.n_points)


def _lebesgue_pair(metric: FiniteMetricSpace, delta: Fraction, groups) -> tuple[int, int] | None:
    """The first pair x < y closer than 1/delta whose groups are disjoint, or None."""
    den, rows = metric._scaled
    near = -(-delta.denominator * den // delta.numerator)  # d < 1/delta iff d*den < near
    for x, row in enumerate(rows):
        for y in range(x + 1, len(rows)):
            if row[y] < near and groups[x].isdisjoint(groups[y]):
                return x, y
    return None


@dataclass(frozen=True)
class DeltaPUCertificate:
    """Certificate for the metric notion of a certified partition of unity.

    (i) l1 displacement at most delta*d + delta on every pair, (ii) every pair
    closer than 1/delta shares a star preimage, (iii) star preimages have
    metric diameter at most the declared bound.
    """

    delta: Fraction
    lipschitz_ok: bool
    lipschitz_pair: tuple[int, int] | None
    lipschitz_value: Fraction
    lipschitz_allowance: Fraction
    lebesgue_ok: bool
    lebesgue_pair: tuple[int, int] | None
    boundedness: BoundednessCertificate
    ok: bool


def certify_delta_pu(f: PartitionOfUnity, metric: FiniteMetricSpace, delta,
                     diameter_bound) -> DeltaPUCertificate:
    """Certify f on the metric side at ``delta``.

    The three conditions: (i) Lipschitz, ``l1(f(x), f(y)) <= delta*d(x, y) +
    delta`` on every pair; (ii) Lebesgue, every pair closer than 1/delta has
    carriers that meet; (iii) every star preimage has metric diameter at most
    ``diameter_bound``.  The Lipschitz witness is the first pair x < y, in
    row order, of largest margin ``l1 - (delta*d + delta)``, reported with its
    l1 value and allowance whether or not it fails; the Lebesgue witness is the
    first pair in row order that fails.

    Neither scan depends on ``diameter_bound``, so f runs them once per
    (metric value, delta) and keeps their results beside what ``certify_pu``
    keeps per cover; a second certificate at an equal metric and delta reads
    them.  Nor do the star preimage diameters, which f's kept star preimage
    cover measures once per metric value, as in ``certify_pu``; each
    certificate compares the largest with its own bound.
    """
    delta = _check_rational(delta, 0, "delta")
    diameter_bound = _check_rational(diameter_bound, 0, "diameter_bound", strict=False)
    _check_same_points(f, metric)
    key = (metric, delta)
    scans = f._measured.get(key)
    if scans is None:
        scans = f._measured[key] = _delta_scans(f, metric, delta)
    lip_ok, lip_pair, lip_value, lip_allowance, leb_pair = scans
    bcert = is_uniformly_bounded(f.star_preimage_cover(), metric, diameter_bound)
    return DeltaPUCertificate(
        delta=delta,
        lipschitz_ok=lip_ok,
        lipschitz_pair=lip_pair,
        lipschitz_value=lip_value,
        lipschitz_allowance=lip_allowance,
        lebesgue_ok=leb_pair is None,
        lebesgue_pair=leb_pair,
        boundedness=bcert,
        ok=lip_ok and leb_pair is None and bcert.ok,
    )


def _delta_scans(f: PartitionOfUnity, metric: FiniteMetricSpace, delta: Fraction):
    """The Lipschitz scan's (ok, pair, l1 value, allowance) and the Lebesgue pair.

    The Lipschitz scan compares each margin on ``_l1_ratio``, in ints, and
    builds one Fraction: ``l1_distance`` of the witness pair, or 0 when its
    two values are equal.  It measures l1 only where it could change the
    witness.  Two points with equal values are at l1 exactly 0, so they are
    not measured.  Every l1 is at most 2, so a pair whose margin bound
    ``2 - (delta*d + delta)`` is below the worst margin so far cannot become
    the witness: pairs go in row order and only a strictly larger margin
    replaces it.  Each row after the first therefore skips the pairs beyond
    a distance threshold drawn from the worst margin at its start; the
    threshold depends only on the margin's value, so the ratios need no
    reducing.
    """
    # for delta = p/q, gap = g/h and d = e/den the margin gap - (delta*d + delta)
    # is (g*q*den - p*(e + den)*h) / (h*q*den), with g/h not reduced; all pairs
    # share q*den, so the margins compare as num/h
    p, q = delta.numerator, delta.denominator
    den, rows = metric._scaled
    qd = q * den
    n = metric.n_points
    values = f.values
    ids: dict[BarycentricPoint, int] = {}
    cls = [ids.setdefault(values[x], len(ids)) for x in range(n)]  # equal values, equal ids
    worst_num, worst_h, lip_pair = 0, 1, None
    for x, row in enumerate(rows):
        fx, cx = values[x], cls[x]
        if lip_pair is None:
            ys = range(x + 1, n)
        else:
            # gap <= 2 bounds the margin by (2*qd - p*(e + den)) / qd, which is
            # below the worst once e > top
            top = (2 * qd * worst_h - worst_num) // (p * worst_h) - den
            ys = [y for y in range(x + 1, n) if row[y] <= top]
        for y in ys:
            if cls[y] == cx:
                g, h = 0, 1
            else:
                g, h = _l1_ratio(fx, values[y])
            num = g * qd - p * (row[y] + den) * h
            if lip_pair is None or num * worst_h > worst_num * h:
                worst_num, worst_h, lip_pair = num, h, (x, y)
    lip_value, lip_d = Fraction(0), 0
    if lip_pair:
        x, y = lip_pair
        if cls[x] != cls[y]:
            lip_value = l1_distance(values[x], values[y])
        lip_d = metric.d(x, y)
    leb_pair = _lebesgue_pair(metric, delta, [values[x].carrier for x in range(n)])
    return worst_num <= 0, lip_pair, lip_value, delta * lip_d + delta, leb_pair


def _check_comparison_delta(delta) -> Fraction:
    """The comparisons take an exact delta with 0 < delta < 2."""
    delta = _check_rational(delta, 0, "delta")
    if not delta < 2:
        raise InputError(f"delta = {delta} is not < 2")
    return delta


def comparison_forward(f: PartitionOfUnity, metric: FiniteMetricSpace, delta,
                       diameter_bound) -> PUCertificate:
    """From a metric certificate at delta^2/4 to a ball-cover certificate at delta.

    Gates on the metric certificate first; a failed gate raises rather than
    reporting a comparison failure.
    """
    delta = _check_comparison_delta(delta)
    diameter_bound = _check_rational(diameter_bound, 0, "diameter_bound", strict=False)
    gate = certify_delta_pu(f, metric, delta * delta / 4, diameter_bound)
    if not gate.ok:
        raise PreconditionError(
            "input does not certify at delta^2/4 on the metric side", witness=gate)
    balls = ball_cover(metric, 1 / delta)
    return certify_pu(f, balls, metric, delta, diameter_bound)


def comparison_backward(f: PartitionOfUnity, metric: FiniteMetricSpace, delta,
                        diameter_bound, cover: Cover | None = None) -> DeltaPUCertificate:
    """From a ball-cover certificate at delta to a metric certificate at 2*delta.

    The cover defaults to the balls of radius 1/delta; whichever cover is used
    must have elements of metric diameter at most 2/delta and pairwise
    Lebesgue number at least 1/delta.
    """
    delta = _check_comparison_delta(delta)
    diameter_bound = _check_rational(diameter_bound, 0, "diameter_bound", strict=False)
    if cover is None:
        cover = ball_cover(metric, 1 / delta)
    _check_same_points(metric, cover)
    max_diam = 2 / delta
    for i, s in enumerate(cover.sets):
        if metric.set_diameter(s) > max_diam:
            raise PreconditionError(
                f"cover element {i} has metric diameter above 2/delta", witness=i)
    pair = _lebesgue_pair(metric, delta, [frozenset(m) for m in cover.membership])
    if pair is not None:
        raise PreconditionError(
            f"pair {pair} is closer than 1/delta but shares no element", witness=pair)
    gate = certify_pu(f, cover, metric, delta, diameter_bound)
    if not gate.ok:
        raise PreconditionError(
            "input does not certify against the cover at delta", witness=gate)
    return certify_delta_pu(f, metric, 2 * delta, diameter_bound)
