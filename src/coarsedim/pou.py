"""Barycentric points, nerves of covers, and partition-of-unity certification.

All weights are exact rationals; every certified inequality below is decided
exactly, on Fractions or on ints over a common denominator, with witnesses
for failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .covers import (_EXACT, BoundednessCertificate, Cover, _by_vertex, _check_int, _check_point,
                     _check_points, _check_rational, _check_same_points, _is_maximal, _maximal,
                     _region_distances, is_uniformly_bounded)
from .errors import ConstructionError, InputError


class BarycentricPoint:
    """Finitely supported nonnegative rational weights summing to exactly 1.

    The weights are int numerators ``num`` over one positive int ``den``, in
    lowest terms: the numerators sum to ``den`` and ``gcd(den, *num.values())``
    is 1, so equal points have equal fields.  ``Fraction``s are built only
    where a caller asks for them (``weights``, ``weight``).  The constructor
    takes int or Fraction weights at int vertices.

    A point is immutable: ``_set`` is the only writer of ``num`` and ``den``,
    so the carrier is built once and kept, and one point object may stand
    for the value of many points of a map.
    """

    __slots__ = ("num", "den", "_carrier")

    def __init__(self, weights):
        for v, w in weights.items():
            if type(v) is not int:
                raise InputError(f"vertex {v!r} is not an int")
            if type(w) not in _EXACT:
                raise InputError(f"weight {w!r} at vertex {v} is not an int or Fraction")
        den = lcm(*(w.denominator for w in weights.values()))
        self._set({v: w.numerator * (den // w.denominator) for v, w in weights.items()}, den)

    @classmethod
    def _from_ints(cls, num: dict[int, int], den: int) -> "BarycentricPoint":
        """The point with weights ``num[v] / den`` for a positive ``den``.

        The point may keep ``num`` itself, so the caller must not change it afterwards.
        """
        point = cls.__new__(cls)
        point._set(num, den)
        return point

    def _set(self, num: dict[int, int], den: int) -> None:
        """Check that ``num`` over ``den`` is nonnegative and sums to 1; store it reduced.

        Zero weights are dropped.
        """
        if num and min(num.values()) <= 0:
            for v, n in num.items():
                if n < 0:
                    raise InputError(f"negative weight {Fraction(n, den)} at vertex {v}")
            num = {v: n for v, n in num.items() if n}
        total = sum(num.values())
        if total != den:
            raise InputError(f"weights sum to {Fraction(total, den)}, need exactly 1")
        g = gcd(den, *num.values())
        if g > 1:
            num = {v: n // g for v, n in num.items()}
            den //= g
        self.num = num
        self.den = den
        self._carrier = None

    @classmethod
    def vertex(cls, v: int) -> "BarycentricPoint":
        return cls({v: 1})

    @property
    def weights(self) -> dict[int, Fraction]:
        """The weights as a fresh dict of Fractions."""
        den = self.den
        return {v: Fraction(n, den) for v, n in self.num.items()}

    @property
    def carrier(self) -> frozenset[int]:
        if self._carrier is None:
            self._carrier = frozenset(self.num)
        return self._carrier

    def weight(self, v: int) -> Fraction:
        return Fraction(self.num.get(v, 0), self.den)

    def blend(self, other: "BarycentricPoint", alpha: Fraction) -> "BarycentricPoint":
        """Convex combination alpha*self + (1-alpha)*other, for an exact alpha in [0, 1]."""
        alpha = _check_rational(alpha, 0, "alpha", strict=False)
        if alpha > 1:
            raise InputError(f"alpha = {alpha} is not <= 1")
        if alpha == 1:
            return self
        if alpha == 0:
            return other
        # over den_a * den_b * q for alpha = p/q
        p, q = alpha.numerator, alpha.denominator
        scale = other.den * p
        out = {v: n * scale for v, n in self.num.items()}
        scale = self.den * (q - p)
        for v, n in other.num.items():
            out[v] = out.get(v, 0) + n * scale
        return BarycentricPoint._from_ints(out, self.den * other.den * q)

    def __eq__(self, other):
        if isinstance(other, BarycentricPoint):
            return self.num == other.num  # the numerators sum to den
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.num.items()))

    def __repr__(self):
        inner = ", ".join(f"{v}: {Fraction(n, self.den)}" for v, n in sorted(self.num.items()))
        return f"BarycentricPoint({{{inner}}})"


def _l1_ratio(a: BarycentricPoint, b: BarycentricPoint) -> tuple[int, int]:
    """The l1 distance of two barycentric points as an int numerator over a positive
    int denominator, not reduced: the scans compare these by cross-multiplication.

    Over the common denominator D_a*D_b the sum of |a_v*D_b - b_v*D_a| is
    2*(D_a*D_b - sum of min(a_v*D_b, b_v*D_a)), because both sides sum to
    D_a*D_b; only the shared vertices take part.
    """
    da, db = a.den, b.den
    an, bn = a.num, b.num
    if len(bn) < len(an):
        an, bn, da, db = bn, an, db, da
    shared = 0
    for v, x in an.items():
        y = bn.get(v)
        if y is not None:
            x *= db
            y *= da
            shared += x if x < y else y
    prod = da * db
    return 2 * (prod - shared), prod


def l1_distance(a: BarycentricPoint, b: BarycentricPoint) -> Fraction:
    """Exact l1 distance between two barycentric points over a shared vertex universe.

    The one place an l1 Fraction is built: ``_l1_ratio`` reduced.  The scans
    decide on ``_l1_ratio`` and call this once, for the value they report.
    """
    return Fraction(*_l1_ratio(a, b))


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of vertex subsets with a dimension cap.

    The family is stored by its facets (the maximal members, with no cap
    applied); a subset is a simplex when it fits inside a facet and respects
    the cap.  Downward closure is automatic in this encoding.  The ambient
    vertex set may be larger than the set of vertices spanning simplices.
    """

    vertices: tuple[int, ...]
    facets: frozenset[frozenset[int]]
    d_cap: int

    def __post_init__(self):
        _check_int(self.d_cap, 0, "d_cap")
        universe = set(self.vertices)
        for f in self.facets:
            if not f:
                raise InputError("facets must be nonempty")
            if not f <= universe:
                raise InputError(f"facet {sorted(f)} uses unknown vertices")
        for f in self.facets:
            if not _is_maximal(f, self._facets_at):
                raise InputError(f"facet {sorted(f)} is not maximal")

    @cached_property
    def _facets_at(self) -> dict[int, tuple[frozenset[int], ...]]:
        """The facets containing each vertex."""
        return _by_vertex(self.facets)

    def has(self, simplex) -> bool:
        s = frozenset(simplex)
        if not s or len(s) > self.d_cap + 1:
            return False
        # a facet holding s holds each of its vertices, so one vertex's facets suffice
        return any(s <= f for f in self._facets_at.get(next(iter(s)), ()))

    @property
    def dimension(self) -> int:
        if not self.facets:
            return -1
        return min(self.d_cap, max(len(f) for f in self.facets) - 1)


def nerve(cover: Cover, d_cap: int) -> SimplicialComplex:
    """Nerve of a cover: index subsets spanning a simplex iff their elements all meet.

    A family of indices has a common point iff it sits inside the membership
    set of one of the points, so the facets are exactly the maximal membership
    sets; intersections are checked exactly through them.
    """
    facets = frozenset(_maximal(map(frozenset, dict.fromkeys(cover.membership))))
    return SimplicialComplex(tuple(range(len(cover.sets))), facets, d_cap)


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Assignment of a barycentric point to every point of the space.

    The map is total: ``values`` holds exactly the points 0..n_points-1, and
    the constructor names the least point without a value.  When a target
    complex is attached, every carrier must be one of its simplices.

    A map is immutable: ``values`` is not changed after construction, and
    neither is a point, so several points may share one value object, as in
    the maps of ``barycentric_map`` and ``filler``.  So the map keeps its star
    preimage cover, per cover what ``certify_pu`` measured against it and per
    (metric, delta) what ``certify_delta_pu`` measured, once they are first
    built; the kept star preimage cover keeps its largest diameter per space
    (see ``is_uniformly_bounded``).
    """

    values: dict[int, BarycentricPoint]
    n_points: int
    vertices: tuple[int, ...]
    complex: SimplicialComplex | None = None

    def __post_init__(self):
        _check_int(self.n_points, 1, "n_points")
        _check_points(self.values, self.n_points)
        if len(self.values) != self.n_points:  # the keys are distinct points in range
            missing = next(x for x in range(self.n_points) if x not in self.values)
            raise InputError(f"no value assigned to point {missing}")
        universe = set(self.vertices)
        checked: set[frozenset[int]] = set()  # each distinct carrier is checked once
        for x, bp in self.values.items():
            carrier = bp.carrier
            if carrier in checked:
                continue
            if not carrier <= universe:
                raise InputError(f"value at point {x} uses vertices outside the universe")
            if self.complex is not None and not self.complex.has(carrier):
                raise InputError(f"carrier at point {x} is not a simplex of the target complex")
            checked.add(carrier)

    def __eq__(self, other):
        if isinstance(other, PartitionOfUnity):
            return (self.values == other.values and self.n_points == other.n_points
                    and self.vertices == other.vertices)
        return NotImplemented

    def value(self, x: int) -> BarycentricPoint:
        _check_point(x, self.n_points)
        return self.values[x]

    def star_preimage(self, v: int) -> frozenset[int]:
        """Points whose value puts positive weight on vertex v: its element of the kept
        star preimage cover."""
        if type(v) is not int or v not in self.vertices:
            raise InputError(f"unknown vertex {v!r}")
        return self._star_preimages[self.vertices.index(v)]

    def star_preimage_cover(self) -> Cover:
        """The family of all vertex-star preimages, indexed in vertex order; built once."""
        return self._star_preimages

    @cached_property
    def _star_preimages(self) -> Cover:
        """One pass over the values puts each point in the preimage of every
        vertex of its carrier, which ``__post_init__`` keeps in ``vertices``."""
        pre: dict[int, list[int]] = {v: [] for v in self.vertices}
        for x, bp in self.values.items():
            for v in bp.num:
                pre[v].append(x)
        return Cover(tuple(frozenset(pre[v]) for v in self.vertices),
                     self.n_points, allow_empty=True)

    @cached_property
    def _measured(self) -> dict:
        """Per cover value, the variation and the coarsening witnesses ``certify_pu``
        found; per (metric value, delta), the scans ``certify_delta_pu`` ran."""
        return {}

    def max_carrier_size(self) -> int:
        return max(len(bp.carrier) for bp in self.values.values())


@dataclass(frozen=True)
class VariationResult:
    """Largest displacement over pairs lying in a single cover element."""

    value: Fraction
    pair: tuple[int, int] | None


def _variation_scan(values: dict[int, object], cover: Cover, ratio, distance) -> VariationResult:
    """Max distance between value classes over within-element pairs.

    ``ratio`` gives a distance as an int numerator over a positive int
    denominator, not necessarily reduced; the scan compares these by
    cross-multiplication.  Each distinct value gets an int class id, and its
    first value object stands for the class.  Elements with the same set of
    classes are read once, and each class pair that shares an element is
    measured once.  The witness is the lexicographically least within-element
    pair of points whose class pair attains the maximum, and ``distance`` of
    its two values, the one Fraction the scan builds, is the value.
    """
    ids: dict[object, int] = {}
    cls = {x: ids.setdefault(v, len(ids)) for x, v in values.items()}
    reps = list(ids)
    of = cls.__getitem__
    pairs: dict[tuple[int, int], None] = {}  # first-seen order keeps the reads of reps local
    meets: dict[int, set[int]] = {}  # per class, the classes it meets in a 3+ class set
    for cs in dict.fromkeys(frozenset(map(of, s)) for s in cover.sets):
        if len(cs) == 2:
            a, b = cs
            pairs[(a, b) if a < b else (b, a)] = None
        elif len(cs) > 2:
            for c in cs:
                m = meets.get(c)
                if m is None:
                    meets[c] = set(cs)
                else:
                    m |= cs
    for a, m in meets.items():
        for b in m:
            if a < b:
                pairs[(a, b)] = None
    best_num, best_den = 0, 1
    top: set[tuple[int, int]] = set()  # the class pairs at the best value
    for ca, cb in pairs:  # each class pair measured once
        num, den = ratio(reps[ca], reps[cb])
        lhs, rhs = num * best_den, best_num * den  # the pair against the best
        if lhs > rhs:
            best_num, best_den = num, den
            top = {(ca, cb)}
        elif lhs == rhs and best_num > 0:
            top.add((ca, cb))
    top_classes = {c for pair in top for c in pair}
    best_pair: tuple[int, int] | None = None
    for s in cover.sets:
        if len(s) < 2 or best_pair is not None and min(s) > best_pair[0]:
            continue  # every pair of s starts above the witness
        if top and len(top_classes.intersection(map(of, s))) < 2:
            continue  # s holds no top class pair
        pts = sorted(s)
        if not top:  # every pair is at 0
            pair = (pts[0], pts[1])
        else:
            first: dict[int, int] = {}
            for p in pts:
                first.setdefault(cls[p], p)
            items = list(first.items())  # ascending by point, so the first hit is least
            pair = next(((pa, pb) for i, (ca, pa) in enumerate(items) for cb, pb in items[i + 1:]
                         if ((ca, cb) if ca < cb else (cb, ca)) in top), None)
        if pair is not None and (best_pair is None or pair < best_pair):
            best_pair = pair
    if best_pair is None:
        return VariationResult(Fraction(0), None)
    return VariationResult(distance(values[best_pair[0]], values[best_pair[1]]), best_pair)


def variation(f: PartitionOfUnity, cover: Cover) -> VariationResult:
    """Largest l1 displacement of f over pairs contained in one cover element.

    The scan compares ``_l1_ratio``s; the value is ``l1_distance`` of the
    witness pair, whose class pair attains the largest ratio.
    """
    _check_same_points(f, cover)
    return _variation_scan(f.values, cover, _l1_ratio, l1_distance)


def _gap_ratio(a: Fraction, b: Fraction) -> tuple[int, int]:
    """|a - b| as an int numerator over a positive int denominator, not reduced."""
    p, q = a.as_integer_ratio()
    r, s = b.as_integer_ratio()
    return abs(p * s - r * q), q * s


def scalar_variation(values, cover: Cover) -> VariationResult:
    """Variation of a function given as one int or Fraction per point, as a weight is.

    The scan compares |a - b| as the int ratio |p*s - r*q| / (q*s) for a = p/q
    and b = r/s; the value is |a - b| of the witness pair.
    """
    vals = list(values)
    for x, v in enumerate(vals):
        if type(v) not in _EXACT:
            raise InputError(f"value {v!r} at point {x} is not an int or Fraction")
    if len(vals) != cover.n_points:
        raise InputError("need one value per point")
    return _variation_scan(dict(enumerate(map(Fraction, vals))), cover, _gap_ratio,
                           lambda a, b: abs(a - b))


def quotient_variation_bound(m, n) -> Fraction:
    """Certified variation bound (n+1)/m for a quotient p/q with p <= q, q >= m > 0.

    n >= 0 bounds the variation of the denominators q, so it is a rational too.
    """
    m = _check_rational(m, 0, "m")
    return (_check_rational(n, 0, "n", strict=False) + 1) / m


def barycentric_map(chain_cover: Cover, target_cover: Cover, d_cap: int | None = None) -> PartitionOfUnity:
    """The natural map to the nerve of ``target_cover`` driven by chain indices.

    For each point the weight on index s is the chain index of the point in
    element s, normalised by the total.  Where infinite indices occur, they
    absorb all mass in equal shares and finite indices get zero.  The result
    carries the nerve (capped at the largest multiplicity by default) and its
    carriers are verified against it.

    The chain indices are read one element at a time, in place from the BFS
    distances.  Points with the same infinite part share one value object,
    and points with equal carriers share one carrier frozenset.
    """
    _check_same_points(chain_cover, target_cover)
    n = chain_cover.n_points
    # outside an element the chain index is 0, so only x's own elements count, in
    # ascending order; inside it is at least 1, so the carrier is the membership or
    # its infinite part
    own_indices: list[dict[int, int | None]] = [{} for _ in range(n)]
    for s, element in enumerate(target_cover.sets):
        index = _region_distances(chain_cover, element)
        for x in element:
            own_indices[x][s] = index[x]
    values: dict[int, BarycentricPoint] = {}
    carriers: dict[tuple[int, ...], frozenset[int]] = {}  # one frozenset per distinct carrier
    uniform: dict[tuple[int, ...], BarycentricPoint] = {}  # one point per infinite part
    for x, ixs in enumerate(own_indices):
        if None in ixs.values():
            own = tuple(s for s, ix in ixs.items() if ix is None)
            point = uniform.get(own)
            if point is not None:
                values[x] = point
                continue
            point = uniform[own] = BarycentricPoint._from_ints(dict.fromkeys(own, 1), len(own))
        else:
            own = target_cover.membership[x]
            total = sum(ixs.values())
            if total <= 0:
                raise ConstructionError(f"point {x} has zero total index against a covering family")
            point = BarycentricPoint._from_ints(ixs, total)
        carrier = carriers.get(own)
        if carrier is None:
            carrier = carriers[own] = frozenset(own)
        point._carrier = carrier
        values[x] = point
    if d_cap is None:
        d_cap = max(target_cover.max_multiplicity(), 1) - 1
    complex_ = nerve(target_cover, d_cap)
    return PartitionOfUnity(values, n, tuple(range(len(target_cover.sets))), complex_)


def coarsening_witnesses(f: PartitionOfUnity, cover: Cover):
    """Per element, the least vertex positive on all of it; None where there is none.

    Returns (witnesses, first_failing_index_or_None).  Empty elements pass
    vacuously with witness None.  Each point's carrier is read once, and each
    distinct carrier of an element is intersected once; ``barycentric_map``
    shares one frozenset per carrier.
    """
    _check_same_points(f, cover)
    carrier = {x: bp.carrier for x, bp in f.values.items()}
    witnesses: list[int | None] = []
    failure = None
    for i, s in enumerate(cover.sets):
        if not s:
            witnesses.append(None)
            continue
        common = frozenset.intersection(*set(map(carrier.__getitem__, s)))
        if common:
            witnesses.append(min(common))
        else:
            witnesses.append(None)
            if failure is None:
                failure = i
    return tuple(witnesses), failure


@dataclass(frozen=True)
class PUCertificate:
    """Certificate for the three defining conditions of a certified partition of unity.

    (a) variation below the stated bound (vacuous when eps is None, meaning
    no bound), (b) every cover element carried entirely inside some vertex
    star, (c) star preimages uniformly bounded.
    """

    eps: Fraction | None
    variation_value: Fraction
    variation_pair: tuple[int, int] | None
    variation_ok: bool
    coarsening: tuple[int | None, ...]
    coarsening_ok: bool
    coarsening_failure: int | None
    boundedness: BoundednessCertificate
    ok: bool


def certify_pu(f: PartitionOfUnity, cover: Cover, space, eps: Fraction | None,
               diameter_bound) -> PUCertificate:
    """Certify f as a partition of unity against ``cover`` at bound ``eps``.

    ``eps`` is an int or Fraction above 0, or None for no variation bound.
    Star preimage boundedness is ``space.set_diameter`` against
    ``diameter_bound``: chain diameter in the gauge of a FiniteCoarseSpace,
    metric diameter in a FiniteMetricSpace.

    Neither the variation nor the coarsening witnesses depend on ``eps``, so
    f measures them once per cover value and keeps them; a second certificate
    against an equal cover only compares them with its ``eps``.  Likewise f's
    kept star preimage cover is measured once per space value, and each
    certificate compares its largest diameter with its own ``diameter_bound``.
    """
    if eps is not None:
        eps = _check_rational(eps, 0, "eps")
    measured = f._measured.get(cover)
    if measured is None:
        measured = (variation(f, cover), *coarsening_witnesses(f, cover))
        f._measured[cover] = measured
    var, witnesses, failing = measured
    var_ok = eps is None or var.value < eps
    coarsen_ok = failing is None
    bcert = is_uniformly_bounded(f.star_preimage_cover(), space, diameter_bound)
    return PUCertificate(
        eps=eps,
        variation_value=var.value,
        variation_pair=var.pair,
        variation_ok=var_ok,
        coarsening=witnesses,
        coarsening_ok=coarsen_ok,
        coarsening_failure=failing,
        boundedness=bcert,
        ok=var_ok and coarsen_ok and bcert.ok,
    )
