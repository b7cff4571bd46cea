"""Asymptotic-dimension certificates at fixed scale and the skeleton-filler pipeline.

The constructive direction builds a certified map into an n-dimensional nerve
from a caller-supplied witness cover; the reverse direction trims a certified
map's star preimages back to a witness cover.  The filler blends a retracted
copy of the input map with a freshly built nerve map, with every inequality
checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .covers import (
    _EXACT,
    Cover,
    FiniteCoarseSpace,
    _check_int,
    _check_points,
    _check_rational,
    _check_same_points,
    _region_distances,
    chain_indices,
    diameter_in_graph,
    interior,
    is_refinement,
    iterated_star,
    shrink_with_multiplicity,
    star_cover,
    star_misfit,
    star_set,
)
from .errors import ConstructionError, InputError, PreconditionError
from .pou import (
    BarycentricPoint,
    PartitionOfUnity,
    PUCertificate,
    _l1_ratio,
    barycentric_map,
    certify_pu,
    l1_distance,
)


@dataclass(frozen=True)
class AsdimPairCertificate:
    """Per-element counts of how many witness elements each cover element meets."""

    n: int
    counts: tuple[int, ...]
    ok: bool
    worst_index: int | None

    @property
    def max_count(self) -> int:
        return max(self.counts) if self.counts else 0


def check_asdim_pair(cover: Cover, witness: Cover, n: int) -> AsdimPairCertificate:
    """Pass iff every element of ``cover`` meets at most n+1 elements of ``witness``."""
    _check_int(n, 0, "n")
    _check_same_points(cover, witness)
    counts = []
    for s in cover.sets:
        met: set[int] = set()
        for x in s:
            met.update(witness.membership[x])
        counts.append(len(met))
    worst = None
    if counts:
        mx = max(counts)
        worst = counts.index(mx)
    return AsdimPairCertificate(n, tuple(counts), all(c <= n + 1 for c in counts), worst)


BRUTE_FORCE_POINT_LIMIT = 12


def find_witness_bruteforce(space: FiniteCoarseSpace, cover: Cover, n: int,
                            diameter: int) -> Cover | None:
    """Exhaustively search gauge-ball covers for an asymptotic-dimension witness.

    Candidates are the distinct chain-metric balls of the gauge with diameter
    at most ``diameter``, enumerated by (radius, center).  Returns the first
    covering family in which every element of ``cover`` meets at most n+1
    members, or None when the family admits no such witness.  A None result
    refutes nothing beyond this candidate family and budget.
    """
    _check_int(n, 0, "n")
    _check_int(diameter, 0, "diameter")
    npts = space.n_points
    if npts > BRUTE_FORCE_POINT_LIMIT:
        raise InputError(
            f"brute-force witness search is limited to {BRUTE_FORCE_POINT_LIMIT} points")
    _check_same_points(space, cover)
    graph = space.chain
    dist = [graph.distances_from([c]) for c in range(npts)]

    balls: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for r in range(diameter + 1):
        for c in range(npts):
            ball = frozenset(y for y in range(npts)
                             if dist[c][y] is not None and dist[c][y] <= r)
            if ball in seen:
                continue
            seen.add(ball)
            diam = diameter_in_graph(ball, graph)
            if diam <= diameter:
                balls.append(ball)

    meets = [[bool(ball & s) for ball in balls] for s in cover.sets]
    counts = [0] * len(cover.sets)
    chosen: list[int] = []
    covered = [False] * npts

    def search() -> bool:
        target = next((x for x in range(npts) if not covered[x]), None)
        if target is None:
            return True
        for bi, ball in enumerate(balls):
            if target not in ball:
                continue
            bumped = [t for t in range(len(cover.sets)) if meets[t][bi]]
            if any(counts[t] + 1 > n + 1 for t in bumped):
                continue
            for t in bumped:
                counts[t] += 1
            newly = [x for x in ball if not covered[x]]
            for x in newly:
                covered[x] = True
            chosen.append(bi)
            if search():
                return True
            chosen.pop()
            for x in newly:
                covered[x] = False
            for t in bumped:
                counts[t] -= 1
        return False

    if search():
        witness = Cover(tuple(balls[bi] for bi in chosen), npts)
        final = check_asdim_pair(cover, witness, n)
        if not final.ok:
            raise ConstructionError("search invariant broken: chosen family fails its own count")
        return witness
    return None


@dataclass(frozen=True)
class SkeletonResult:
    """Outcome of the witness-to-nerve-map construction."""

    pu: PartitionOfUnity
    certificate: PUCertificate
    cover: Cover                       # the starred witness the map points into
    precondition: AsdimPairCertificate


def build_skeleton_pu(space: FiniteCoarseSpace, cover: Cover, witness: Cover,
                      k: int, n: int, diameter_bound: int) -> SkeletonResult:
    """Build a certified map into an n-dimensional nerve from a witness cover.

    Requires every element of the (k+1)-fold star of ``cover`` to meet at most
    n+1 elements of ``witness``.  That star meets w_j exactly when the k-fold
    star meets the star of w_j against ``cover``, so the check counts those
    and no (k+1)-fold star is built.  The target family stars the witness
    against the k-fold star of ``cover``; its multiplicity is checked to stay
    at most n+1, so the nerve capped at dimension n holds every carrier.  The
    returned certificate is taken at bound (2n+2)^2 / k.
    """
    _check_int(k, 1, "k")
    _check_int(n, 0, "n")
    stars = iterated_star(cover, k)
    pre = check_asdim_pair(stars, star_cover(witness, cover), n)
    if not pre.ok:
        raise PreconditionError(
            f"element {pre.worst_index} of the (k+1)-fold star meets "
            f"{pre.max_count} witness elements (allowed {n + 1})",
            witness=pre,
        )
    target = star_cover(witness, stars)
    mult = target.max_multiplicity()
    if mult > n + 1:
        worst = next(x for x in range(target.n_points)
                     if target.multiplicity(x) > n + 1)
        raise ConstructionError(
            f"starred witness has multiplicity {mult} > {n + 1} at point {worst}")
    pu = barycentric_map(cover, target, d_cap=n)
    eps = Fraction((2 * n + 2) ** 2, k)
    cert = certify_pu(pu, cover, space, eps, diameter_bound)
    return SkeletonResult(pu, cert, target, pre)


@dataclass(frozen=True)
class TrimResult:
    cover: Cover
    certificate: AsdimPairCertificate


def trim_to_cover(f: PartitionOfUnity, cover: Cover, n: int) -> TrimResult:
    """Trim the star preimages of f to a witness cover for ``cover``.

    Requires the star preimages to coarsen the 2-fold star of ``cover`` and to
    have pointwise multiplicity at most n+1.  Each preimage loses the union of
    all ``cover`` elements meeting its complement; the result still coarsens
    ``cover`` and passes the n-count check against it.
    """
    _check_int(n, 0, "n")
    _check_same_points(f, cover)
    if f.max_carrier_size() > n + 1:
        worst = next(x for x in sorted(f.values) if len(f.values[x].carrier) > n + 1)
        raise PreconditionError(
            f"carrier at point {worst} has {len(f.values[worst].carrier)} vertices "
            f"(allowed {n + 1})", witness=worst)
    preimages = f.star_preimage_cover()
    inner, rims = [], []
    for s in preimages.sets:  # one BFS per preimage serves the gate and the trim
        index = _region_distances(cover, s)
        inner.append(interior(cover, s, 2, index))
        rims.append(frozenset(x for x in s if index[x] == 2))
    bad = star_misfit(cover, 2, preimages, inner)
    if bad is not None:
        raise PreconditionError(
            f"2-fold star element {bad} fits in no star preimage",
            witness=star_set(star_set(cover.sets[bad], cover), cover))

    # the 1-interior is the 2-interior plus the rim of index 2; each element is
    # replaced in place so that only one extra set is alive at a time
    for j, rim in enumerate(rims):
        inner[j] |= rim
    result = Cover(tuple(inner), cover.n_points, allow_empty=True)

    back = is_refinement(cover, result)
    if not back.ok:
        raise ConstructionError("trimmed family no longer coarsens the input cover")
    cert = check_asdim_pair(cover, result, n)
    if not cert.ok:
        raise ConstructionError("trimmed family fails the intersection count check")
    return TrimResult(result, cert)


def _filler_bound(eps: Fraction, n: int) -> Fraction:
    """The filler certifies at min(eps, 1/(n+1)); each budget term stays below a quarter of it."""
    return min(eps, Fraction(1, n + 1))


@dataclass(frozen=True)
class FillerParams:
    """Scale parameters for the filler, all four budget terms below the cap.

    The cap is min(eps, 1/(n+1))/4 and the terms are (2m+1)*delta, 3/m,
    2(2n+2)^2/k and 3/m again.
    """

    eps: Fraction
    n: int
    k: int
    m: int
    delta: Fraction

    def __post_init__(self):
        _check_int(self.n, 0, "n")
        _check_int(self.m, 1, "m")
        _check_int(self.k, self.m + 1, "k")
        _check_rational(self.eps, 0, "eps")
        _check_rational(self.delta, 0, "delta")
        cap = _filler_bound(self.eps, self.n) / 4
        for term in self.budget_terms():
            if not term < cap:
                raise InputError(f"budget term {term} is not below the cap {cap}")

    def budget_terms(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (
            (2 * self.m + 1) * self.delta,
            Fraction(3, self.m),
            Fraction(2 * (2 * self.n + 2) ** 2, self.k),
            Fraction(3, self.m),
        )

    def variation_budget(self) -> Fraction:
        return sum(self.budget_terms(), Fraction(0))


def choose_filler_params(eps, n: int) -> FillerParams:
    """Deterministic minimal parameter choice for the filler at bound eps.

    m is the least integer with 3/m below the cap, k the least integer above m
    with 2(2n+2)^2/k below the cap, and delta is half the cap divided by 2m+1.
    """
    eps = _check_rational(eps, 0, "eps")
    _check_int(n, 0, "n")
    cap = _filler_bound(eps, n) / 4
    m = int(3 / cap) + 1
    k = max(m + 1, int(Fraction(2 * (2 * n + 2) ** 2) / cap) + 1)
    delta = cap / (2 * (2 * m + 1))
    return FillerParams(eps=eps, n=n, k=k, m=m, delta=delta)


@dataclass(frozen=True)
class BlendFunction:
    """Pointwise blend coefficients in [0,1] and the m-fold star of the subset."""

    values: tuple[Fraction, ...]
    star_region: frozenset[int]

    def __post_init__(self):
        for x, a in enumerate(self.values):
            if type(a) not in _EXACT:
                raise InputError(f"blend value {a!r} at point {x} is not an int or Fraction")
            if not 0 <= a.numerator <= a.denominator:  # the denominator is positive
                raise InputError(f"blend value {a} at point {x} outside [0, 1]")


def blend_alpha(subset, m: int, cover: Cover) -> BlendFunction:
    """Blend profile: 1 deep inside the subset, 0 outside its m-fold star.

    The value at x is p/(p+q) where p is x's chain index in the m-fold star of
    the subset and q its chain index in the subset's complement.  An infinite
    p gives 1 (or 1/2 when q is infinite too), and an infinite q alone gives 0.
    """
    n = cover.n_points
    region = _check_points(subset, n)
    if not region:
        raise InputError("the subset must be nonempty")
    if len(region) == n:
        raise InputError("the subset must be a proper subset")
    _check_int(m, 1, "m")
    q_raw = cover.chain.distances_from(region)
    # the m-fold star of the subset is its chain ball of radius m
    star_m = frozenset(x for x in range(n) if q_raw[x] is not None and q_raw[x] <= m)
    p_raw = chain_indices(cover, star_m)

    values: list[Fraction] = []
    for p, q in zip(p_raw, q_raw):
        if p is None:
            values.append(Fraction(1) if q is not None else Fraction(1, 2))
        elif q is None:
            values.append(Fraction(0))
        else:
            values.append(Fraction(p, p + q) if p + q else Fraction(0))
    return BlendFunction(tuple(values), star_m)


@dataclass(frozen=True)
class RetractResult:
    """The input map made skeletal near the anchor set, plus bookkeeping."""

    pu: PartitionOfUnity                 # f outside the m-fold star of the anchors
    max_shift: Fraction                  # largest l1 move applied to any value
    shift_bound: Fraction                # m * delta, the expected ceiling for the shift


def skeletal_retract(f: PartitionOfUnity, subset, m: int, cover: Cover,
                     delta: Fraction, n: int) -> RetractResult:
    """Push f onto the carriers of its nearest anchor values over the subset's m-star.

    Each point x in the m-fold star gets the anchor c(x): the endpoint in the
    subset of a shortest chain (least id on ties, c(x)=x on the subset).  All
    weight of f(x) outside the carrier of f(c(x)) moves onto one common
    carrier vertex: the common vertex of largest weight at the anchor, least
    id on ties.  Outside the m-fold star the result equals f.  Values over
    the subset must use at most n+1 vertices, and m*delta, for an exact
    delta > 0, must stay below 1/(8(n+1)) so the two carriers share a vertex.
    """
    delta = _check_rational(delta, 0, "delta")
    region = _check_points(subset, f.n_points)
    if not region:
        raise InputError("the anchor subset must be nonempty")
    _check_int(m, 1, "m")
    _check_int(n, 0, "n")
    _check_same_points(f, cover)
    if not m * delta < Fraction(1, 8 * (n + 1)):
        raise PreconditionError(
            f"m*delta = {m * delta} is not below 1/{8 * (n + 1)}")
    given = f.values
    for a in sorted(region):
        if len(given[a].carrier) > n + 1:
            raise PreconditionError(
                f"value at anchor {a} uses {len(given[a].carrier)} vertices "
                f"(allowed {n + 1})", witness=a)

    dist, anchor_of = _nearest_anchor(cover.chain, region)

    values: dict[int, BarycentricPoint] = {}
    top, top_num, top_den = None, 0, 1  # the first point of largest shift, and the shift
    for x, d in enumerate(dist):
        fx = values[x] = given[x]
        if d is None or d > m:  # outside the m-fold star of the subset
            continue
        c = anchor_of[x]
        fc = given[c]
        fc_carrier = fc.carrier
        if fx.carrier <= fc_carrier:
            continue
        common = fx.carrier & fc_carrier
        if not common:
            raise PreconditionError(
                f"carriers at point {x} and its anchor {c} are disjoint", witness=x)
        target = min(common, key=lambda v: (-fc.num[v], v))
        moved = 0  # numerator over fx.den
        kept = {}
        for v, w in fx.num.items():
            if v in fc_carrier:
                kept[v] = w
            else:
                moved += w
        kept[target] = kept.get(target, 0) + moved
        gx = BarycentricPoint._from_ints(kept, fx.den)
        values[x] = gx
        num, den = _l1_ratio(gx, fx)
        if num * fx.den != 2 * moved * den:  # the shift is not 2*moved/fx.den
            raise ConstructionError("retract moved a different mass than it removed")
        if num * top_den > top_num * den:
            top, top_num, top_den = x, num, den
    max_shift = Fraction(0) if top is None else l1_distance(values[top], given[top])
    pu = PartitionOfUnity(values, f.n_points, f.vertices, f.complex)
    return RetractResult(pu, max_shift, m * delta)


def _nearest_anchor(graph, sources) -> tuple[list[int | None], list[int | None]]:
    """Per point, the chain distance to the sources and the least-id source at it.

    The nearest sources of x are those of its neighbours one step closer to
    the sources, so visiting points in order of distance and taking the least
    root among those neighbours gives the least nearest source.
    """
    dist = graph.distances_from(sources)
    root: list[int | None] = [None] * graph.n_points
    for s in sources:
        root[s] = s
    for x in sorted((x for x, d in enumerate(dist) if d), key=dist.__getitem__):
        root[x] = min(root[y] for y in graph.neighbors[x] if dist[y] == dist[x] - 1)
    return dist, root


@dataclass(frozen=True)
class FillerResult:
    """The blended map with its certificate and every measured quantity."""

    pu: PartitionOfUnity
    certificate: PUCertificate           # at bound min(eps, 1/(n+1))
    input_certificate: PUCertificate     # f against the coarse cover at delta
    retract: RetractResult
    budget: Fraction
    measured_variation: Fraction
    budget_ok: bool
    max_deviation_on_anchors: Fraction   # largest l1 gap between the result and the retract on the subset
    max_carrier_size: int
    min_peak_weight: Fraction            # smallest over points of the largest coordinate


def filler(space: FiniteCoarseSpace, f: PartitionOfUnity, subset, cover: Cover,
           coarse: Cover, params: FillerParams, diameter_bound: int) -> FillerResult:
    """Blend a skeletal retract of f with a nerve map into a certified result.

    Gates: f certifies against ``coarse`` at bound delta; values over the
    subset are n-skeletal; ``coarse`` coarsens the k-fold star of ``cover``
    with multiplicity at most n+1.  The star preimages of f are then shrunk
    against ``coarse``, a nerve map is built on the shrunk family, and the
    blend is certified against ``cover`` at min(eps, 1/(n+1)).
    """
    n, m, k = params.n, params.m, params.k

    input_cert = certify_pu(f, coarse, space, params.delta, diameter_bound)
    if not input_cert.ok:
        raise PreconditionError(
            "input map does not certify against the coarse cover at delta",
            witness=input_cert)
    bad = star_misfit(cover, k, coarse)
    if bad is not None:
        raise PreconditionError(
            f"k-fold star element {bad} fits in no coarse element", witness=bad)
    mult = coarse.max_multiplicity()
    if mult > n + 1:
        raise PreconditionError(f"coarse cover has multiplicity {mult} > {n + 1}")

    region = _check_points(subset, space.n_points)  # after the gates: a failed gate is named first
    alpha = blend_alpha(region, m, cover)
    retract = skeletal_retract(f, region, m, cover, params.delta, n)
    shrunk = shrink_with_multiplicity(coarse, f.star_preimage_cover())
    nerve_map = barycentric_map(cover, shrunk)

    # the shrunk family sits inside the star preimages, so the nerve map's
    # carriers are faces of the input map's carriers; points that share a nerve
    # map value share its relabel, keyed by the object, which nerve_map keeps alive
    values: dict[int, BarycentricPoint] = {}
    relabels: dict[int, BarycentricPoint] = {}
    for x in range(space.n_points):
        bp = nerve_map.values[x]
        relabeled = relabels.get(id(bp))
        if relabeled is None:
            relabeled = relabels[id(bp)] = BarycentricPoint._from_ints(
                {f.vertices[s]: w for s, w in bp.num.items()}, bp.den)
        if not relabeled.carrier <= f.values[x].carrier:
            raise ConstructionError(
                f"nerve map carrier at point {x} escapes the input carrier")
        a = alpha.values[x]
        if a == 0:
            values[x] = relabeled
        elif a == 1:
            values[x] = retract.pu.values[x]
        else:
            values[x] = retract.pu.values[x].blend(relabeled, a)
    del relabels
    blended = PartitionOfUnity(values, space.n_points, f.vertices, f.complex)

    cert = certify_pu(blended, cover, space, _filler_bound(params.eps, n), diameter_bound)
    budget = params.variation_budget()
    measured = cert.variation_value

    kept = retract.pu.values
    worst, worst_num, worst_den = None, 0, 1  # an anchor of largest deviation, and the deviation
    for x in region:
        num, den = _l1_ratio(values[x], kept[x])
        if num * worst_den > worst_num * den:
            worst, worst_num, worst_den = x, num, den
    deviation = Fraction(0) if worst is None else l1_distance(values[worst], kept[worst])
    peak_num, peak_den = 1, 1  # the least largest weight, as an int pair; no weight exceeds 1
    for bp in values.values():
        top = max(bp.num.values())
        if top * peak_den < peak_num * bp.den:
            peak_num, peak_den = top, bp.den
    return FillerResult(
        pu=blended,
        certificate=cert,
        input_certificate=input_cert,
        retract=retract,
        budget=budget,
        measured_variation=measured,
        budget_ok=measured <= budget,
        max_deviation_on_anchors=deviation,
        max_carrier_size=blended.max_carrier_size(),
        min_peak_weight=Fraction(peak_num, peak_den),
    )
