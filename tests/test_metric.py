"""Finite metric spaces, ball covers, and both directions of the scale bridge."""

import random
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import (
    BarycentricPoint,
    Cover,
    FiniteMetricSpace,
    InputError,
    PartitionOfUnity,
    PreconditionError,
    ball_cover,
    barycentric_map,
    certify_delta_pu,
    comparison_backward,
    comparison_forward,
    gen_line,
    gen_random_geometric,
    is_uniformly_bounded,
    l1_distance,
    variation,
)
from coarsedim import metric as metric_module
from coarsedim.formats import doc_dumps, dump_pu, load_pu
from coarsedim.generators import random_cover, random_refinement_pair
from coarsedim.pou import _l1_ratio
from oracles import (
    ball_cover_fractions,
    delta_pair_scan_fractions,
    l1_distance_fractions,
    lebesgue_pair_fractions,
    random_fraction,
    set_diameter_fractions,
    triangle_violation_fractions,
    variation_all_pairs,
)

F = Fraction


def constant_map(n, vertex=0, vertices=(0, 1)):
    values = {x: BarycentricPoint.vertex(vertex) for x in range(n)}
    return PartitionOfUnity(values, n, tuple(vertices))


# --- metric space construction ------------------------------------------------

def test_metric_rejects_triangle_violation():
    rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    with pytest.raises(InputError):
        FiniteMetricSpace(3, rows)


def test_metric_rejects_asymmetry():
    rows = [[0, 1], [2, 0]]
    with pytest.raises(InputError):
        FiniteMetricSpace(2, rows)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: FiniteMetricSpace(2, [[0, 0.1], [0.1, 0]]),
                 "distance (0, 1) is 0.1, not an int or Fraction", id="float"),
    pytest.param(lambda: FiniteMetricSpace(2, [[0, "1/3"], ["1/3", 0]]),
                 "distance (0, 1) is '1/3', not an int or Fraction", id="string"),
    pytest.param(lambda: FiniteMetricSpace(2, [[0, 1], [None, 0]]),
                 "distance (1, 0) is None, not an int or Fraction", id="none"),
    pytest.param(lambda: FiniteMetricSpace(2, [[0, True], [True, 0]]),
                 "distance (0, 1) is True, not an int or Fraction", id="bool"),
    pytest.param(lambda: FiniteMetricSpace(0, []),
                 "n_points = 0 is not an int >= 1", id="no-points"),
    pytest.param(lambda: FiniteMetricSpace(-1, []),
                 "n_points = -1 is not an int >= 1", id="negative-points"),
    # a count and a point are ints: 2.0 and True are neither, though 2.0 == 2 and True == 1
    pytest.param(lambda: FiniteMetricSpace(2.0, [[0, 1], [1, 0]]),
                 "n_points = 2.0 is not an int >= 1", id="float-count"),
    pytest.param(lambda: FiniteMetricSpace(True, [[0]]),
                 "n_points = True is not an int >= 1", id="bool-count"),
    pytest.param(lambda: FiniteMetricSpace.line(3).d(True, 0), "unknown point True",
                 id="bool-point"),
    pytest.param(lambda: FiniteMetricSpace.line(3).d(0.5, 1), "unknown point 0.5",
                 id="float-point"),
    # a coordinate is read as it is given: 0.1 would be a binary fraction
    pytest.param(lambda: FiniteMetricSpace.from_l1_points([(F(1, 10),), (0.1,)]),
                 "coordinate 0.1 of point 1 is not an int or Fraction", id="float-coordinate"),
    pytest.param(lambda: FiniteMetricSpace.from_l1_points([(0, True)]),
                 "coordinate True of point 0 is not an int or Fraction", id="bool-coordinate"),
    pytest.param(lambda: FiniteMetricSpace.from_l1_points([(0, 1), ("1/3", 0)]),
                 "coordinate '1/3' of point 1 is not an int or Fraction", id="string-coordinate"),
])
def test_metric_rejects_bad_input(build, message):
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


def test_int_metric_is_its_fraction_twin():
    # all-int rows are kept as they are, over den 1; the twin with Fraction entries is rescaled
    rng = random.Random(3)
    line = [[abs(i - j) for j in range(7)] for i in range(7)]
    pts = [(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(9)]
    l1 = [[sum(abs(s - t) for s, t in zip(a, b)) for b in pts] for a in pts]
    for rows in (line, l1):
        n = len(rows)
        ints = FiniteMetricSpace(n, rows)
        twin = FiniteMetricSpace(n, [[F(d) for d in row] for row in rows])
        assert ints._scaled == twin._scaled == (1, tuple(map(tuple, rows)))
        assert ints == twin and hash(ints) == hash(twin)
    assert FiniteMetricSpace.line(7) == FiniteMetricSpace(7, line)
    assert FiniteMetricSpace.from_l1_points([(0,), (3,)]).d(0, 1) == 3


def test_metric_hashes_its_distances_once():
    # an equal metric built anew is equal and hashes equal; a relabelled one is neither
    rng = random.Random(5)
    pts = [(rng.randrange(-5, 6), F(rng.randrange(7), 3)) for _ in range(9)]
    metric = FiniteMetricSpace.from_l1_points(pts)
    again = FiniteMetricSpace.from_l1_points(pts)
    relabelled = FiniteMetricSpace.from_l1_points(pts[1:] + pts[:1])
    assert again is not metric and again == metric and hash(again) == hash(metric)
    assert relabelled != metric and hash(relabelled) != hash(metric)
    # the second hash reads the kept one, not the rows
    object.__setattr__(again, "_scaled", None)
    assert hash(again) == hash(metric)


@pytest.mark.parametrize("n, rows, message", [
    pytest.param(2, [[0, 1]], "distance matrix shape does not match the point count", id="shape"),
    pytest.param(2, [[0, 1], [1, 2]], "nonzero self-distance at point 1", id="self"),
    pytest.param(3, [[0, 1, 2], [1, 0, 1], [2, 3, 0]], "asymmetric distance between 1 and 2",
                 id="asymmetric"),
    pytest.param(2, [[0, -1], [-1, 0]], "negative distance between 0 and 1", id="negative"),
    pytest.param(3, [[0, 1, 5], [1, 0, 1], [5, 1, 0]], "triangle inequality fails on (0, 2, 1)",
                 id="triangle"),
])
def test_int_and_fraction_matrices_are_refused_alike(n, rows, message):
    for entries in (rows, [[F(d) for d in row] for row in rows],
                    [[F(d, 2) for d in row] for row in rows]):
        with pytest.raises(InputError) as err:
            FiniteMetricSpace(n, entries)
        assert str(err.value) == message


def test_line_metric_distances():
    m = FiniteMetricSpace.line(10)
    assert m.d(0, 9) == 9
    assert m.d(4, 4) == 0


def test_random_geometric_metric_satisfies_triangle():
    inst = gen_random_geometric(30, F(1, 4), seed=7)
    # construction is l1 on coordinates, so this re-verifies the invariant
    FiniteMetricSpace(30, inst.metric.dist, check_triangle=True)


@pytest.mark.parametrize("seed", range(5))
def test_random_geometric_gauge_is_its_ball_pairs(seed):
    # singletons, then each pair (i, j), i < j, within the radius, in order;
    # some radii are distances of the space, where <= is tight
    n = 14
    dists = sorted({d for row in gen_random_geometric(n, 1, seed).metric.dist for d in row if d})
    for radius in (F(1, 4), F(1, 2), dists[0], dists[len(dists) // 3], dists[-1]):
        inst = gen_random_geometric(n, radius, seed)
        balls = ball_cover_fractions(inst.metric, radius).sets
        pairs = [frozenset((i, j)) for i in range(n) for j in sorted(balls[i]) if j > i]
        assert inst.space.gauge.sets == tuple(frozenset((i,)) for i in range(n)) + tuple(pairs)


# --- ball covers ------------------------------------------------------------------

def test_ball_cover_small_radius_gives_singletons():
    m = FiniteMetricSpace.line(5)
    c = ball_cover(m, F(1, 2))
    assert c.sets == tuple(frozenset((i,)) for i in range(5))


def test_ball_cover_large_radius_gives_whole_space():
    m = FiniteMetricSpace.line(5)
    c = ball_cover(m, 10)
    assert all(s == frozenset(range(5)) for s in c.sets)


def test_ball_cover_line_example():
    m = FiniteMetricSpace.line(10)
    c = ball_cover(m, 2)
    assert sorted(c.sets[5]) == [3, 4, 5, 6, 7]


def test_ball_cover_elements_have_bounded_diameter():
    inst = gen_random_geometric(25, F(1, 4), seed=3)
    r = F(1, 3)
    c = ball_cover(inst.metric, r)
    for s in c.sets:
        assert inst.metric.set_diameter(s) <= 2 * r


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(0, 10_000), st.data())
def test_set_diameter_matches_fraction_pair_scan(n, dim, seed, data):
    rng = random.Random(seed)
    metric = FiniteMetricSpace.from_l1_points(
        [tuple(random_fraction(rng, -3, 3, 7) for _ in range(dim)) for _ in range(n)])
    subsets = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n + 2), max_size=6))
    for s in subsets + [list(range(n))]:
        got = metric.set_diameter(s)
        assert type(got) is Fraction
        assert got == set_diameter_fractions(metric, s)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(0, 10_000))
def test_int_metric_checks_match_fraction_references(n, dim, seed):
    # rational l1 metrics, then one symmetric entry moved, often past the triangle inequality
    rng = random.Random(seed)
    metric = FiniteMetricSpace.from_l1_points(
        [tuple(random_fraction(rng, -3, 3, 7) for _ in range(dim)) for _ in range(n)])
    rows = [list(row) for row in metric.dist]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = random_fraction(rng, 0, 12 * dim, 7)
    bad = triangle_violation_fractions(rows)
    if bad is None:
        FiniteMetricSpace(n, rows, check_triangle=True)
    else:
        with pytest.raises(InputError) as err:
            FiniteMetricSpace(n, rows, check_triangle=True)
        assert str(err.value) == "triangle inequality fails on (%d, %d, %d)" % bad

    # ball sets at random radii and at distances of the space, where <= is tight
    dists = sorted({d for row in metric.dist for d in row if d > 0})
    radii = [random_fraction(rng, 0, 6 * dim, 7) or F(1, 5) for _ in range(3)]
    radii += rng.sample(dists, min(2, len(dists)))
    for r in radii:
        assert ball_cover(metric, r).sets == ball_cover_fractions(metric, r).sets

    # the backward precheck: the least widest element, then the first close pair with no
    # shared element
    deltas = [random_fraction(rng, 1, 13, 7) / 7]  # inside (0, 2)
    deltas += [1 / d for d in rng.sample(dists, min(2, len(dists))) if d > F(1, 2)]
    for delta in deltas:
        cover = (random_cover(rng, n) if rng.random() < 0.5
                 else ball_cover(metric, random_fraction(rng, 1, 4 * dim, 5) / 2))
        widths = [set_diameter_fractions(metric, s) for s in cover.sets]
        widest = max(widths, default=0)
        too_wide = widths.index(widest) if widest > 2 / delta else None
        pair = lebesgue_pair_fractions(metric, cover, delta)
        if too_wide is None and pair is None:
            assert comparison_backward(constant_map(n), metric, delta, 100, cover=cover).ok
            continue
        with pytest.raises(PreconditionError) as err:
            comparison_backward(constant_map(n), metric, delta, 100, cover=cover)
        if too_wide is not None:
            assert err.value.witness == too_wide
            assert str(err.value) == f"cover element {too_wide} has metric diameter above 2/delta"
        else:
            assert err.value.witness == pair
            assert str(err.value) == f"pair {pair} is closer than 1/delta but shares no element"


# --- metric certificates --------------------------------------------------------------

def test_constant_map_certifies_at_any_delta():
    m = FiniteMetricSpace.line(8)
    f = constant_map(8)
    cert = certify_delta_pu(f, m, F(1, 10), 7)
    assert cert.ok
    small = certify_delta_pu(f, m, F(1, 10), 3)
    assert not small.ok and not small.boundedness.ok


def test_two_point_space_lipschitz_cutoff():
    # two points at distance 1/delta mapping to distinct vertices:
    # displacement 2 against allowance delta*(1/delta)+delta = 1+delta
    for delta, expect in ((F(1), True), (F(3, 2), True), (F(1, 2), False)):
        m = FiniteMetricSpace(2, [[0, 1 / delta], [1 / delta, 0]])
        values = {0: BarycentricPoint.vertex(0), 1: BarycentricPoint.vertex(1)}
        f = PartitionOfUnity(values, 2, (0, 1))
        cert = certify_delta_pu(f, m, delta, 1 / delta)
        assert cert.lipschitz_ok is expect
        # the pair is closer than 1/delta only in the failing regime
        assert cert.lebesgue_ok is (not expect or delta >= 1)


def fine_scale_map(n=100, radius=32):
    metric = FiniteMetricSpace.line(n)
    line = gen_line(n)
    balls = ball_cover(metric, radius)
    return metric, barycentric_map(line.space.gauge, balls)


def test_fine_scale_map_certifies_at_one_sixteenth():
    metric, f = fine_scale_map()
    cert = certify_delta_pu(f, metric, F(1, 16), 64)
    assert cert.ok


# --- the bridge -------------------------------------------------------------------------

def test_forward_comparison_on_fine_scale_map():
    metric, f = fine_scale_map()
    cert = comparison_forward(f, metric, F(1, 2), 99)
    assert cert.ok
    assert cert.variation_value < F(1, 2)


def test_forward_comparison_constant_map():
    metric = FiniteMetricSpace.line(50)
    cert = comparison_forward(constant_map(50), metric, F(1, 2), 49)
    assert cert.ok and cert.variation_value == 0


def test_forward_comparison_rejects_bad_gate():
    # distinct vertices one step apart violate the delta^2/4 Lipschitz bound
    metric = FiniteMetricSpace.line(4)
    values = {x: BarycentricPoint.vertex(x % 2) for x in range(4)}
    f = PartitionOfUnity(values, 4, (0, 1))
    with pytest.raises(PreconditionError):
        comparison_forward(f, metric, F(1, 2), 3)


def test_backward_comparison_on_fine_scale_map():
    metric, f = fine_scale_map()
    cert = comparison_backward(f, metric, F(1, 2), 99)
    assert cert.ok
    assert cert.delta == 1  # certified at 2*delta


def test_backward_comparison_gate_ordering():
    metric = FiniteMetricSpace.line(4)
    values = {x: BarycentricPoint.vertex(x % 2) for x in range(4)}
    f = PartitionOfUnity(values, 4, (0, 1))
    with pytest.raises(PreconditionError):
        comparison_backward(f, metric, F(1, 2), 3)


def test_backward_comparison_checks_cover_geometry():
    metric, f = fine_scale_map()
    toolarge = Cover.of([range(100)], 100)
    with pytest.raises(PreconditionError):
        comparison_backward(f, metric, F(1, 2), 99, cover=toolarge)


def test_backward_comparison_names_the_least_widest_element():
    # 2/delta = 2: element 1 is the first above it, and 3 is the first of the two widest
    metric = FiniteMetricSpace.line(10)
    cover = Cover.of([[0, 1], range(4), range(2, 10), range(10), range(10)], 10)
    with pytest.raises(PreconditionError) as err:
        comparison_backward(constant_map(10), metric, 1, 99, cover=cover)
    assert err.value.witness == 3 == is_uniformly_bounded(cover, metric, 2).witness
    assert str(err.value) == "cover element 3 has metric diameter above 2/delta"


def test_backward_comparison_names_first_close_pair_without_common_element():
    # threshold 1/delta = 2: (1, 2) and (3, 4) are at distance 1 and share no element
    metric = FiniteMetricSpace.line(6)
    blocks = Cover.of([[0, 1], [2, 3], [4, 5]], 6)
    with pytest.raises(PreconditionError) as err:
        comparison_backward(constant_map(6), metric, F(1, 2), 99, cover=blocks)
    assert err.value.witness == (1, 2)


def test_far_pairs_satisfy_doubled_bound_exactly():
    # at distance >= 1/delta the displacement never exceeds 2 <= 2*delta*d + 2*delta
    metric, f = fine_scale_map()
    delta = F(1, 2)
    cert = comparison_backward(f, metric, delta, 99)
    assert cert.ok
    from coarsedim import l1_distance
    for x in range(0, 100, 7):
        for y in range(x + 2, 100, 13):
            d = metric.d(x, y)
            assert l1_distance(f.values[x], f.values[y]) <= 2 * delta * d + 2 * delta


def unreduced(text, rng):
    """The same map file with each value line's fraction scaled by a random factor."""
    lines = []
    for ln in text.splitlines():
        tok = ln.split()
        if tok[0] == "value":
            k = rng.randrange(1, 7)
            tok[3:] = [str(int(tok[3]) * k), str(int(tok[4]) * k)]
        lines.append(" ".join(tok))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10_000))
def test_int_arithmetic_matches_fraction_oracle(n, seed):
    # values from barycentric_map, from unreduced value lines, and from blends
    rng = random.Random(seed)
    fine, coarse = random_refinement_pair(rng, n)
    base = barycentric_map(fine, coarse)
    loaded = load_pu(unreduced(dump_pu(base), rng))
    values = {}
    for x in range(n):
        a = loaded.values[x]
        assert a == base.values[x] and hash(a) == hash(base.values[x])
        if rng.random() < 0.5:
            b = loaded.values[rng.randrange(n)]
            alpha = random_fraction(rng, 0, 1, 6)
            a = a.blend(b, alpha)
            expect = {v: alpha * a_w + (1 - alpha) * b.weight(v)
                      for v, a_w in loaded.values[x].weights.items()}
            expect.update({v: (1 - alpha) * w for v, w in b.weights.items() if v not in expect})
            assert a.weights == {v: w for v, w in expect.items() if w}
        values[x] = a
    f = PartitionOfUnity(values, n, base.vertices)

    # equal points, and two points off every carrier
    m = len(base.vertices)
    points = [*values.values(), base.values[0], BarycentricPoint.vertex(m),
              BarycentricPoint({m: F(1, 3), m + 1: F(2, 3)})]
    for a in points:
        for b in points:
            num, den = _l1_ratio(a, b)
            assert den > 0
            assert F(num, den) == l1_distance(a, b) == l1_distance_fractions(a, b)

    cover = random_cover(rng, n)
    res = variation(f, cover)
    assert (res.value, res.pair) == variation_all_pairs(values, cover, l1_distance_fractions)

    metric = FiniteMetricSpace.from_l1_points(
        [(random_fraction(rng, 0, 3, 4),) for _ in range(n)])
    delta = random_fraction(rng, 0, 2, 5) or F(1, 7)
    cert = certify_delta_pu(f, metric, delta, random_fraction(rng, 0, 3, 2))
    ref = delta_pair_scan_fractions(f, metric, delta)
    for name, value in ref.items():
        assert getattr(cert, name) == value, name
    assert cert.ok == (ref["lipschitz_ok"] and ref["lebesgue_ok"] and cert.boundedness.ok)


def repeated_value_maps(n, rng):
    """Maps on 0..n-1 with repeated values: constant, blocks, a one-carrier ramp, balls, blends."""
    size = rng.randrange(1, 6)
    a, b = BarycentricPoint.vertex(0), BarycentricPoint.vertex(1)
    maps = [constant_map(n, vertex=rng.randrange(2)),
            PartitionOfUnity({x: BarycentricPoint.vertex(x // size) for x in range(n)},
                             n, tuple(range(n // size + 1))),
            PartitionOfUnity({x: a.blend(b, F(x % (size + 1), size + 1)) for x in range(n)},
                             n, (0, 1))]
    if n > 1:
        maps.append(barycentric_map(gen_line(n).space.gauge,
                                    ball_cover(FiniteMetricSpace.line(n), rng.randrange(1, 9))))
    base = maps[-1]
    alpha = random_fraction(rng, 0, 1, 6)
    maps.append(PartitionOfUnity(
        {x: bp.blend(base.values[(x + 1) % n], alpha) if rng.random() < 0.3 else bp
         for x, bp in base.values.items()}, n, base.vertices))
    return maps


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10_000), st.booleans())
def test_pruned_lipschitz_scan_matches_fraction_pair_scan(n, seed, relabelled_line):
    # relabelled lines and rational l1 metrics; margins tie on a line wherever the
    # values repeat, and delta runs from 1/64 to past 2, where every pair passes
    rng = random.Random(seed)
    if relabelled_line:
        perm = rng.sample(range(n), n)
        metric = FiniteMetricSpace(n, [[abs(perm[i] - perm[j]) for j in range(n)]
                                       for i in range(n)])
    else:
        metric = FiniteMetricSpace.from_l1_points(
            [tuple(random_fraction(rng, 0, n, 4) for _ in range(2)) for _ in range(n)])
    for f in repeated_value_maps(n, rng):
        if relabelled_line:
            f = PartitionOfUnity({x: f.values[perm[x]] for x in range(n)}, n, f.vertices)
        deltas = (rng.choice([F(1, 64), F(1, 16), F(1, 4)]), rng.choice([F(1), F(2), F(9, 4)]),
                  random_fraction(rng, 1, 24, 8) / 8)
        for delta in deltas:
            cert = certify_delta_pu(f, metric, delta, n)
            ref = delta_pair_scan_fractions(f, metric, delta)
            for name, value in ref.items():
                assert getattr(cert, name) == value, (name, delta)


def counted_l1(monkeypatch):
    """The l1 ratios the metric scans measure, and the l1 values they report."""
    calls, reported = [], []
    ratio = metric_module._l1_ratio
    monkeypatch.setattr(metric_module, "_l1_ratio",
                        lambda a, b: calls.append((a, b)) or ratio(a, b))
    monkeypatch.setattr(metric_module, "l1_distance",
                        lambda a, b: reported.append((a, b)) or l1_distance(a, b))
    return calls, reported


def test_lipschitz_scan_skips_equal_values_and_pairs_past_the_bound(monkeypatch):
    calls, reported = counted_l1(monkeypatch)
    metric = FiniteMetricSpace.line(200)
    cert = certify_delta_pu(constant_map(200), metric, F(1, 4), 199)
    assert not calls and not reported
    assert cert.lipschitz_pair == (0, 1) and cert.lipschitz_value == 0

    _, f = fine_scale_map(200, 8)
    cert = certify_delta_pu(f, metric, F(1, 4), 199)
    assert 0 < len(calls) < 2000  # of the 19 900 pairs
    assert reported == [(f.values[8], f.values[9])]  # one l1 Fraction, for the witness
    assert cert.ok and cert.lipschitz_pair == (8, 9)
    assert (cert.lipschitz_value, cert.lipschitz_allowance) == (F(2, 9), F(1, 2))


def test_metric_measures_each_set_once(monkeypatch):
    # a second certificate on the same metric reads no rows; a new equal metric
    # measures every set again for a new equal cover, while the cover already
    # measured reads its kept answer
    reads = []
    monkeypatch.setattr(metric_module, "itemgetter",
                        lambda *keys: reads.append(keys) or itemgetter(*keys))
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(1, 16)
        coords = [(random_fraction(rng, -3, 3, 7),) for _ in range(n)]
        metric = FiniteMetricSpace.from_l1_points(coords)
        subsets = [frozenset(x for x in range(n) if rng.random() < 0.5) for _ in range(5)]
        cover = Cover(tuple(subsets) + ball_cover(metric, 1).sets, n, allow_empty=True)
        bound = random_fraction(rng, 0, 4, 3)
        expected = [set_diameter_fractions(metric, s) for s in cover.sets]
        first = is_uniformly_bounded(cover, metric, bound)
        assert [metric.set_diameter(s) for s in cover.sets] == expected
        reads.clear()
        assert is_uniformly_bounded(cover, metric, bound) == first
        assert [metric.set_diameter(s) for s in cover.sets] == expected
        assert reads == []
        again = FiniteMetricSpace.from_l1_points(coords)
        assert again == metric
        assert is_uniformly_bounded(cover, again, bound) == first
        assert reads == []
        assert is_uniformly_bounded(Cover(cover.sets, n, allow_empty=True), again, bound) == first
        assert bool(reads) == any(len(s) > 1 for s in cover.sets)


def test_a_map_runs_its_delta_scans_once_per_metric_and_delta(monkeypatch):
    calls, reported = counted_l1(monkeypatch)
    metric, f = fine_scale_map()
    first = certify_delta_pu(f, metric, F(1, 16), 64)
    assert first.ok and calls and len(reported) <= 1
    # another bound is decided on the kept scans and the kept star preimage diameter
    calls.clear()
    reported.clear()
    tight = certify_delta_pu(f, metric, F(1, 16), 10)
    assert not calls and not reported
    assert tight.lipschitz_ok and tight.lebesgue_ok and not tight.ok
    assert tight == replace(first, boundedness=is_uniformly_bounded(
        f.star_preimage_cover(), metric, 10), ok=False)
    # an equal metric at an equal delta reads them too; the forward comparison at
    # delta = 1/2 gates at delta^2/4 = 1/16 without a scan
    assert certify_delta_pu(f, FiniteMetricSpace.line(100), F(2, 32), 64) == first
    assert comparison_forward(f, metric, F(1, 2), 64).ok
    assert not calls and not reported
    certify_delta_pu(f, metric, F(1, 8), 64)
    assert calls and len(reported) <= 1


def equal_copy(metric):
    return FiniteMetricSpace(metric.n_points, metric.dist, check_triangle=False)


def bridge_outcome(call):
    """The certificate's document, the refusal's message and witness document, or
    a bad input's message marked as such."""
    try:
        return doc_dumps(call())
    except PreconditionError as err:
        return str(err), doc_dumps(err.witness)
    except InputError as err:
        return "bad input", str(err)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10_000), st.booleans())
def test_bridge_certificates_of_a_kept_map_and_metric_match_fresh_ones(n, seed, balls):
    # one map and one metric through a sequence of gates and comparisons, at deltas
    # and bounds that repeat, some ints and one out of range, against an unused map and
    # metric each time; a second metric now and then
    rng = random.Random(seed)
    metric, other = (FiniteMetricSpace.from_l1_points(
        [(random_fraction(rng, 0, n, 2),) for _ in range(n)]) for _ in range(2))
    if balls:
        f = barycentric_map(ball_cover(metric, 1), ball_cover(metric, rng.randrange(1, n + 2)))
    else:
        f = repeated_value_maps(n, rng)[rng.randrange(3)]
    steps = {"gate": certify_delta_pu, "forward": comparison_forward,
             "backward": comparison_backward}
    for _ in range(8):
        step = rng.choice(list(steps))
        delta = rng.choice([F(1, 4), F(1, 2), F(1), F(3, 2)])
        if step == "gate" and rng.random() < 0.5:
            delta = delta * delta / 4  # the forward comparison's gate
        bound = rng.choice([F(0), F(n, 3), F(n), n // 2, -1])
        kept = rng.choice([metric, equal_copy(metric), other])
        fresh = PartitionOfUnity(dict(f.values), n, f.vertices, f.complex)
        outcome = bridge_outcome(lambda: steps[step](f, kept, delta, bound))
        assert (outcome[0] == "bad input") == (bound < 0)  # the one bad input drawn is the bound
        assert outcome == bridge_outcome(lambda: steps[step](fresh, equal_copy(kept), delta, bound))
