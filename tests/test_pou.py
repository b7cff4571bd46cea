"""Barycentric points, nerves, variation, and the certificate conditions."""

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import (
    BarycentricPoint,
    Cover,
    FiniteCoarseSpace,
    FiniteMetricSpace,
    InputError,
    PartitionOfUnity,
    SimplicialComplex,
    barycentric_map,
    certify_delta_pu,
    certify_pu,
    chain_indices,
    coarsening_witnesses,
    gen_grid2d,
    gen_line,
    is_refinement,
    iterated_star,
    l1_distance,
    nerve,
    quotient_variation_bound,
    scalar_variation,
    variation,
)
from coarsedim import pou
from coarsedim.formats import doc_dumps, load_pu
from coarsedim.generators import random_cover, random_refinement_pair
from coarsedim.oracles import chain_index_by_enumeration
from oracles import (
    coarsening_by_points,
    nerve_simplices_bruteforce,
    random_fraction,
    variation_all_pairs,
)

F = Fraction


def line_cover(n):
    return Cover.of([{i, i + 1} for i in range(n - 1)], n)


# --- barycentric points ------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(InputError):
        BarycentricPoint({0: F(1, 2), 1: F(1, 3)})
    with pytest.raises(InputError):
        BarycentricPoint({0: F(3, 2), 1: F(-1, 2)})


def test_zero_weights_are_dropped():
    p = BarycentricPoint({0: F(1), 1: F(0)})
    assert p.carrier == frozenset({0})


def test_l1_distance_examples():
    a = BarycentricPoint({0: F(2, 3), 1: F(1, 3)})
    b = BarycentricPoint.vertex(0)
    assert l1_distance(a, a) == 0
    assert l1_distance(BarycentricPoint.vertex(0), BarycentricPoint.vertex(5)) == 2
    assert l1_distance(a, b) == F(2, 3)


def test_points_from_fractions_and_from_unreduced_ints_are_one_point():
    a = BarycentricPoint({0: F(1, 3), 2: F(2, 3), 4: F(0)})
    b = BarycentricPoint._from_ints({0: 4, 2: 8, 4: 0}, 12)
    c = load_pu("partition-of-unity\npoints 1\nvertices 0 2 4\n"
                "value 0 0 2 6\nvalue 0 2 4 6\nend\n").values[0]
    for p in (b, c):
        assert p == a and hash(p) == hash(a)
        assert p.weights == a.weights == {0: F(1, 3), 2: F(2, 3)}
        assert repr(p) == repr(a) == "BarycentricPoint({0: 1/3, 2: 2/3})"
        assert (p.num, p.den) == ({0: 1, 2: 2}, 3)
    assert len({a, b, c}) == 1


def test_weight_error_messages():
    const = PartitionOfUnity(dict.fromkeys(range(3), BarycentricPoint.vertex(0)), 3, (0,))
    cases = [
        (lambda: BarycentricPoint({0: F(3, 2), 1: F(-1, 2)}), "negative weight -1/2 at vertex 1"),
        (lambda: BarycentricPoint({0: F(1, 2), 1: F(1, 3)}), "weights sum to 5/6, need exactly 1"),
        (lambda: BarycentricPoint({}), "weights sum to 0, need exactly 1"),
        (lambda: BarycentricPoint._from_ints({0: 3, 1: -1}, 2), "negative weight -1/2 at vertex 1"),
        (lambda: BarycentricPoint._from_ints({3: 4, 1: -1, 0: -2}, 1),
         "negative weight -1 at vertex 1"),  # the first negative weight in dict order
        (lambda: BarycentricPoint._from_ints({0: 1, 1: 1}, 3),
         "weights sum to 2/3, need exactly 1"),
        (lambda: BarycentricPoint._from_ints({0: 0}, 1), "weights sum to 0, need exactly 1"),
        # only ints and Fractions at int vertices: 0.5 is not read through its
        # binary value, and vertex 0.7 is not truncated to 0
        (lambda: BarycentricPoint({0: 0.5, 1: 0.5}),
         "weight 0.5 at vertex 0 is not an int or Fraction"),
        (lambda: BarycentricPoint({0: F(1, 2), 1: "1/2"}),
         "weight '1/2' at vertex 1 is not an int or Fraction"),
        (lambda: BarycentricPoint({0: True}), "weight True at vertex 0 is not an int or Fraction"),
        (lambda: BarycentricPoint({0.7: 1}), "vertex 0.7 is not an int"),
        (lambda: BarycentricPoint({0: F(1, 2), "1": F(1, 2)}), "vertex '1' is not an int"),
        (lambda: BarycentricPoint.vertex(0.7), "vertex 0.7 is not an int"),
        # a map's points are int ids too: a float key is not read as a point
        (lambda: PartitionOfUnity(dict.fromkeys((0.5, 1, 2), BarycentricPoint.vertex(0)), 3, (0,)),
         "unknown point 0.5"),
        # nor is a float or a bool read as a point when a value is looked up
        (lambda: const.value(True), "unknown point True"),
        (lambda: const.value(0.0), "unknown point 0.0"),
        (lambda: const.value(3), "unknown point 3"),
        # and a map is total: the least point without a value is named
        (lambda: PartitionOfUnity({0: BarycentricPoint.vertex(0)}, 3, (0,)),
         "no value assigned to point 1"),
        # and its carriers lie in its vertices, and in its target complex when it has one
        (lambda: PartitionOfUnity({0: BarycentricPoint.vertex(0), 1: BarycentricPoint.vertex(3)},
                                  2, (0, 1)),
         "value at point 1 uses vertices outside the universe"),
        (lambda: PartitionOfUnity({0: BarycentricPoint({0: F(1, 2), 1: F(1, 2)}),
                                   1: BarycentricPoint.vertex(1)}, 2, (0, 1),
                                  SimplicialComplex((0, 1), frozenset({frozenset({0}),
                                                                       frozenset({1})}), 1)),
         "carrier at point 0 is not a simplex of the target complex"),
    ]
    for build, message in cases:
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message
    p = BarycentricPoint._from_ints({0: 2, 1: 0, 2: 1}, 3)
    assert (p.num, p.den, p.carrier) == ({0: 2, 2: 1}, 3, frozenset({0, 2}))
    p = BarycentricPoint({3: 1, 1: F(0)})
    assert (p.num, p.den) == ({3: 1}, 1) and p == BarycentricPoint.vertex(3)


@given(st.dictionaries(st.integers(0, 6), st.integers(-3, 6), max_size=5),
       st.integers(1, 12), st.booleans())
def test_points_from_ints_match_the_fraction_constructor(num, den, unit_sum):
    """``_from_ints`` raises the message the Fraction constructor raises, or builds its point."""
    if unit_sum and sum(num.values()) > 0:
        den = sum(num.values())
    try:
        want = BarycentricPoint({v: F(n, den) for v, n in num.items()})
    except InputError as err:
        with pytest.raises(InputError) as got:
            BarycentricPoint._from_ints(dict(num), den)
        assert str(got.value) == str(err)
    else:
        got = BarycentricPoint._from_ints(dict(num), den)
        assert (got.num, got.den, got.carrier) == (want.num, want.den, want.carrier)


def test_blend_is_exact():
    a = BarycentricPoint({0: F(1, 2), 1: F(1, 2)})
    b = BarycentricPoint.vertex(2)
    c = a.blend(b, F(1, 3))
    assert c.weights == {0: F(1, 6), 1: F(1, 6), 2: F(2, 3)}
    assert sum(c.weights.values()) == 1


# --- nerve ---------------------------------------------------------------------

def test_nerve_of_disjoint_cover_is_zero_dimensional():
    k = nerve(Cover.of([[0], [1], [2]], 3), 2)
    assert k.dimension == 0
    assert k.facets == frozenset({frozenset({0}), frozenset({1}), frozenset({2})})
    assert all(k.has({v}) for v in range(3))
    assert not any(k.has(s) for s in ({0, 1}, {0, 2}, {1, 2}, {0, 1, 2}))


def test_nerve_single_edge():
    k = nerve(Cover.of([[0, 1], [1, 2]], 3), 1)
    assert k.dimension == 1
    assert k.has({0, 1}) and k.has({0}) and not k.has({0, 1, 2})


def test_nerve_of_multiplicity_two_cover_has_no_triangles():
    line = gen_line(40)
    v = line.staggered(5)
    k = nerve(v, v.max_multiplicity() - 1)
    assert k.dimension == 1
    # no three elements meet, so even without the cap no facet is a triangle
    assert max(len(f) for f in k.facets) == 2


def test_nerve_matches_subset_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(2, 9)
        cover = random_cover(rng, n)
        d_cap = rng.randrange(0, 4)
        k = nerve(cover, d_cap)
        expected = nerve_simplices_bruteforce(cover, d_cap)
        vertices = range(len(cover.sets))
        for size in range(1, d_cap + 2):
            for s in map(frozenset, combinations(vertices, size)):
                assert k.has(s) == (s in expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000), st.integers(0, 4), st.data())
def test_has_through_the_facet_index_matches_every_facet(n, seed, d_cap, data):
    rng = random.Random(seed)
    cover = random_cover(rng, n)
    k = nerve(cover, d_cap)
    expected = nerve_simplices_bruteforce(cover, d_cap)
    vertices = range(len(cover.sets))
    probes = data.draw(st.lists(st.frozensets(st.sampled_from(vertices), max_size=d_cap + 2),
                                max_size=25))
    for s in list(expected) + probes:
        by_all_facets = bool(s) and len(s) <= d_cap + 1 and any(s <= f for f in k.facets)
        assert k.has(s) == by_all_facets == (s in expected)


def test_empty_cover_elements_are_not_vertices_of_the_nerve():
    c = Cover.of([[0, 1], []], 2, allow_empty=True)
    k = nerve(c, 1)
    assert k.has({0}) and not k.has({1})


# --- the worked 6-point map -----------------------------------------------------

def worked_map():
    line = gen_line(6)
    u = line.space.gauge
    v = Cover.of([[0, 1, 2, 3], [2, 3, 4, 5]], 6)
    return line, u, v, barycentric_map(u, v)


def test_barycentric_map_worked_example():
    _, _, _, pu = worked_map()
    assert pu.values[0].weights == {0: F(1)}
    assert pu.values[1].weights == {0: F(1)}
    assert pu.values[2].weights == {0: F(2, 3), 1: F(1, 3)}
    assert pu.values[3].weights == {0: F(1, 3), 1: F(2, 3)}
    assert pu.values[4].weights == {1: F(1)}
    assert pu.values[5].weights == {1: F(1)}


def test_barycentric_map_whole_space_is_constant_vertex():
    line = gen_line(5)
    whole = Cover.of([range(5)], 5)
    pu = barycentric_map(line.space.gauge, whole)
    assert all(pu.values[x].weights == {0: F(1)} for x in range(5))


def test_barycentric_map_infinite_branch_takes_all_mass():
    line = gen_line(5)
    v = Cover.of([range(5), [0, 1]], 5)
    pu = barycentric_map(line.space.gauge, v)
    # the whole-space element has infinite index everywhere and absorbs the mass
    assert all(pu.values[x].weights == {0: F(1)} for x in range(5))


def test_star_preimage_worked_example():
    _, _, _, pu = worked_map()
    assert sorted(pu.star_preimage(0)) == [0, 1, 2, 3]
    assert sorted(pu.star_preimage(1)) == [2, 3, 4, 5]
    # a vertex is an int id of the map's vertices: True is not vertex 1
    for v in (9, -1, True, 1.0, "1"):
        with pytest.raises(InputError) as err:
            pu.star_preimage(v)
        assert str(err.value) == f"unknown vertex {v!r}"


def test_star_preimage_of_constant_map():
    line = gen_line(4)
    whole = Cover.of([range(4)], 4)
    pu = barycentric_map(line.space.gauge, whole)
    assert pu.star_preimage(0) == frozenset(range(4))


def test_star_preimage_of_full_support_map():
    line = gen_line(4)
    doubled = Cover.of([range(4), range(4)], 4)
    pu = barycentric_map(line.space.gauge, doubled)
    assert all(pu.star_preimage(v) == frozenset(range(4)) for v in (0, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10_000), st.integers(0, 3), st.booleans())
def test_star_preimage_cover_matches_per_vertex_preimages(n, seed, extra, partial):
    # barycentric maps and blends of them, over a universe with unused vertices
    rng = random.Random(seed)
    fine, coarse = random_refinement_pair(rng, n)
    base = barycentric_map(fine, coarse)
    values = {x: bp.blend(base.values[rng.randrange(n)], random_fraction(rng, 0, 1, 5))
              if rng.random() < 0.4 else bp for x, bp in base.values.items()}
    vertices = base.vertices + tuple(range(len(base.vertices), len(base.vertices) + extra))
    order = tuple(rng.sample(vertices, len(vertices)))
    if partial and n > 1:
        dropped = rng.randrange(n)
        del values[dropped]
        with pytest.raises(InputError, match=f"^no value assigned to point {dropped}$"):
            PartitionOfUnity(values, n, order)
        return
    f = PartitionOfUnity(values, n, order)
    cover = f.star_preimage_cover()
    assert cover.sets == tuple(f.star_preimage(v) for v in f.vertices)
    assert cover.n_points == n and cover.allow_empty
    assert f.star_preimage_cover() is cover  # built once


def test_infinite_branch_is_constant_on_shared_elements():
    # wherever a pair shares an element, the infinite-index sets agree
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(2, 9)
        u = random_cover(rng, n)
        v = random_cover(rng, n)
        pu = barycentric_map(u, v)
        from coarsedim import chain_graph, chain_index
        graph = chain_graph(u)
        inf_sets = []
        for x in range(n):
            inf_sets.append({s for s in range(len(v.sets))
                             if not chain_index(u, x, v.sets[s]).is_finite})
        for x in range(n):
            for y in graph.neighbors[x]:
                assert inf_sets[x] == inf_sets[y]
                if inf_sets[x]:
                    assert pu.values[x] == pu.values[y]


def map_by_enumeration(chain_cover, target):
    """Weights from ``chain_index_by_enumeration``, as Fractions of the index total."""
    values = {}
    for x in range(chain_cover.n_points):
        ixs = {s: chain_index_by_enumeration(chain_cover, x, target.sets[s])
               for s in target.membership[x]}
        infinite = [s for s, ix in ixs.items() if not ix.is_finite]
        if infinite:
            values[x] = {s: F(1, len(infinite)) for s in infinite}
        else:
            total = sum(ix.value for ix in ixs.values())
            values[x] = {s: F(ix.value, total) for s, ix in ixs.items()}
    return values


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10_000), st.booleans(), st.booleans())
def test_barycentric_map_matches_enumerated_indices(n, seed, connected, whole):
    rng = random.Random(seed)
    u = random_cover(rng, n, connected=connected)
    v = random_cover(rng, n)
    if whole:  # an element with infinite index at every point of its component
        v = Cover(v.sets + (frozenset(range(n)),), n)
    pu = barycentric_map(u, v)
    assert {x: bp.weights for x, bp in pu.values.items()} == map_by_enumeration(u, v)
    for x, bp in pu.values.items():
        assert bp.carrier == frozenset(bp.num)
        for y in range(x):  # one carrier object per distinct carrier
            if pu.values[y].carrier == bp.carrier:
                assert pu.values[y].carrier is bp.carrier


def barycentric_map_by_table(chain_cover, target_cover):
    """Per point, the weights in key order and the nerve's facets, read from the whole
    element x point table of chain indices (one n-list per target element)."""
    table = [chain_indices(chain_cover, s) for s in target_cover.sets]
    values = {}
    for x in range(chain_cover.n_points):
        own = [s for s in range(len(target_cover.sets)) if x in target_cover.sets[s]]
        infinite = [s for s in own if table[s][x] is None]
        if infinite:
            values[x] = [(s, F(1, len(infinite))) for s in infinite]
        else:
            total = sum(table[s][x] for s in own)
            values[x] = [(s, F(table[s][x], total)) for s in own]
    common = {frozenset(s for s, e in enumerate(target_cover.sets) if x in e)
              for x in range(chain_cover.n_points)}
    facets = {f for f in common if not any(f < g for g in common)}
    return values, facets


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10_000), st.booleans(), st.booleans(), st.booleans())
def test_barycentric_map_matches_the_element_by_point_table(n, seed, connected, whole, empties):
    rng = random.Random(seed)
    u = random_cover(rng, n, connected=connected)
    sets = list(random_cover(rng, n).sets)
    if whole:  # an element with infinite index at every point of its component
        sets.insert(rng.randrange(len(sets) + 1), frozenset(range(n)))
    if empties:
        sets.insert(rng.randrange(len(sets) + 1), frozenset())
    v = Cover(tuple(sets), n, allow_empty=empties)
    pu = barycentric_map(u, v)
    values, facets = barycentric_map_by_table(u, v)
    assert {x: list(bp.weights.items()) for x, bp in pu.values.items()} == values
    assert pu.complex.facets == facets
    assert pu.vertices == tuple(range(len(sets)))
    carriers = {}  # points with equal carriers share one carrier object
    for x, bp in pu.values.items():
        assert bp.carrier == frozenset(s for s, _ in values[x])
        assert carriers.setdefault(bp.carrier, bp.carrier) is bp.carrier


def counted_from_ints(monkeypatch):
    """Record the weights of every ``BarycentricPoint._from_ints`` call."""
    calls = []
    build = BarycentricPoint._from_ints
    monkeypatch.setattr(BarycentricPoint, "_from_ints", classmethod(
        lambda cls, num, den: calls.append(dict(num)) or build(num, den)))
    return calls


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000), st.booleans())
def test_points_with_one_infinite_part_share_one_value(n, seed, connected):
    rng = random.Random(seed)
    u = random_cover(rng, n, connected=connected)
    sets = list(random_cover(rng, n).sets)
    sets.insert(rng.randrange(len(sets) + 1), frozenset(range(n)))
    v = Cover(tuple(sets), n)
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_from_ints(patch)
        pu = barycentric_map(u, v)
    # the whole-space element gives every point an infinite index
    parts = {x: tuple(sorted(bp.num)) for x, bp in pu.values.items()}
    assert all(bp.den == len(bp.num) for bp in pu.values.values())
    assert len(calls) == len(set(parts.values()))
    for x in range(n):
        for y in range(x):
            assert (pu.values[y] is pu.values[x]) == (parts[y] == parts[x])


def test_a_whole_space_target_gives_every_point_one_object(monkeypatch):
    line = gen_line(300)
    target = Cover(line.staggered(20).sets + (frozenset(range(300)),), 300)
    calls = counted_from_ints(monkeypatch)
    pu = barycentric_map(line.space.gauge, target)
    whole = len(target) - 1
    assert calls == [{whole: 1}]
    assert len({id(bp) for bp in pu.values.values()}) == 1
    assert pu.values[0].carrier == frozenset({whole})


def test_equal_points_hash_equal_however_they_are_built():
    a = BarycentricPoint({0: F(1, 6), 3: F(1, 2), 7: F(1, 3)})
    b = BarycentricPoint({7: F(2, 6), 0: F(1, 6), 3: F(3, 6)})
    c = BarycentricPoint._from_ints({3: 9, 7: 6, 0: 3}, 18)
    # 1/2 of (1/3, 1/3, 1/3) on {0, 3, 7} and 1/2 of (0, 2/3, 1/3): keys in another order
    d = BarycentricPoint._from_ints({7: 1, 3: 1, 0: 1}, 3).blend(
        BarycentricPoint._from_ints({7: 1, 3: 2}, 3), F(1, 2))
    assert [list(p.num) for p in (a, b, c)] != [list(a.num)] * 3
    for p in (b, c, d):
        assert p == a and hash(p) == hash(a)
    assert len({a, b, c, d}) == 1


def test_barycentric_map_keeps_no_element_by_point_table():
    # the chain indices are read one element at a time, so the traced peak stays
    # near what the map keeps; an n-list per element would need several times that
    line = gen_line(8000)
    gauge, target = line.space.gauge, line.staggered(50)
    tracemalloc.start()
    try:
        pu = barycentric_map(gauge, target)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pu.values) == 8000
    assert peak < 2 * retained


def test_carriers_are_simplices_of_the_nerve():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(2, 10)
        u = random_cover(rng, n)
        v = random_cover(rng, n)
        pu = barycentric_map(u, v)
        assert pu.complex is not None
        for x in range(n):
            assert pu.complex.has(pu.values[x].carrier)


def test_exact_weight_sums_everywhere():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randrange(2, 12)
        pu = barycentric_map(random_cover(rng, n), random_cover(rng, n))
        for x in range(n):
            assert sum(pu.values[x].weights.values()) == 1


# --- variation -------------------------------------------------------------------

def test_variation_of_constant_map_is_zero():
    line = gen_line(6)
    whole = Cover.of([range(6)], 6)
    pu = barycentric_map(line.space.gauge, whole)
    res = variation(pu, line.space.gauge)
    assert res.value == 0 and res.pair == (0, 1)


def test_variation_under_singleton_cover_is_zero():
    _, _, _, pu = worked_map()
    singles = Cover.of([[i] for i in range(6)], 6)
    res = variation(pu, singles)
    assert res.value == 0 and res.pair is None


def test_variation_worked_example():
    line, u, _, pu = worked_map()
    res = variation(pu, u)
    assert res.value == F(2, 3)
    assert res.pair == (1, 2)


def test_scalar_variation_matches_pair_scan():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(2, 10)
        cover = random_cover(rng, n)
        vals = [random_fraction(rng, 0, 3) for _ in range(n)]
        res = scalar_variation(vals, cover)
        expected = variation_all_pairs(vals, cover, lambda a, b: abs(a - b))
        assert (res.value, res.pair) == expected


def test_scalar_variation_refuses_inexact_values():
    # as a weight is: 0.1 would be read as a binary fraction, not as 1/10
    cover = Cover.of([[0, 1]], 2)
    for bad in (0.1, True, "1/2"):
        with pytest.raises(InputError) as err:
            scalar_variation([F(1, 2), bad], cover)
        assert str(err.value) == f"value {bad!r} at point 1 is not an int or Fraction"


def test_scalar_variation_needs_one_value_per_point():
    cover = Cover.of([[0, 1], [1, 2]], 3)
    for values in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(InputError, match="^need one value per point$"):
            scalar_variation(values, cover)


@pytest.mark.parametrize("facets, message", [
    ([[]], "facets must be nonempty"),
    ([[0, 5]], "facet [0, 5] uses unknown vertices"),
    ([[0], [0, 1]], "facet [0] is not maximal"),
])
def test_simplicial_complex_names_a_bad_facet(facets, message):
    with pytest.raises(InputError) as err:
        SimplicialComplex((0, 1), frozenset(map(frozenset, facets)), 1)
    assert str(err.value) == message


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.booleans())
def test_variation_matches_all_pairs_oracle(n, seed, empties, duplicates, singletons):
    # barycentric maps of coarse covers repeat each value over many points
    rng = random.Random(seed)
    fine, coarse = random_refinement_pair(rng, n)
    f = barycentric_map(fine, coarse)
    if singletons:
        sets = [frozenset((x,)) for x in range(n)]
    else:
        sets = list(random_cover(rng, n).sets)
    if duplicates:
        sets += [rng.choice(sets) for _ in range(3)]
    if empties:
        sets.insert(rng.randrange(len(sets) + 1), frozenset())
    cover = Cover(tuple(sets), n, allow_empty=empties)
    res = variation(f, cover)
    assert (res.value, res.pair) == variation_all_pairs(f.values, cover, l1_distance)
    vals = [f.value(x).weight(0) for x in range(n)]
    res = scalar_variation(vals, cover)
    assert (res.value, res.pair) == variation_all_pairs(vals, cover, lambda a, b: abs(a - b))


def test_variation_takes_least_pair_even_when_a_later_element_holds_it():
    # the class pair {0, 1} is first met as (2, 3); its least pair (0, 1) comes last
    cover = Cover.of([[2, 3], [4, 5], [0, 1]], 6)
    res = scalar_variation([0, 1, 0, 1, 0, F(1, 2)], cover)
    assert (res.value, res.pair) == (1, (0, 1))


def test_variation_measures_each_class_pair_once(monkeypatch):
    # the scan's ratios come first; the one reported value's ratio comes last, from
    # inside l1_distance
    ratios, reported = [], []
    ratio = pou._l1_ratio
    monkeypatch.setattr(pou, "_l1_ratio", lambda a, b: ratios.append((a, b)) or ratio(a, b))
    monkeypatch.setattr(pou, "l1_distance",
                        lambda a, b: reported.append((a, b)) or l1_distance(a, b))
    line = gen_line(40)
    f = barycentric_map(line.space.gauge, line.staggered(5))
    cover = iterated_star(line.space.gauge, 3)
    res = variation(f, cover)
    assert len(reported) == 1 and ratios[-1:] == reported
    scanned = ratios[:-1]
    assert len({frozenset(pair) for pair in scanned}) == len(scanned) > 0
    assert (res.value, res.pair) == variation_all_pairs(f.values, cover, l1_distance)


def wide_cover(rng, n, grid):
    """Stars of a grid gauge, or random intervals of a line, under relabelled points."""
    if grid:
        g = gen_grid2d(rng.randrange(2, 7), rng.randrange(2, 7))
        n = g.space.n_points
        sets = iterated_star(g.space.gauge, rng.randrange(1, 3)).sets
    else:
        sets = []
        for _ in range(rng.randrange(1, 8)):
            a = rng.randrange(n)
            sets.append(range(a, min(n, a + rng.randrange(1, n + 1))))
        covered = set().union(*sets)
        sets += [[x] for x in range(n) if x not in covered]
    perm = list(range(n))
    rng.shuffle(perm)
    return Cover.of([[perm[x] for x in s] for s in sets], n)


# three points pairwise at l1 2/3, whose l1 ratios are 4/6, 12/18 and 8/12, and one
# point closer to each of them
TIED = [BarycentricPoint({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}),
        BarycentricPoint({0: F(1, 2), 1: F(1, 2)}),
        BarycentricPoint({0: F(2, 3), 1: F(1, 6), 2: F(1, 6)}),
        BarycentricPoint({0: F(1, 2), 1: F(1, 4), 2: F(1, 4)})]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000), st.integers(2, 3), st.booleans(),
       st.sampled_from(["vertices", "two-vertex", "tied"]))
def test_variation_over_wide_elements_matches_all_pairs_oracle(n, seed, n_classes, grid,
                                                               values):
    # few value classes over wide elements: many elements share one class set,
    # and many class pairs tie at the top, some over different denominators
    rng = random.Random(seed)
    cover = wide_cover(rng, n, grid)
    n = cover.n_points
    if values == "vertices":
        pool = [BarycentricPoint.vertex(v) for v in range(n_classes)]
    elif values == "two-vertex":
        pool = [BarycentricPoint({0: F(a, 4), 1: F(4 - a, 4)}) for a in rng.sample(range(5), n_classes)]
    else:
        pool = rng.sample(TIED, n_classes)
    f = PartitionOfUnity({x: rng.choice(pool) for x in range(n)}, n, (0, 1, 2))
    res = variation(f, cover)
    assert (res.value, res.pair) == variation_all_pairs(f.values, cover, l1_distance)
    if values == "tied":  # 1/3 as 1/3 and as 3/9
        scalars = rng.sample([F(0), F(1, 3), F(2, 3)], n_classes)
    else:
        scalars = [rng.randrange(3) for _ in range(n_classes)]
    vals = [rng.choice(scalars) for _ in range(n)]
    res = scalar_variation(vals, cover)
    assert (res.value, res.pair) == variation_all_pairs(vals, cover, lambda a, b: abs(a - b))


# --- quotient bound ---------------------------------------------------------------

def test_quotient_bound_values():
    assert quotient_variation_bound(1, 0) == 1
    assert quotient_variation_bound(10, 3) == F(2, 5)
    with pytest.raises(InputError):
        quotient_variation_bound(0, 1)


def test_quotient_bound_dominates_measured_variation():
    rng = random.Random(43)
    for _ in range(200):
        n_pts = rng.randrange(2, 12)
        cover = random_cover(rng, n_pts)
        m = random_fraction(rng, 1, 3)
        q = [m + random_fraction(rng, 0, 3) for _ in range(n_pts)]
        p = [random_fraction(rng, 0, 1) for _ in range(n_pts)]
        n_bound = scalar_variation(q, cover).value
        measured = scalar_variation([pi / qi for pi, qi in zip(p, q)], cover).value
        assert measured <= quotient_variation_bound(m, n_bound)


# --- certification -----------------------------------------------------------------

def test_certify_constant_vertex_map():
    line = gen_line(8)
    u = line.space.gauge
    whole = Cover.of([range(8)], 8)
    pu = barycentric_map(u, whole)
    good = certify_pu(pu, u, line.space, F(1), 7)
    assert good.ok and good.variation_value == 0
    tight = certify_pu(pu, u, line.space, F(1), 3)
    assert not tight.ok and not tight.boundedness.ok


def test_certify_condition_b_for_refining_pairs():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(2, 12)
        fine, coarse = random_refinement_pair(rng, n)
        pu = barycentric_map(fine, coarse)
        witnesses, failing = coarsening_witnesses(pu, fine)
        assert failing is None
        for i, s in enumerate(fine.sets):
            v = witnesses[i]
            assert all(pu.values[x].weight(v) > 0 for x in s)


def test_coarsening_witnesses_of_a_partial_map_name_the_missing_point():
    # points from 2 on have no value: the map is refused before any certificate reads it
    values = {0: BarycentricPoint.vertex(0), 1: BarycentricPoint.vertex(1)}
    for n in (3, 5):
        with pytest.raises(InputError, match="^no value assigned to point 2$"):
            PartitionOfUnity(values, n, (0, 1))
        # nor is a cover over more points read as reaching points without a value
        with pytest.raises(InputError, match=f"^PartitionOfUnity of 2 points and Cover of {n} "
                                             "points are over different point sets$"):
            coarsening_witnesses(PartitionOfUnity(values, 2, (0, 1)), Cover.of([range(n)], n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.booleans())
def test_coarsening_witnesses_match_point_by_point_oracle(n, seed, refining, partial, empties):
    rng = random.Random(seed)
    fine, coarse = random_refinement_pair(rng, n)
    f = barycentric_map(fine, coarse)
    sets = list((fine if refining else random_cover(rng, n)).sets)
    if empties:
        sets.insert(rng.randrange(len(sets) + 1), frozenset())
    cover = Cover(tuple(sets), n, allow_empty=empties)
    if partial:
        # a map with points missing is refused, naming the least of them
        dropped = {rng.randrange(n)} | {x for x in range(n) if rng.random() < 0.2}
        with pytest.raises(InputError, match=f"^no value assigned to point {min(dropped)}$"):
            PartitionOfUnity({x: bp for x, bp in f.values.items() if x not in dropped},
                             n, f.vertices)
        return
    assert coarsening_witnesses(f, cover) == coarsening_by_points(f, cover)


def test_certify_line_staggered_instance():
    line = gen_line(200)
    u = line.space.gauge
    v = line.staggered(25)
    assert is_refinement(iterated_star(u, 10), v).ok
    pu = barycentric_map(u, v)
    cert = certify_pu(pu, u, line.space, F(8, 5), 49)
    assert cert.ok
    assert cert.variation_value == F(1, 13)
    assert cert.boundedness.max_diameter == 49


def test_certify_eps_infinite_is_vacuous_on_variation():
    line, u, _, pu = worked_map()
    cert = certify_pu(pu, u, line.space, None, 5)
    assert cert.eps is None and cert.variation_ok and cert.ok


def test_a_map_measures_one_cover_once_and_decides_each_certificate_anew(monkeypatch):
    line = gen_line(60)
    space, gauge = line.space, line.space.gauge

    def build():
        return barycentric_map(gauge, line.staggered(5))  # variation 1/3, diameter 9

    calls = dict.fromkeys(("variation", "coarsening_witnesses"), 0)
    for name in calls:
        def counted(*args, _inner=getattr(pou, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(pou, name, counted)
    # each at (eps, bound): below and above the variation, then below the diameter
    asks = [(F(1, 4), 9), (F(1, 2), 9), (F(1, 2), 8)]
    expected = [certify_pu(build(), gauge, space, eps, bound) for eps, bound in asks]
    assert calls == {"variation": 3, "coarsening_witnesses": 3}
    f = build()
    equal_gauge = Cover(gauge.sets, gauge.n_points)  # measured once per cover value
    got = [certify_pu(f, cover, space, eps, bound)
           for cover, (eps, bound) in zip((gauge, equal_gauge, gauge), asks)]
    assert got == expected
    assert [(c.variation_ok, c.boundedness.ok, c.ok) for c in got] == [
        (False, True, False), (True, True, True), (True, False, False)]
    assert calls == {"variation": 4, "coarsening_witnesses": 4}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10_000), st.booleans())
def test_certificates_of_a_kept_map_match_those_of_a_fresh_map(n, seed, metric):
    # one map certified over and over, against covers old, new and equal to old ones, in
    # spaces of either kind old, new and equal to old ones, at any eps and at bounds that
    # repeat, some ints and one out of range: each call as on an unused map
    rng = random.Random(seed)
    fine, coarse = random_refinement_pair(rng, n)
    f = barycentric_map(fine, coarse)
    if metric:
        coords = [[(random_fraction(rng, 0, 3, 4),) for _ in range(n)] for _ in range(2)]
        spaces = [FiniteMetricSpace.from_l1_points(c) for c in coords + coords[:1]]
    else:
        gauges = [random_cover(rng, n) for _ in range(2)]
        spaces = [FiniteCoarseSpace(n, Cover(g.sets, n)) for g in gauges + gauges[:1]]
    bounds = [random_fraction(rng, 0, n, 3), random_fraction(rng, 0, n, 3), rng.randrange(n),
              F(-1, 2)]
    covers = [fine, coarse]
    for _ in range(8):
        if rng.random() < 0.3:
            covers.append(random_cover(rng, n))
        cover = rng.choice(covers)
        if rng.random() < 0.5:
            cover = Cover(cover.sets, n, cover.allow_empty)
        eps = None if rng.random() < 0.2 else random_fraction(rng, 0, 2, 6) or F(1, 7)
        space, bound = rng.choice(spaces), rng.choice(bounds)
        fresh = PartitionOfUnity(dict(f.values), n, f.vertices, f.complex)
        kept = certificate_or_refusal(lambda: certify_pu(f, cover, space, eps, bound))
        assert isinstance(kept, str) == (bound < 0)  # the one bad input drawn is the bound
        assert kept == certificate_or_refusal(lambda: certify_pu(fresh, cover, space, eps, bound))


def certificate_or_refusal(call):
    """The certificate with its document, or the refusal's message."""
    try:
        cert = call()
    except InputError as err:
        return str(err)
    return cert, doc_dumps(cert)


def test_a_map_measures_its_star_preimages_once_per_space(monkeypatch):
    calls = []
    for cls in (FiniteCoarseSpace, FiniteMetricSpace):
        def counted(self, points, _inner=cls.set_diameter):
            calls.append(self)
            return _inner(self, points)
        monkeypatch.setattr(cls, "set_diameter", counted)
    line = gen_line(60)
    space, gauge = line.space, line.space.gauge
    f = barycentric_map(gauge, line.staggered(5))  # star preimage diameter 9
    first = certify_pu(f, gauge, space, F(1, 2), 9)
    assert first.ok and calls
    calls.clear()
    # another bound, another cover and an equal space built anew read the kept diameter
    tight = certify_pu(f, gauge, space, F(1, 2), 8)
    assert (tight.boundedness.max_diameter, tight.boundedness.witness) == (
        first.boundedness.max_diameter, first.boundedness.witness)
    assert not tight.boundedness.ok and not tight.ok
    again = FiniteCoarseSpace(60, Cover(gauge.sets, 60))
    assert certify_pu(f, line.staggered(5), again, None, F(17, 2)).boundedness == replace(
        first.boundedness, bound=F(17, 2), ok=False)
    assert not calls
    # a bad bound is refused on a kept diameter as on a first measurement
    for bad, message in ((-1, "bound = -1 is not >= 0"), (F(-1, 3), "bound = -1/3 is not >= 0"),
                         (True, "bound = True is not an int or Fraction"),
                         (9.0, "bound = 9.0 is not an int or Fraction")):
        for m in (f, barycentric_map(gauge, line.staggered(5))):
            with pytest.raises(InputError) as err:
                certify_pu(m, gauge, space, F(1, 2), bad)
            assert str(err.value) == message
    assert not calls
    # a different space measures again: a coarser gauge, then a metric, whose diameters
    # the metric certificates read too
    coarser = FiniteCoarseSpace(60, iterated_star(gauge, 1))
    assert certify_pu(f, gauge, coarser, F(1, 2), 9).boundedness.max_diameter == 3
    assert calls and set(calls) == {coarser}
    calls.clear()
    metric = FiniteMetricSpace.line(60)
    assert certify_pu(f, gauge, metric, F(1, 2), 9).boundedness == first.boundedness
    assert calls and set(calls) == {metric}
    calls.clear()
    assert certify_delta_pu(f, metric, F(1, 16), 8).boundedness == tight.boundedness
    assert certify_delta_pu(f, FiniteMetricSpace.line(60), F(1, 8), 9).boundedness == \
        first.boundedness
    assert not calls


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_variation_bound_for_star_refinements(n, seed):
    # whenever the k-fold star refines the target, the measured variation obeys
    # (2n+2)^2/k for n+1 the target multiplicity
    rng = random.Random(seed)
    k = rng.randrange(1, 4)
    base = random_cover(rng, n)
    starred = iterated_star(base, k)
    groups = random_refinement_pair(rng, n)[1]
    sets = tuple(starred.sets[t] | groups.sets[t % len(groups.sets)] for t in range(len(starred.sets)))
    target = Cover(sets, n)
    assert is_refinement(iterated_star(base, k), target).ok
    pu = barycentric_map(base, target)
    mult = target.max_multiplicity()
    bound = F((2 * mult) ** 2, k)  # (2n+2)^2/k with n+1 = mult
    assert variation(pu, base).value <= bound
