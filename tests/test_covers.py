"""Cover algebra: stars, refinement, chain indices, shrinking."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import (
    BarycentricPoint,
    BoundednessCertificate,
    Cover,
    ExtNat,
    FiniteCoarseSpace,
    FiniteMetricSpace,
    INFINITY,
    InputError,
    PartitionOfUnity,
    PreconditionError,
    blend_alpha,
    chain_graph,
    chain_index,
    chain_indices,
    gen_grid2d,
    gen_line,
    interior,
    is_refinement,
    is_uniformly_bounded,
    iterated_star,
    shrink_with_multiplicity,
    skeletal_retract,
    star_cover,
    star_misfit,
    star_set,
)
from coarsedim import covers
from coarsedim.covers import ChainGraph, diameter_in_graph
from coarsedim.formats import load_cover
from coarsedim.generators import random_cover, random_refinement_pair
from coarsedim.oracles import (
    chain_graph_by_elements,
    chain_index_by_enumeration,
    shrink_clause_violation,
)
from oracles import (
    chain_diameter_all_pairs,
    chain_index_by_paths,
    iterated_star_bruteforce,
    normalize_pairwise,
    refinement_by_scan,
    star_set_bruteforce,
)


def line_cover(n):
    return Cover.of([{i, i + 1} for i in range(n - 1)], n)


def varied_cover(rng, n, empties, duplicates):
    """A random cover, with three repeated elements and an empty one when asked."""
    sets = list(random_cover(rng, n).sets)
    if duplicates:
        sets += [rng.choice(sets) for _ in range(3)]
    if empties:
        sets.insert(rng.randrange(len(sets) + 1), frozenset())
    return Cover(tuple(sets), n, allow_empty=empties)


# --- Cover basics -----------------------------------------------------------

def test_cover_rejects_empty_element():
    with pytest.raises(InputError):
        Cover.of([[0, 1], []], 2)


def test_cover_rejects_missing_point():
    with pytest.raises(InputError):
        Cover.of([[0, 1]], 3)


def test_cover_rejects_unknown_point():
    with pytest.raises(InputError):
        Cover.of([[0, 5]], 2)


def test_cover_names_its_first_defect_in_index_order():
    cases = [
        ([[0, 7], [], [-1]], "cover element 0 contains unknown point 7"),
        ([[0, 1], [], [9]], "cover element 1 is empty"),
        ([[0, 1], [1, -2]], "cover element 1 contains unknown point -2"),
        ([[0], [1]], "cover misses point 2"),
        ([], "a cover needs at least one element"),
    ]
    for sets, message in cases:
        with pytest.raises(InputError, match=message):
            Cover.of(sets, 3)
    with pytest.raises(InputError, match="cover element 2 contains unknown point 3"):
        Cover.of([[0, 1, 2], [], [3]], 3, allow_empty=True)


def test_cover_rejects_points_that_are_not_ints():
    # the element is named, and Cover.of keeps 0.7 as it is rather than reading it as 0
    cases = [
        (lambda: Cover((frozenset({0.5}), frozenset({0})), 1), "cover element 0 contains 0.5"),
        (lambda: Cover((frozenset({0}), frozenset({0.5})), 2), "cover element 1 contains 0.5"),
        (lambda: Cover.of([[0.7, 1]], 2), "cover element 0 contains 0.7"),
        (lambda: Cover.of([[0, 1], ["2"]], 3), "cover element 1 contains '2'"),
        (lambda: Cover.of([[0, True]], 2), "cover element 0 contains True"),
    ]
    for build, message in cases:
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message + ", not an int point"


def test_missing_point_check_costs_the_size_of_the_cover():
    # the first gap is found by scanning up to it, not by building range(n)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="^cover misses point 4$"):
            load_cover("cover\npoints 1000000\nelement 0 : 0 1 2 3\nend\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_relaxed_cover_keeps_empty_elements():
    c = Cover.of([[0, 1], []], 2, allow_empty=True)
    assert c.has_empty_elements()
    assert len(c) == 2


def test_multiplicity_counts_indices():
    c = Cover.of([[0, 1], [1, 2]], 3)
    assert c.multiplicity(1) == 2
    assert c.multiplicity(0) == 1
    dup = Cover.of([[0, 1]] * 3, 2)
    assert dup.multiplicity(0) == 3  # duplicates counted per index
    with pytest.raises(InputError):
        c.multiplicity(7)


def test_normalize_drops_duplicates_and_contained():
    c = Cover.of([[0, 1], [0, 1], [0], [0, 1, 2]], 3)
    assert [sorted(s) for s in c.normalize().sets] == [[0, 1, 2]]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000), st.booleans(), st.integers(0, 4))
def test_normalize_matches_pairwise_reference(n, seed, empties, nested):
    rng = random.Random(seed)
    sets = list(varied_cover(rng, n, empties, duplicates=True).sets)
    for _ in range(nested):  # a subset of an element, maybe the element itself
        s = sorted(rng.choice([s for s in sets if s]))
        part = frozenset(rng.sample(s, rng.randrange(1, len(s) + 1)))
        sets.insert(rng.randrange(len(sets) + 1), part)
    cover = Cover(tuple(sets), n, allow_empty=empties)
    assert cover.normalize() == normalize_pairwise(cover)


# --- refinement -------------------------------------------------------------

def test_refinement_singletons_into_pair():
    u = Cover.of([[0], [1]], 2)
    v = Cover.of([[0, 1]], 2)
    chk = is_refinement(u, v)
    assert chk.ok and chk.assignment == (0, 0)


def test_refinement_identity_uses_least_index():
    u = Cover.of([[0, 1], [1, 2], [1]], 3)
    chk = is_refinement(u, u)
    assert chk.ok
    assert chk.assignment == (0, 1, 0)  # the singleton {1} sits in element 0 first


def test_refinement_failure_carries_counterexample():
    u = Cover.of([[0, 1]], 2)
    v = Cover.of([[0], [1]], 2)
    chk = is_refinement(u, v)
    assert not chk.ok and chk.counterexample == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.booleans(), st.data())
def test_refinement_matches_scan_of_every_coarse_element(n, seed, paired, empties, duplicates,
                                                          data):
    rng = random.Random(seed)
    if paired:  # a coarsening, with repeated coarse elements and an empty fine one when asked
        fine, coarse = random_refinement_pair(rng, n)
        sets = list(coarse.sets)
        if duplicates:
            for _ in range(3):
                sets.insert(rng.randrange(len(sets) + 1), rng.choice(sets))
        coarse = Cover(tuple(sets), n)
        if empties:
            fine = Cover(fine.sets + (frozenset(),), n, allow_empty=True)
    else:
        fine = varied_cover(rng, n, empties, duplicates)
        coarse = varied_cover(rng, n, rng.random() < 0.3, rng.random() < 0.3)
    chk = is_refinement(fine, coarse)
    assignment, counterexample = refinement_by_scan(fine, coarse)
    assert (chk.ok, chk.assignment, chk.counterexample) == (
        counterexample is None, assignment, counterexample)
    k = data.draw(st.integers(0, n + 1))
    want = refinement_by_scan(iterated_star_bruteforce(fine, k), coarse)[1]
    assert star_misfit(fine, k, coarse) == want


def test_refinement_rejects_mismatched_spaces():
    with pytest.raises(InputError):
        is_refinement(Cover.of([[0]], 1), Cover.of([[0, 1]], 2))


# --- stars ------------------------------------------------------------------

def test_star_set_on_line():
    u = line_cover(5)
    assert star_set({2}, u) == frozenset({1, 2, 3})
    assert star_set(set(), u) == frozenset()
    assert star_set(range(5), u) == frozenset(range(5))


def test_star_set_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 10)
        cover = random_cover(rng, n)
        pts = frozenset(x for x in range(n) if rng.random() < 0.4)
        assert star_set(pts, cover) == star_set_bruteforce(pts, cover)
    # empty and repeated elements
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randrange(1, 10)
        cover = varied_cover(rng, n, rng.random() < 0.5, rng.random() < 0.5)
        pts = frozenset(x for x in range(n) if rng.random() < 0.4)
        assert star_set(pts, cover) == star_set_bruteforce(pts, cover)


def test_star_set_contains_input_and_is_monotone():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 10)
        cover = random_cover(rng, n)
        a = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        b = a | frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        assert a <= star_set(a, cover)
        assert star_set(a, cover) <= star_set(b, cover)
        bigger = Cover(cover.sets + (frozenset(range(n)),), n)
        assert star_set(a, cover) <= star_set(a, bigger)


def test_star_set_rejects_unknown_points():
    with pytest.raises(InputError):
        star_set({9}, line_cover(4))


def test_star_cover_on_line():
    u = line_cover(4)
    assert [sorted(s) for s in star_cover(u, u).sets] == [
        [0, 1, 2], [0, 1, 2, 3], [1, 2, 3]]


def test_star_cover_of_singletons_by_singletons():
    s = Cover.of([[0], [1], [2]], 3)
    assert star_cover(s, s) == s


def test_star_cover_whole_space_fixed():
    w = Cover.of([range(5)], 5)
    assert star_cover(w, w) == w


def test_iterated_star_level_zero_is_identity():
    u = line_cover(10)
    assert iterated_star(u, 0) is u


def test_iterated_star_levels_on_line():
    # expected values from the elementwise brute-force star oracle
    u = line_cover(10)
    assert sorted(iterated_star(u, 1).sets[4]) == [3, 4, 5, 6]
    assert sorted(iterated_star(u, 2).sets[4]) == [2, 3, 4, 5, 6, 7]


def test_iterated_star_whole_space_fixed_point():
    w = Cover.of([range(6)], 6)
    for k in (1, 3, 9):
        assert iterated_star(w, k) == w


def test_iterated_star_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 9)
        cover = random_cover(rng, n)
        k = rng.randrange(0, 4)
        assert iterated_star(cover, k) == iterated_star_bruteforce(cover, k)
    # empty and repeated elements, and k past the fixpoint (radius n - 1 fills a component)
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(1, 9)
        cover = varied_cover(rng, n, rng.random() < 0.5, rng.random() < 0.5)
        for k in (1, 2, n, n + 3):
            assert iterated_star(cover, k) == iterated_star_bruteforce(cover, k)


def test_iterated_star_is_one_more_star_each_level():
    u = line_cover(12)
    for k in range(1, 4):
        assert iterated_star(u, k) == star_cover(iterated_star(u, k - 1), u)


def test_iterated_star_nondecreasing_and_refined():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 9)
        cover = random_cover(rng, n)
        prev = cover
        for k in range(1, 4):
            cur = iterated_star(cover, k)
            assert all(a <= b for a, b in zip(prev.sets, cur.sets))
            assert is_refinement(cover, cur).ok
            prev = cur


k_steps = st.lists(st.integers(0, 9), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.booleans(), st.one_of(k_steps, k_steps.map(sorted),
                                k_steps.map(lambda ks: sorted(ks, reverse=True) + sorted(ks))))
def test_iterated_star_tower_matches_bruteforce_over_k_sequences(n, seed, empties, duplicates,
                                                                  connected, ks):
    rng = random.Random(seed)
    cover = varied_cover(rng, n, empties, duplicates)
    if connected:
        cover = Cover(cover.sets + random_cover(rng, n, connected=True).sets, n, empties)
    for k in ks:  # one cover object throughout, so each call sees the tower the last one left
        assert iterated_star(cover, k) == iterated_star_bruteforce(cover, k)


def test_iterated_star_keeps_the_level_of_each_call(monkeypatch):
    u = line_cover(30)
    steps = []
    step = covers._star_step
    monkeypatch.setattr(covers, "_star_step",
                        lambda *args: steps.append(1) or step(*args))
    iterated_star(u, 3)
    assert u._star_tower[0] == 3 and len(steps) == 3
    iterated_star(u, 5)  # continues from level 3
    assert u._star_tower[0] == 5 and len(steps) == 5
    iterated_star(u, 5)  # the kept level again: no step
    assert len(steps) == 5
    iterated_star(u, 0)  # level 0 is the cover itself and leaves the tower alone
    assert u._star_tower[0] == 5
    assert iterated_star(u, 2) == iterated_star_bruteforce(u, 2)  # grows from the elements
    assert u._star_tower[0] == 2 and len(steps) == 7
    assert iterated_star(u, 4) == iterated_star_bruteforce(u, 4)  # continues from level 2
    assert u._star_tower[0] == 4 and len(steps) == 9
    fresh = Cover(u.sets, u.n_points)
    assert fresh._star_tower is None and iterated_star(fresh, 7) == iterated_star(u, 7)


# --- chain graph and indices --------------------------------------------------

def test_chain_graph_on_line_is_path():
    g = chain_graph(line_cover(4))
    assert g.neighbors == ((0, 1), (0, 1, 2), (1, 2, 3), (2, 3))


def test_chain_graph_singletons_only_loops():
    g = chain_graph(Cover.of([[0], [1]], 2))
    assert g.neighbors == ((0,), (1,))


def test_chain_graph_triple_element_gives_triangle():
    g = chain_graph(Cover.of([[0, 1, 2]], 3))
    assert g.neighbors == ((0, 1, 2),) * 3


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10_000), st.booleans(), st.booleans())
def test_chain_graph_matches_per_element_reference(n, seed, empties, duplicates):
    cover = varied_cover(random.Random(seed), n, empties, duplicates)
    assert chain_graph(cover).neighbors == chain_graph_by_elements(cover).neighbors


def test_cover_chain_is_built_once_through_the_module_function(monkeypatch):
    # the per-layer trace counts chain graphs by wrapping covers.chain_graph
    calls = []
    build = covers.chain_graph
    monkeypatch.setattr(covers, "chain_graph", lambda c: calls.append(c) or build(c))
    cover = line_cover(5)
    assert cover.chain is cover.chain
    assert calls == [cover]
    assert FiniteCoarseSpace(5, cover).chain is cover.chain


def test_chain_index_zero_outside():
    u = line_cover(5)
    assert chain_index(u, 4, {0, 1, 2}) == 0


def test_chain_index_infinite_when_region_is_everything():
    u = line_cover(5)
    assert chain_index(u, 2, range(5)) == INFINITY


def test_chain_index_line_example():
    u = line_cover(5)
    assert chain_index(u, 0, {0, 1, 2}) == 3


def test_chain_index_matches_both_oracles():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 8)
        cover = random_cover(rng, n)
        region = frozenset(x for x in range(n) if rng.random() < 0.6)
        for x in range(n):
            got = chain_index(cover, x, region)
            assert got == chain_index_by_enumeration(cover, x, region)
            assert got == chain_index_by_paths(cover, x, region)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_chain_index_is_lipschitz_along_edges(n, seed):
    rng = random.Random(seed)
    cover = random_cover(rng, n)
    region = frozenset(x for x in range(n) if rng.random() < 0.5)
    graph = chain_graph(cover)
    vals = [chain_index(cover, x, region) for x in range(n)]
    for x in range(n):
        for y in graph.neighbors[x]:
            a, b = vals[x], vals[y]
            if a.is_finite and b.is_finite:
                assert abs(a.value - b.value) <= 1
            else:
                assert not a.is_finite and not b.is_finite


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000))
def test_chain_indices_match_enumeration_oracle(n, seed):
    rng = random.Random(seed)
    cover = varied_cover(rng, n, rng.random() < 0.3, rng.random() < 0.3)
    region = frozenset(x for x in range(n) if rng.random() < 0.6)
    got = chain_indices(cover, region)
    assert [ExtNat(d) for d in got] == [chain_index_by_enumeration(cover, x, region)
                                        for x in range(n)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000), st.booleans(), st.booleans(), st.booleans(),
       st.sampled_from(["empty", "small", "large", "whole", "component"]))
def test_chain_indices_match_enumeration_on_both_sides_of_half(n, seed, empties, connected, wide,
                                                               kind):
    rng = random.Random(seed)
    cover = varied_cover(rng, n, empties, rng.random() < 0.3)
    if connected:
        cover = Cover(cover.sets + random_cover(rng, n, connected=True).sets, n, empties)
    if kind == "empty":
        region = frozenset()
    elif kind == "whole":
        region = frozenset(range(n))
    elif kind == "component":  # a union of chain components: every index in it is infinite
        dist = cover.chain.distances_from([rng.randrange(n)])
        region = frozenset(x for x in range(n) if dist[x] is not None)
    else:  # at most half the space starts from the rim, more than half from the complement
        size = rng.randint(1, max(1, n // 2)) if kind == "small" else rng.randint(n // 2 + 1, n)
        region = frozenset(rng.sample(range(n), size))
    outside = sorted(set(range(n)) - region)
    if wide and kind in ("small", "large") and outside:  # an element holding the region and more
        cover = Cover(cover.sets + (region | {rng.choice(outside)},), n, empties)
    got = chain_indices(cover, region)
    want = [chain_index_by_enumeration(cover, x, region) for x in range(n)]
    assert [ExtNat(d) for d in got] == want
    assert all(d == 0 for x, d in enumerate(got) if x not in region)
    if kind in ("whole", "component"):
        assert all(got[x] is None for x in region)
    # the distances that the region's readers take in place agree on the region
    dist = covers._region_distances(cover, region)
    assert len(dist) == n
    assert all(ExtNat(dist[x]) == want[x] for x in region)


def test_bounded_bfs_enters_only_the_given_set():
    graph = line_cover(8).chain
    assert graph.distances_from([2], within=frozenset({3, 4, 6})) == [
        None, None, 0, 1, 2, None, None, None]
    assert graph.distances_from([2, 5], within=frozenset({3, 4})) == [
        None, None, 0, 1, 1, 0, None, None]
    assert graph.distances_from([2]) == [2, 1, 0, 1, 2, 3, 4, 5]


def test_bfs_stops_at_the_last_point_of_the_stop_set():
    graph = line_cover(8).chain
    assert graph.distances_from([2], until=frozenset({0, 4})) == [
        2, 1, 0, 1, 2, None, None, None]
    assert graph.distances_from([2], until=frozenset({2})) == [
        None, None, 0, None, None, None, None, None]
    # a stop point the search cannot reach lets it run out, as without a stop set
    assert graph.distances_from([2], within=frozenset({3, 4}), until=frozenset({3, 6})) == [
        None, None, 0, 1, 2, None, None, None]


def test_chain_indices_search_only_the_region_and_its_rim(monkeypatch):
    reached = []
    bfs = ChainGraph.distances_from
    monkeypatch.setattr(ChainGraph, "distances_from", lambda *args, **kwargs: reached.append(
        bfs(*args, **kwargs)) or reached[-1])
    u = line_cover(100)
    index = chain_indices(u, range(10, 15))
    assert index[8:17] == [0, 0, 1, 2, 3, 2, 1, 0, 0]
    assert [x for x, d in enumerate(reached[-1]) if d is not None] == list(range(9, 16))
    # a region of more than half the space starts from the whole complement
    chain_indices(u, range(20, 80))
    assert sum(d is not None for d in reached[-1]) == 100


def test_chain_indices_reject_unknown_points():
    # a point is an int id in 0..n-1: True is not point 1, and 0.5 is no point at all
    space = gen_line(5).space
    gauge = space.gauge
    index = chain_indices(gauge, {0, 1})
    const = PartitionOfUnity(dict.fromkeys(range(5), BarycentricPoint.vertex(0)), 5, (0,))
    metric = FiniteMetricSpace.line(5)
    for region in ({0, 99}, {0, -3}, {0, 5}, {0, "1"}, {0, True}, {0.5}):
        bad = next(x for x in region if x != 0)
        for call in (lambda: chain_index(gauge, 0, region),
                     lambda: chain_indices(gauge, region),
                     lambda: interior(gauge, region, 1),
                     lambda: interior(gauge, region, 1, index),
                     lambda: star_set(region, gauge),
                     lambda: gauge.multiplicity(bad),
                     lambda: chain_index(gauge, bad, {0}),
                     lambda: blend_alpha(region, 1, gauge),
                     lambda: skeletal_retract(const, region, 1, gauge, Fraction(1, 100), 0),
                     lambda: diameter_in_graph(region, gauge.chain),
                     lambda: space.set_diameter(region),
                     lambda: metric.set_diameter(region)):
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == f"unknown point {bad!r}"


def test_set_diameter_checks_points_before_reading_a_kept_diameter():
    # True, 1.0 and Fraction(1) equal 1 and hash alike, so each bad region below equals
    # its valid twin as a set; the twin's kept diameter must not let it through
    pairs = (({1, 4}, {True, 4}), ({1, 4}, {1.0, 4}), ({1, 4}, {Fraction(1), 4}),
             ({0}, {False}), ({0, 2}, {0.0, 2}))
    for space in (gen_line(6).space, FiniteMetricSpace.line(6)):
        for twin, region in pairs:
            assert space.set_diameter(twin) == max(twin) - min(twin)
            bad = next(x for x in region if type(x) is not int)
            for given_as in (region, frozenset(region), sorted(region, key=str)):
                with pytest.raises(InputError) as err:
                    space.set_diameter(given_as)
                assert str(err.value) == f"unknown point {bad!r}"


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000), st.data())
def test_interior_matches_starred_complement(n, seed, data):
    rng = random.Random(seed)
    cover = varied_cover(rng, n, rng.random() < 0.3, rng.random() < 0.3)
    region = frozenset(x for x in range(n) if rng.random() < 0.7)
    k = data.draw(st.integers(0, n + 1))
    outside = frozenset(range(n)) - region
    for _ in range(k):
        outside = star_set_bruteforce(outside, cover)
    assert interior(cover, region, k) == region - outside


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.booleans(), st.data())
def test_star_misfit_matches_materialised_stars(n, seed, empties, duplicates, connected, data):
    rng = random.Random(seed)
    cover = varied_cover(rng, n, empties, duplicates)
    if connected:
        cover = Cover(cover.sets + random_cover(rng, n, connected=True).sets, n, empties)
    coarse = varied_cover(rng, n, rng.random() < 0.3, rng.random() < 0.3)
    k = data.draw(st.integers(0, n + 1))
    want = is_refinement(iterated_star(cover, k), coarse).counterexample
    assert star_misfit(cover, k, coarse) == want


def test_star_misfit_on_line_names_the_least_failing_element():
    u = line_cover(10)
    halves = Cover.of([range(7), range(3, 10)], 10)
    assert star_misfit(u, 1, halves) is None
    assert star_misfit(u, 2, halves) == 4  # {4, 5} grows to 2..7, in neither half
    assert is_refinement(iterated_star(u, 2), halves).counterexample == 4
    with pytest.raises(InputError):
        star_misfit(u, -1, halves)
    with pytest.raises(InputError):
        star_misfit(u, 1, line_cover(9))


# --- diameters and boundedness -------------------------------------------------

def test_chain_diameter_trivial_sets():
    u = line_cover(5)
    assert diameter_in_graph({3}, u.chain) == 0
    assert diameter_in_graph(set(), u.chain) == 0


def test_chain_diameter_on_line():
    assert diameter_in_graph({0, 3}, line_cover(5).chain) == 3


def test_chain_diameter_across_components_is_infinite():
    split = Cover.of([[0, 1], [2, 3]], 4)
    assert diameter_in_graph({0, 3}, split.chain) == INFINITY


def cycle_cover(n):
    return Cover.of([{i, (i + 1) % n} for i in range(n)], n)


def bounded_by_oracle(cover, space, bound):
    """``is_uniformly_bounded`` with the all-pairs diameter in place of the kernel."""
    worst, witness = ExtNat(0), None
    for i, s in enumerate(cover.sets):
        d = chain_diameter_all_pairs(s, space.chain)
        if worst < d:
            worst, witness = d, i
        if not d.is_finite:
            break
    return worst, witness, worst <= bound


@pytest.fixture
def bfs_calls(monkeypatch):
    """Records the sources of every ``ChainGraph.distances_from`` call."""
    calls = []
    full_bfs = ChainGraph.distances_from

    def recording(self, sources, **kwargs):
        calls.append(tuple(sources))
        return full_bfs(self, sources, **kwargs)

    monkeypatch.setattr(ChainGraph, "distances_from", recording)
    return calls


def test_chain_diameter_on_cycle_needs_every_source(bfs_calls):
    # on a cycle every eccentricity is equal, so no bound drops a candidate
    assert diameter_in_graph(range(12), chain_graph(cycle_cover(12))) == 6
    assert sorted(bfs_calls) == [(x,) for x in range(12)]


def test_chain_diameter_on_line_prunes_to_three_sources(bfs_calls):
    # least id, then the largest upper bound (far end), then the smallest lower bound (centre)
    assert diameter_in_graph(range(5, 30), chain_graph(line_cover(40))) == 24
    assert bfs_calls == [(5,), (29,), (17,)]


def test_chain_diameter_on_grid_star_alternates_bounds(bfs_calls):
    # a star of the 3-brick cover of a 6x6 grid: taking the largest upper
    # bound every time needs 9 sources, alternating with the smallest lower
    # bound needs 5
    grid = gen_grid2d(6, 6)
    star = star_cover(grid.bricks(3), grid.space.gauge).sets[3]
    assert sorted(star) == [14, 15, 16, 19, 20, 21, 22, 23, 25, 26, 27, 28, 29,
                            31, 32, 33, 34, 35]
    assert diameter_in_graph(star, grid.space.chain) == 6
    assert bfs_calls == [(14,), (35,), (22,), (31,), (27,)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 18), st.integers(0, 10_000), st.booleans(), st.booleans())
def test_chain_diameter_matches_all_pairs_oracle(n, seed, connected, cycle):
    rng = random.Random(seed)
    if cycle and n >= 3:
        gauge = cycle_cover(n)
    else:
        gauge = random_cover(rng, n, connected=connected)
    space = FiniteCoarseSpace(n, gauge)
    subsets = [frozenset(x for x in range(n) if rng.random() < rng.random())
               for _ in range(6)]
    for s in subsets:
        assert diameter_in_graph(s, space.chain) == chain_diameter_all_pairs(s, space.chain)
    cover = Cover(tuple(subsets) + gauge.sets, n, allow_empty=True)
    bound = rng.randrange(0, n + 1)
    cert = is_uniformly_bounded(cover, space, bound)
    assert (cert.max_diameter, cert.witness, cert.ok) == bounded_by_oracle(cover, space, bound)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 18), st.integers(0, 10_000),
       st.sampled_from(["random", "split", "singleton", "whole"]))
def test_stopping_bfs_gives_the_diameter_and_sources_of_the_full_search(n, seed, kind):
    # each diameter BFS stops once the set's points have their distances: the value must
    # be the all-pairs diameter and the sources those of BFS runs over the whole graph
    rng = random.Random(seed)
    split = kind == "split" and n > 1
    if split:  # no chain joins 0..m-1 to m..n-1
        m = rng.randrange(1, n)
        low, high = random_cover(rng, m), random_cover(rng, n - m)
        gauge = Cover(low.sets + tuple(frozenset(x + m for x in s) for s in high.sets), n)
    else:
        gauge = random_cover(rng, n, connected=True)
    graph = gauge.chain
    if kind == "singleton":
        points = frozenset({rng.randrange(n)})
    elif kind == "whole":
        points = frozenset(range(n))
    else:
        points = frozenset(x for x in range(n) if rng.random() < rng.random())
    if split:
        points |= {0, n - 1}
    want = chain_diameter_all_pairs(points, graph)
    full = ChainGraph.distances_from
    stopped, walked = [], []

    def stopping(self, sources, **kwargs):
        sources = tuple(sources)
        dist, whole = full(self, sources, **kwargs), full(self, sources)
        assert all(d is None or d == w for d, w in zip(dist, whole))
        assert [dist[b] for b in kwargs["until"]] == [whole[b] for b in kwargs["until"]]
        stopped.append(sources)
        return dist

    def walking(self, sources, **kwargs):
        walked.append(tuple(sources))
        return full(self, sources)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChainGraph, "distances_from", stopping)
        got = diameter_in_graph(points, graph)
        patch.setattr(ChainGraph, "distances_from", walking)
        assert diameter_in_graph(points, graph) == got == want
    assert stopped == walked
    assert (got == INFINITY) == split


def test_diameter_bfs_reaches_few_points_of_a_large_grid(monkeypatch):
    # a count pins the stopping search: a BFS over the whole 40x40 grid reaches all
    # 1600 points, so 16000 over these 10 runs
    runs = []
    full = ChainGraph.distances_from
    monkeypatch.setattr(ChainGraph, "distances_from", lambda *args, **kwargs: runs.append(
        full(*args, **kwargs)) or runs[-1])
    grid = gen_grid2d(40, 40)
    star = star_cover(grid.bricks(8), grid.space.gauge).sets[13]
    assert diameter_in_graph(star, grid.space.chain) == 16
    assert len(runs) == 10
    assert sum(len(dist) - dist.count(None) for dist in runs) == 4478


def test_coarse_space_measures_each_set_once(bfs_calls):
    # a second certificate on the same space reads every diameter it measured;
    # a new space over the same gauge measures them again for a new equal cover,
    # while the cover already measured reads its kept answer
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randrange(1, 16)
        gauge = random_cover(rng, n, connected=rng.random() < 0.7)
        space = FiniteCoarseSpace(n, gauge)
        subsets = [frozenset(x for x in range(n) if rng.random() < 0.5) for _ in range(5)]
        cover = Cover(tuple(subsets) + gauge.sets, n, allow_empty=True)
        bound = rng.randrange(0, n + 1)
        expected = [chain_diameter_all_pairs(s, gauge.chain) for s in cover.sets]
        first = is_uniformly_bounded(cover, space, bound)
        assert [space.set_diameter(s) for s in cover.sets] == expected
        bfs_calls.clear()
        assert is_uniformly_bounded(cover, space, bound) == first
        assert [space.set_diameter(s) for s in cover.sets] == expected
        assert bfs_calls == []
        again = FiniteCoarseSpace(n, Cover(gauge.sets, n))
        assert is_uniformly_bounded(cover, again, bound) == first
        assert bfs_calls == []
        assert is_uniformly_bounded(Cover(cover.sets, n, allow_empty=True), again, bound) == first
        assert bool(bfs_calls) == any(len(s) > 1 for s in cover.sets)


def test_uniformly_bounded_measures_each_distinct_set_once(monkeypatch):
    calls = []
    measure = FiniteCoarseSpace.set_diameter
    monkeypatch.setattr(FiniteCoarseSpace, "set_diameter",
                        lambda self, pts: calls.append(frozenset(pts)) or measure(self, pts))
    space = gen_line(10).space
    short, long_ = frozenset(range(3)), frozenset(range(2, 10))
    cert = is_uniformly_bounded(Cover((short, long_, short, long_, short), 10), space, 5)
    assert (cert.max_diameter, cert.witness, cert.ok) == (7, 1, False)
    assert calls == [frozenset(), short, long_]


@pytest.mark.parametrize("space", [gen_line(10).space, FiniteMetricSpace.line(10)],
                         ids=["chain", "metric"])
def test_uniformly_bounded_keeps_its_answer_on_the_cover(monkeypatch, space):
    calls = []
    measure = type(space).set_diameter
    monkeypatch.setattr(type(space), "set_diameter",
                        lambda self, pts: calls.append(frozenset(pts)) or measure(self, pts))
    short, long_ = frozenset(range(3)), frozenset(range(2, 10))
    cover = Cover((short, long_, short), 10)
    first = is_uniformly_bounded(cover, space, 5)
    assert (first.max_diameter, first.witness, first.ok) == (7, 1, False)
    assert calls == [frozenset(), short, long_]
    calls.clear()
    # another bound is decided on the kept answer
    assert is_uniformly_bounded(cover, space, Fraction(7)) == BoundednessCertificate(
        Fraction(7), first.max_diameter, 1, True)
    # a bad bound is refused on the kept answer as on a cover never measured
    for bad, message in ((-1, "bound = -1 is not >= 0"),
                         (Fraction(-1, 3), "bound = -1/3 is not >= 0"),
                         (True, "bound = True is not an int or Fraction"),
                         (7.0, "bound = 7.0 is not an int or Fraction")):
        for c in (cover, Cover(cover.sets, 10)):
            with pytest.raises(InputError) as err:
                is_uniformly_bounded(c, space, bad)
            assert str(err.value) == message
    assert not calls
    # an equal cover built anew measures again
    assert is_uniformly_bounded(Cover(cover.sets, 10), space, 5) == first
    assert calls == [frozenset(), short, long_]


def test_uniformly_bounded_gauge_passes():
    line = gen_line(10)
    cert = is_uniformly_bounded(line.space.gauge, line.space, 1)
    assert cert.ok and cert.max_diameter == 1


def test_uniformly_bounded_whole_space_fails_small_budget():
    line = gen_line(10)
    whole = Cover.of([range(10)], 10)
    cert = is_uniformly_bounded(whole, line.space, 3)
    assert not cert.ok and cert.witness == 0 and cert.max_diameter == 9


def test_uniformly_bounded_grid_bricks():
    grid = gen_grid2d(20, 20)
    cert = is_uniformly_bounded(grid.bricks(5), grid.space, 8)
    assert cert.ok and cert.max_diameter == 2 * (5 - 1)


# --- shrinking ----------------------------------------------------------------

def test_shrink_identity_pair_returns_coarse():
    v = Cover.of([[0, 1], [1, 2]], 3)
    assert shrink_with_multiplicity(v, v).sets == v.sets


def test_shrink_singleton_example():
    u = Cover.of([[0], [1], [2]], 3)
    v = Cover.of([[0, 1], [1, 2]], 3)
    w = shrink_with_multiplicity(u, v)
    assert [sorted(s) for s in w.sets] == [[0, 1], [2]]


def test_shrink_requires_refinement():
    u = Cover.of([[0, 1]], 2)
    v = Cover.of([[0], [1]], 2)
    with pytest.raises(PreconditionError):
        shrink_with_multiplicity(u, v)


# fine [0 1][2] in coarse [0 1 2][1 2] shrinks to [0 1 2][]; each other family breaks one clause
@pytest.mark.parametrize("n, fine, coarse, shrunk, clause", [
    (3, [[0, 1], [2]], [[0, 1, 2], [1, 2]], [[0, 1, 2], []], None),
    (3, [[0, 1], [2]], [[0, 1, 2], [1, 2]], [[0, 1, 2]], "length"),
    (3, [[0, 1], [2]], [[0, 1, 2], [1, 2]], [[0, 1, 2], [0, 1, 2]], "shrinking at element 1"),
    (3, [[0, 1], [2]], [[0, 1, 2], [1, 2]], [[0, 2], [1, 2]], "coarsening"),
    (3, [[0, 1], [2]], [[0, 1, 2], [1, 2]], [[0, 1, 2], [2]], "multiplicity at point 2"),
    (2, [[0], [0], [1]], [[0, 1], [0, 1]], [[0, 1], []], "membership of point 0 in element 1"),
])
def test_shrink_clause_checker_names_each_clause(n, fine, coarse, shrunk, clause):
    fine, coarse = Cover.of(fine, n), Cover.of(coarse, n)
    assert shrink_clause_violation(fine, coarse, Cover.of(shrunk, n, allow_empty=True)) == clause


def test_shrink_clauses_on_random_pairs():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randrange(2, 31)
        fine, coarse = random_refinement_pair(rng, n)
        shrunk = shrink_with_multiplicity(fine, coarse)
        assert shrink_clause_violation(fine, coarse, shrunk) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10_000))
def test_shrink_clauses_property(n, seed):
    rng = random.Random(seed)
    fine, coarse = random_refinement_pair(rng, n)
    shrunk = shrink_with_multiplicity(fine, coarse)
    assert shrink_clause_violation(fine, coarse, shrunk) is None


# --- spaces ---------------------------------------------------------------------

def test_space_rejects_mismatched_gauge():
    with pytest.raises(InputError, match="^FiniteCoarseSpace of 3 points and Cover of 2 points "
                                         "are over different point sets$"):
        FiniteCoarseSpace(3, Cover.of([[0, 1]], 2))
    # 6.0 == 6 and True == 1, but neither is a count
    with pytest.raises(InputError, match=r"^n_points = 6\.0 is not an int >= 1$"):
        FiniteCoarseSpace(6.0, gen_line(6).space.gauge)
    for n in (3.0, True):
        with pytest.raises(InputError) as err:
            Cover.of([[0]], n)
        assert str(err.value) == f"n_points = {n!r} is not an int >= 1"


def test_space_rejects_a_gauge_with_an_empty_element():
    gauge = Cover.of([[0, 1], []], 2, allow_empty=True)
    with pytest.raises(InputError, match="^gauge must not contain empty elements$"):
        FiniteCoarseSpace(2, gauge)


def test_extnat_ordering():
    assert ExtNat(3) < INFINITY
    assert not INFINITY < ExtNat(3)
    assert INFINITY <= INFINITY
    assert ExtNat(4) == 4 and ExtNat(4) <= 4
    # an int or a Fraction compares exactly; a float or a bool does not compare at all
    assert ExtNat(3) <= Fraction(7, 2) < ExtNat(4) and ExtNat(3) == Fraction(3)
    assert Fraction(10 ** 9) < INFINITY and not INFINITY <= Fraction(10 ** 9)
    for bad in (3.5, True):
        with pytest.raises(TypeError):
            ExtNat(3) < bad
    # only a nonnegative int or None: a bool or a float is not a natural number
    for bad in (-1, True, False, 1.0, "1"):
        with pytest.raises(ValueError):
            ExtNat(bad)
