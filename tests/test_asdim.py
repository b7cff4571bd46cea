"""Intersection-count certificates, the skeleton map, trimming, and the filler."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import (
    BarycentricPoint,
    BlendFunction,
    ConstructionError,
    Cover,
    FillerParams,
    FiniteCoarseSpace,
    FiniteMetricSpace,
    InputError,
    PartitionOfUnity,
    PreconditionError,
    SimplicialComplex,
    ball_cover,
    barycentric_map,
    blend_alpha,
    build_skeleton_pu,
    certify_delta_pu,
    certify_pu,
    chain_indices,
    check_asdim_pair,
    choose_filler_params,
    coarsening_witnesses,
    comparison_backward,
    comparison_forward,
    filler,
    find_witness_bruteforce,
    gen_grid2d,
    gen_line,
    gen_random_geometric,
    interior,
    is_refinement,
    is_uniformly_bounded,
    iterated_star,
    l1_distance,
    nerve,
    quotient_variation_bound,
    scalar_variation,
    skeletal_retract,
    star_cover,
    star_misfit,
    trim_to_cover,
    variation,
)
from coarsedim import asdim, covers, pou
from coarsedim.asdim import _nearest_anchor
from coarsedim.generators import random_cover
from oracles import iterated_star_bruteforce, nearest_source_all_pairs, star_set_bruteforce

F = Fraction


# --- intersection counts -----------------------------------------------------

def test_single_element_witness_passes_n_zero():
    line = gen_line(6)
    whole = Cover.of([range(6)], 6)
    cert = check_asdim_pair(line.space.gauge, whole, 0)
    assert cert.ok and set(cert.counts) == {1}


def test_adjacent_pairs_against_themselves():
    u = gen_line(6).space.gauge
    cert = check_asdim_pair(u, u, 2)
    assert cert.ok
    assert max(cert.counts) == 3  # interior elements meet themselves plus two neighbors
    assert not check_asdim_pair(u, u, 1).ok


def test_disjoint_witness_refined_by_cover():
    line = gen_line(8)
    blocks = line.blocks(4)
    inner = Cover.of([[0, 1], [2, 3], [4, 5], [6, 7]], 8)
    cert = check_asdim_pair(inner, blocks, 0)
    assert cert.ok and set(cert.counts) == {1}


# --- brute-force witness search ------------------------------------------------

def test_witness_search_finds_one_on_small_line():
    line = gen_line(6)
    w = find_witness_bruteforce(line.space, line.space.gauge, 1, 5)
    assert w is not None
    assert check_asdim_pair(line.space.gauge, w, 1).ok


def test_witness_search_large_n_returns_fast():
    line = gen_line(5)
    w = find_witness_bruteforce(line.space, line.space.gauge, 4, 4)
    assert w is not None


def test_witness_search_refutes_n_zero_on_connected_line():
    line = gen_line(6)
    assert find_witness_bruteforce(line.space, line.space.gauge, 0, 3) is None


def test_witness_search_size_gate():
    line = gen_line(13)
    with pytest.raises(InputError):
        find_witness_bruteforce(line.space, line.space.gauge, 1, 2)


# --- skeleton map ----------------------------------------------------------------

def test_skeleton_map_line_instance():
    line = gen_line(200)
    space = line.space
    result = build_skeleton_pu(space, space.gauge, line.blocks(50), 10, 1, 120)
    cert = result.certificate
    assert cert.ok
    assert cert.eps == F(8, 5)
    assert cert.variation_value == F(2, 43)
    assert result.cover.max_multiplicity() == 2
    assert result.pu.complex.dimension <= 1
    assert result.pu.max_carrier_size() <= 2


def test_skeleton_map_single_block_gives_constant():
    line = gen_line(30)
    space = line.space
    whole = Cover.of([range(30)], 30)
    result = build_skeleton_pu(space, space.gauge, whole, 3, 0, 29)
    assert result.certificate.ok
    assert result.certificate.variation_value == 0
    assert all(bp.weights == {0: F(1)} for bp in result.pu.values.values())


def test_skeleton_map_grid_instance():
    grid = gen_grid2d(40, 40)
    space = grid.space
    result = build_skeleton_pu(space, space.gauge, grid.bricks(20), 2, 2, 80)
    assert result.certificate.ok
    assert result.certificate.eps == F(36, 2)
    assert result.cover.max_multiplicity() == 3
    assert result.pu.complex.dimension == 2


def test_skeleton_map_precondition_failure():
    line = gen_line(60)
    space = line.space
    # scale 12 windows are wider than these blocks allow at n=1
    with pytest.raises(PreconditionError) as info:
        build_skeleton_pu(space, space.gauge, line.blocks(5), 11, 1, 60)
    assert str(info.value) == ("element 12 of the (k+1)-fold star meets 6 witness elements "
                               "(allowed 2)")
    assert info.value.witness == check_asdim_pair(
        iterated_star_bruteforce(space.gauge, 12), line.blocks(5), 1)
    grid = gen_grid2d(12, 12)
    with pytest.raises(PreconditionError) as info:
        build_skeleton_pu(grid.space, grid.space.gauge, grid.bricks(6), 2, 2, 60)
    assert str(info.value) == ("element 148 of the (k+1)-fold star meets 5 witness elements "
                               "(allowed 3)")
    assert info.value.witness == check_asdim_pair(
        iterated_star_bruteforce(grid.space.gauge, 3), grid.bricks(6), 2)


def with_empty(rng, cover):
    """The cover with an empty element inserted at a random index."""
    sets = list(cover.sets)
    sets.insert(rng.randrange(len(sets) + 1), frozenset())
    return Cover(tuple(sets), cover.n_points, allow_empty=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10_000), st.integers(0, 4), st.integers(0, 3),
       st.booleans(), st.booleans())
def test_k_fold_star_meets_the_starred_witness_as_the_k_plus_1_fold_star_meets_the_witness(
        n_points, seed, k, n, empties, connected):
    rng = random.Random(seed)
    cover = random_cover(rng, n_points, connected=connected)
    witness = random_cover(rng, n_points)
    if empties:
        cover, witness = with_empty(rng, cover), with_empty(rng, witness)
    want = check_asdim_pair(iterated_star_bruteforce(cover, k + 1), witness, n)
    assert check_asdim_pair(iterated_star(cover, k), star_cover(witness, cover), n) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 3))
def test_skeleton_precondition_is_the_k_plus_1_fold_star_certificate(n_points, seed, k, n):
    rng = random.Random(seed)
    cover = random_cover(rng, n_points, connected=True)
    witness = random_cover(rng, n_points)
    space = FiniteCoarseSpace(n_points, cover)
    want = check_asdim_pair(iterated_star_bruteforce(cover, k + 1), witness, n)
    if not want.ok:
        with pytest.raises(PreconditionError) as info:
            build_skeleton_pu(space, cover, witness, k, n, n_points)
        assert str(info.value) == (f"element {want.worst_index} of the (k+1)-fold star meets "
                                   f"{want.max_count} witness elements (allowed {n + 1})")
        assert info.value.witness == want
        return
    try:
        result = build_skeleton_pu(space, cover, witness, k, n, n_points)
    except ConstructionError:  # the starred witness may still be too thick
        return
    assert result.precondition == want


def test_skeleton_and_the_wide_star_share_one_tower(monkeypatch):
    steps = []
    step = covers._star_step
    monkeypatch.setattr(covers, "_star_step",
                        lambda *args: steps.append(1) or step(*args))
    grid = gen_grid2d(24, 24)
    gauge = grid.space.gauge
    result = build_skeleton_pu(grid.space, gauge, grid.bricks(20), 2, 2, 96)
    assert result.certificate.ok
    assert iterated_star(gauge, 2) == iterated_star_bruteforce(gauge, 2)
    assert len(steps) == 2


# --- trimming ----------------------------------------------------------------------

def test_trim_constant_map_passes_n_zero():
    line = gen_line(12)
    whole = Cover.of([range(12)], 12)
    pu = barycentric_map(line.space.gauge, whole)
    result = trim_to_cover(pu, line.space.gauge, 0)
    assert result.certificate.ok
    assert result.cover.sets == (frozenset(range(12)),)
    # below 0 the trim refuses n as the count check does
    for call in (lambda: trim_to_cover(pu, line.space.gauge, -1),
                 lambda: check_asdim_pair(line.space.gauge, whole, -1)):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == "n = -1 is not an int >= 0"


def test_trim_line_pipeline():
    line = gen_line(200)
    space = line.space
    result = build_skeleton_pu(space, space.gauge, line.blocks(50), 10, 1, 120)
    wide = certify_pu(result.pu, iterated_star(space.gauge, 2), space, None, 120)
    assert wide.ok
    trimmed = trim_to_cover(result.pu, space.gauge, 1)
    assert trimmed.certificate.ok
    assert trimmed.certificate.max_count <= 2


def test_trim_under_singleton_cover_keeps_preimages():
    line = gen_line(6)
    singles = Cover.of([[i] for i in range(6)], 6)
    v = Cover.of([[0, 1, 2, 3], [2, 3, 4, 5]], 6)
    pu = barycentric_map(singles, v)
    result = trim_to_cover(pu, singles, 1)
    assert result.cover.sets == pu.star_preimage_cover().sets


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10_000))
def test_trim_removes_the_star_of_each_complement(n, seed):
    # elements of at most two points keep the 2-fold stars short of the whole space
    rng = random.Random(seed)
    cover = random_cover(rng, n, max_size=2, connected=True)
    pu = barycentric_map(cover, iterated_star(cover, 2))
    everything = frozenset(range(n))
    expected = tuple(s - star_set_bruteforce(everything - s, cover)
                     for s in pu.star_preimage_cover().sets)
    assert trim_to_cover(pu, cover, pu.max_carrier_size() - 1).cover.sets == expected


def test_trim_names_the_first_carrier_above_the_dimension():
    line = gen_line(30)
    pu = barycentric_map(line.space.gauge, line.staggered(3))
    with pytest.raises(PreconditionError) as err:
        trim_to_cover(pu, line.space.gauge, 0)
    assert str(err.value) == "carrier at point 3 has 2 vertices (allowed 1)"


def test_trim_gate_witness_is_the_2_fold_star_that_fits_nowhere():
    gauge = gen_line(30).space.gauge
    pu = barycentric_map(gauge, gen_line(30).blocks(4))
    twice = iterated_star(gauge, 2)
    bad = is_refinement(twice, pu.star_preimage_cover()).counterexample
    with pytest.raises(PreconditionError, match=f"element {bad} fits") as info:
        trim_to_cover(pu, gauge, 1)
    assert info.value.witness == twice.sets[bad]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10_000), st.booleans())
def test_trim_gate_agrees_with_star_misfit_and_the_2_fold_star(n, seed, wide):
    # the trim decides its gate inline on its own BFS runs; star_misfit and the built
    # 2-fold star are the references, and a map into small random elements often fails it
    rng = random.Random(seed)
    cover = random_cover(rng, n, max_size=2, connected=True)
    target = iterated_star(cover, 2) if wide else random_cover(rng, n, max_size=3)
    pu = barycentric_map(cover, target)
    preimages = pu.star_preimage_cover()
    bad = star_misfit(cover, 2, preimages)
    assert bad == is_refinement(iterated_star(cover, 2), preimages).counterexample
    if bad is None:
        trimmed = trim_to_cover(pu, cover, pu.max_carrier_size() - 1)
        assert trimmed.cover.sets == tuple(interior(cover, s, 1) for s in preimages.sets)
        return
    with pytest.raises(PreconditionError) as err:
        trim_to_cover(pu, cover, pu.max_carrier_size() - 1)
    assert str(err.value) == f"2-fold star element {bad} fits in no star preimage"


def test_region_readers_never_build_the_public_index_list(monkeypatch):
    # the nerve map, interiors, the star gate and the trim read BFS distances in place
    def refuse(*args):
        raise AssertionError("chain_indices was called")

    for module in (covers, pou, asdim):
        monkeypatch.setattr(module, "chain_indices", refuse, raising=False)
    line = gen_line(200)
    space = line.space
    gauge = space.gauge
    pu = build_skeleton_pu(space, gauge, line.blocks(50), 10, 1, 120).pu  # a barycentric map
    assert interior(gauge, range(20, 60), 3) == frozenset(range(23, 57))
    assert interior(gauge, range(150), 3) == frozenset(range(147))
    assert star_misfit(gauge, 2, pu.star_preimage_cover()) is None
    assert trim_to_cover(pu, gauge, 1).certificate.ok


# --- parameter choice -----------------------------------------------------------------

def test_filler_params_unit_case():
    p = choose_filler_params(1, 1)
    assert (p.m, p.k, p.delta) == (25, 257, F(1, 816))


def test_filler_params_wide_eps_dimension_zero():
    p = choose_filler_params(F(10 ** 6), 0)
    assert (p.m, p.k, p.delta) == (13, 33, F(1, 216))


def test_filler_params_budget_invariant():
    rng = random.Random(53)
    for _ in range(40):
        eps = F(rng.randrange(1, 50), rng.randrange(1, 20))
        n = rng.randrange(0, 5)
        p = choose_filler_params(eps, n)
        cap = min(eps, F(1, n + 1)) / 4
        for term in p.budget_terms():
            assert term < cap
        assert p.variation_budget() < min(eps, F(1, n + 1))
        assert p.k > p.m >= 1


def test_filler_params_rejects_bad_values():
    with pytest.raises(InputError):
        choose_filler_params(0, 1)
    with pytest.raises(InputError):
        FillerParams(eps=F(1), n=1, k=2, m=1, delta=F(1))


_LINE6 = gen_line(6).space
_CONST6 = PartitionOfUnity(dict.fromkeys(range(6), BarycentricPoint.vertex(0)), 6, (0,))


@pytest.mark.parametrize("name, least, call", [
    pytest.param("k", 0, lambda v: iterated_star(_LINE6.gauge, v), id="iterated_star-k"),
    pytest.param("k", 0, lambda v: interior(_LINE6.gauge, {0, 1}, v), id="interior-k"),
    pytest.param("d_cap", 0, lambda v: SimplicialComplex((0, 1), frozenset({frozenset({0, 1})}), v),
                 id="SimplicialComplex-d_cap"),
    pytest.param("d_cap", 0, lambda v: nerve(_LINE6.gauge, v), id="nerve-d_cap"),
    pytest.param("n", 0, lambda v: check_asdim_pair(_LINE6.gauge, _LINE6.gauge, v),
                 id="check_asdim_pair-n"),
    pytest.param("n", 0, lambda v: find_witness_bruteforce(_LINE6, _LINE6.gauge, v, 2),
                 id="find_witness_bruteforce-n"),
    pytest.param("diameter", 0, lambda v: find_witness_bruteforce(_LINE6, _LINE6.gauge, 1, v),
                 id="find_witness_bruteforce-diameter"),
    pytest.param("k", 1, lambda v: build_skeleton_pu(_LINE6, _LINE6.gauge, _LINE6.gauge, v, 1, 5),
                 id="build_skeleton_pu-k"),
    pytest.param("n", 0, lambda v: build_skeleton_pu(_LINE6, _LINE6.gauge, _LINE6.gauge, 1, v, 5),
                 id="build_skeleton_pu-n"),
    pytest.param("n", 0, lambda v: trim_to_cover(_CONST6, _LINE6.gauge, v), id="trim_to_cover-n"),
    pytest.param("n", 0, lambda v: FillerParams(eps=F(1), n=v, k=900, m=30, delta=F(1, 1000)),
                 id="FillerParams-n"),
    pytest.param("m", 1, lambda v: FillerParams(eps=F(1), n=0, k=900, m=v, delta=F(1, 1000)),
                 id="FillerParams-m"),
    pytest.param("k", 31, lambda v: FillerParams(eps=F(1), n=0, k=v, m=30, delta=F(1, 1000)),
                 id="FillerParams-k"),
    pytest.param("n", 0, lambda v: choose_filler_params(1, v), id="choose_filler_params-n"),
    pytest.param("m", 1, lambda v: blend_alpha({0}, v, _LINE6.gauge), id="blend_alpha-m"),
    pytest.param("m", 1, lambda v: skeletal_retract(_CONST6, {0}, v, _LINE6.gauge, F(1, 100), 0),
                 id="skeletal_retract-m"),
    pytest.param("n", 0, lambda v: skeletal_retract(_CONST6, {0}, 1, _LINE6.gauge, F(1, 100), v),
                 id="skeletal_retract-n"),
    pytest.param("n", 2, gen_line, id="gen_line-n"),
    pytest.param("half", 1, lambda v: gen_line(6).staggered(v), id="staggered-half"),
    pytest.param("length", 1, lambda v: gen_line(6).blocks(v), id="blocks-length"),
    pytest.param("width", 2, lambda v: gen_grid2d(v, 3), id="gen_grid2d-width"),
    pytest.param("height", 2, lambda v: gen_grid2d(3, v), id="gen_grid2d-height"),
    pytest.param("brick", 1, lambda v: gen_grid2d(3, 3).bricks(v), id="bricks-brick"),
    pytest.param("n", 1, lambda v: gen_random_geometric(v, F(1, 4), 1),
                 id="gen_random_geometric-n"),
    pytest.param("n_points", 1, lambda v: Cover.of([[0]], v), id="Cover-n_points"),
    pytest.param("n_points", 1, lambda v: FiniteCoarseSpace(v, _LINE6.gauge),
                 id="FiniteCoarseSpace-n_points"),
    pytest.param("n_points", 1, lambda v: PartitionOfUnity({}, v, ()),
                 id="PartitionOfUnity-n_points"),
    pytest.param("n_points", 1, lambda v: FiniteMetricSpace(v, [[0]]),
                 id="FiniteMetricSpace-n_points"),
])
def test_dimensions_and_scales_are_ints_of_at_least_their_least(name, least, call):
    # one rule and one message: below the least, a float or a bool is refused before any use
    for value in (least - 1, 1.5, True):
        with pytest.raises(InputError) as err:
            call(value)
        assert str(err.value) == f"{name} = {value!r} is not an int >= {least}"


_METRIC6 = FiniteMetricSpace.line(6)
_VERTEX0 = BarycentricPoint.vertex(0)


@pytest.mark.parametrize("name, least, strict, call", [
    pytest.param("eps", 0, True, lambda v: certify_pu(_CONST6, _LINE6.gauge, _LINE6, v, 5),
                 id="certify_pu-eps"),
    pytest.param("bound", 0, False, lambda v: is_uniformly_bounded(_LINE6.gauge, _LINE6, v),
                 id="is_uniformly_bounded-bound"),
    pytest.param("alpha", 0, False, lambda v: _VERTEX0.blend(BarycentricPoint.vertex(1), v),
                 id="blend-alpha"),
    pytest.param("eps", 0, True, lambda v: FillerParams(eps=v, n=0, k=900, m=30, delta=F(1, 1000)),
                 id="FillerParams-eps"),
    pytest.param("delta", 0, True, lambda v: FillerParams(eps=F(1), n=0, k=900, m=30, delta=v),
                 id="FillerParams-delta"),
    pytest.param("eps", 0, True, lambda v: choose_filler_params(v, 1),
                 id="choose_filler_params-eps"),
    pytest.param("delta", 0, True, lambda v: skeletal_retract(_CONST6, {0}, 1, _LINE6.gauge, v, 0),
                 id="skeletal_retract-delta"),
    pytest.param("delta", 0, True, lambda v: certify_delta_pu(_CONST6, _METRIC6, v, 5),
                 id="certify_delta_pu-delta"),
    pytest.param("diameter_bound", 0, False,
                 lambda v: certify_delta_pu(_CONST6, _METRIC6, F(1, 2), v),
                 id="certify_delta_pu-diameter_bound"),
    pytest.param("radius", 0, True, lambda v: ball_cover(_METRIC6, v), id="ball_cover-radius"),
    pytest.param("delta", 0, True, lambda v: comparison_forward(_CONST6, _METRIC6, v, 5),
                 id="comparison_forward-delta"),
    pytest.param("diameter_bound", 0, False,
                 lambda v: comparison_forward(_CONST6, _METRIC6, F(1, 2), v),
                 id="comparison_forward-diameter_bound"),
    pytest.param("delta", 0, True, lambda v: comparison_backward(_CONST6, _METRIC6, v, 5),
                 id="comparison_backward-delta"),
    pytest.param("diameter_bound", 0, False,
                 lambda v: comparison_backward(_CONST6, _METRIC6, F(1, 2), v),
                 id="comparison_backward-diameter_bound"),
    pytest.param("radius", 0, True, lambda v: gen_random_geometric(3, v, 1),
                 id="gen_random_geometric-radius"),
    pytest.param("m", 0, True, lambda v: quotient_variation_bound(v, 1),
                 id="quotient_variation_bound-m"),
    pytest.param("n", 0, False, lambda v: quotient_variation_bound(1, v),
                 id="quotient_variation_bound-n"),
])
def test_exact_rationals_are_ints_or_fractions_above_their_least(name, least, strict, call):
    # one rule and two messages: out of range names the value, a float, bool or str its type
    out = least if strict else least - 1
    with pytest.raises(InputError) as err:
        call(out)
    assert str(err.value) == f"{name} = {out} is not {'>' if strict else '>='} {least}"
    for value in (0.5, True, "1/2"):
        with pytest.raises(InputError) as err:
            call(value)
        assert str(err.value) == f"{name} = {value!r} is not an int or Fraction"


def test_exact_rationals_keep_their_upper_checks():
    with pytest.raises(InputError, match="^alpha = 3/2 is not <= 1$"):
        _VERTEX0.blend(_VERTEX0, F(3, 2))
    for compare in (comparison_forward, comparison_backward):
        with pytest.raises(InputError, match="^delta = 2 is not < 2$"):
            compare(_CONST6, _METRIC6, 2, 5)


def test_a_fraction_bound_on_a_coarse_space_decides_as_its_floor():
    space = gen_line(30).space
    pu = barycentric_map(space.gauge, gen_line(30).blocks(7))
    for bound in (F(11, 2), F(6), F(13, 2), F(7), F(29, 4), F(1, 3)):
        floor = bound.numerator // bound.denominator
        at, at_floor = (is_uniformly_bounded(pu.star_preimage_cover(), space, b)
                        for b in (bound, floor))
        assert (at.ok, at.max_diameter, at.witness) == (
            at_floor.ok, at_floor.max_diameter, at_floor.witness)
        assert at.bound is bound  # kept as it was given
        assert certify_pu(pu, space.gauge, space, 1, bound).ok == \
            certify_pu(pu, space.gauge, space, 1, floor).ok


_OTHER = "Cover of {n} points"


@pytest.mark.parametrize("call, first, second", [
    pytest.param(lambda g, met: FiniteCoarseSpace(6, g), "FiniteCoarseSpace of 6 points", _OTHER,
                 id="FiniteCoarseSpace"),
    pytest.param(lambda g, met: is_refinement(_LINE6.gauge, g), "Cover of 6 points", _OTHER,
                 id="is_refinement"),
    pytest.param(lambda g, met: star_cover(_LINE6.gauge, g), "Cover of 6 points", _OTHER,
                 id="star_cover"),
    pytest.param(lambda g, met: star_misfit(_LINE6.gauge, 1, g), "Cover of 6 points", _OTHER,
                 id="star_misfit"),
    pytest.param(lambda g, met: is_uniformly_bounded(g, _LINE6, 3), _OTHER,
                 "FiniteCoarseSpace of 6 points", id="is_uniformly_bounded"),
    pytest.param(lambda g, met: variation(_CONST6, g), "PartitionOfUnity of 6 points", _OTHER,
                 id="variation"),
    pytest.param(lambda g, met: barycentric_map(_LINE6.gauge, g), "Cover of 6 points", _OTHER,
                 id="barycentric_map"),
    pytest.param(lambda g, met: coarsening_witnesses(_CONST6, g), "PartitionOfUnity of 6 points",
                 _OTHER, id="coarsening_witnesses"),
    pytest.param(lambda g, met: check_asdim_pair(_LINE6.gauge, g, 1), "Cover of 6 points", _OTHER,
                 id="check_asdim_pair"),
    pytest.param(lambda g, met: find_witness_bruteforce(_LINE6, g, 1, 2),
                 "FiniteCoarseSpace of 6 points", _OTHER, id="find_witness_bruteforce"),
    pytest.param(lambda g, met: trim_to_cover(_CONST6, g, 0), "PartitionOfUnity of 6 points",
                 _OTHER, id="trim_to_cover"),
    pytest.param(lambda g, met: skeletal_retract(_CONST6, {0}, 1, g, F(1, 100), 0),
                 "PartitionOfUnity of 6 points", _OTHER, id="skeletal_retract"),
    pytest.param(lambda g, met: certify_delta_pu(_CONST6, met, 1, 5),
                 "PartitionOfUnity of 6 points", "FiniteMetricSpace of {n} points",
                 id="certify_delta_pu"),
    pytest.param(lambda g, met: comparison_backward(_CONST6, _METRIC6, 1, 5, g),
                 "FiniteMetricSpace of 6 points", _OTHER, id="comparison_backward"),
])
def test_objects_over_other_points_are_named_with_their_counts(call, first, second):
    # one rule and one message, whichever object has more points
    for n in (5, 7):
        with pytest.raises(InputError) as err:
            call(gen_line(n).space.gauge, FiniteMetricSpace.line(n))
        expected = f"{first} and {second} are over different point sets".format(n=n)
        assert str(err.value) == expected


# --- blend profile ----------------------------------------------------------------------

def test_blend_profile_on_line():
    line = gen_line(31)
    u = line.space.gauge
    b = blend_alpha(range(10), 3, u)
    assert b.star_region == frozenset(range(13))
    assert [b.values[x] for x in range(8, 15)] == [
        F(1), F(1), F(3, 4), F(1, 2), F(1, 4), F(0), F(0)]
    # nonincreasing along the line and variation within 3/m across chain edges
    assert all(b.values[x] >= b.values[x + 1] for x in range(30))
    assert scalar_variation(b.values, u).value <= F(3, 3)


def test_blend_variation_bound_on_finite_pairs():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randrange(3, 14)
        line = gen_line(n)
        u = line.space.gauge
        size = rng.randrange(1, n - 1)
        subset = frozenset(rng.sample(range(n), size))
        m = rng.randrange(1, 4)
        b = blend_alpha(subset, m, u)
        # finiteness of the index into the m-star and of the index into the complement
        star_index = chain_indices(u, b.star_region)
        complement_index = u.chain.distances_from(subset)
        cases = [(p is not None, q is not None) for p, q in zip(star_index, complement_index)]
        for x in range(n - 1):
            if cases[x] == cases[x + 1] == (True, True):
                assert abs(b.values[x] - b.values[x + 1]) <= F(3, m)
            else:
                # infinite indices are a chain-component property, so adjacent
                # points share the case and the value
                assert cases[x] == cases[x + 1] and b.values[x] == b.values[x + 1]


def test_blend_infinite_cases():
    # two components: the region fills one component entirely
    cover = Cover.of([[0, 1], [2, 3]], 4)
    b = blend_alpha({0, 1}, 1, cover)
    star_index = chain_indices(cover, b.star_region)
    complement_index = cover.chain.distances_from({0, 1})
    # inside the filled component the exterior is unreachable
    assert star_index[0] is None and complement_index[0] == 0 and b.values[0] == 1
    # the other component never reaches the region
    assert star_index[2] == 0 and complement_index[2] is None and b.values[2] == 0


def test_blend_rejects_degenerate_subsets():
    u = gen_line(5).space.gauge
    with pytest.raises(InputError):
        blend_alpha(set(), 1, u)
    with pytest.raises(InputError):
        blend_alpha(range(5), 1, u)
    for unknown in ({0, 9}, {-1}):
        with pytest.raises(InputError):
            blend_alpha(unknown, 1, u)


@pytest.mark.parametrize("value, message", [
    (0.5, "blend value 0.5 at point 1 is not an int or Fraction"),
    (True, "blend value True at point 1 is not an int or Fraction"),
    ("1/2", "blend value '1/2' at point 1 is not an int or Fraction"),
    (Fraction(3, 2), "blend value 3/2 at point 1 outside [0, 1]"),
    (Fraction(-1, 3), "blend value -1/3 at point 1 outside [0, 1]"),
    (2, "blend value 2 at point 1 outside [0, 1]"),
    (-1, "blend value -1 at point 1 outside [0, 1]"),
])
def test_blend_function_takes_exact_values_in_the_unit_interval(value, message):
    with pytest.raises(InputError) as err:
        BlendFunction((Fraction(1, 2), value, Fraction(0)), frozenset())
    assert str(err.value) == message
    ends = BlendFunction((0, Fraction(0), Fraction(1, 2), Fraction(1), 1), frozenset({3}))
    assert ends.values == (0, 0, Fraction(1, 2), 1, 1)


# --- retract ---------------------------------------------------------------------------

def test_retract_fixes_anchor_points_and_constant_maps():
    line = gen_line(20)
    u = line.space.gauge
    whole = Cover.of([range(20)], 20)
    pu = barycentric_map(u, whole)
    res = skeletal_retract(pu, range(5), 2, u, F(1, 100), 1)
    assert res.max_shift == 0
    for x in sorted(res.pu.values):
        assert res.pu.values[x] == pu.values[x]
    _, anchor_of = _nearest_anchor(u.chain, frozenset(range(5)))
    assert anchor_of[3] == 3 and anchor_of[6] == 4


def test_retract_moves_mass_onto_anchor_carrier():
    line = gen_line(6)
    u = line.space.gauge
    v = Cover.of([[0, 1, 2, 3], [2, 3, 4, 5]], 6)
    pu = barycentric_map(u, v)
    res = skeletal_retract(pu, {2}, 2, u, F(1, 100), 1)
    anchor_carrier = pu.values[2].carrier
    for x in sorted(res.pu.values):
        assert res.pu.values[x].carrier <= anchor_carrier
        assert res.pu.values[x].carrier <= pu.values[x].carrier | anchor_carrier


def test_retract_genuinely_moves_offcarrier_mass():
    line = gen_line(12)
    u = line.space.gauge
    pu = barycentric_map(u, line.staggered(2))
    res = skeletal_retract(pu, {0}, 3, u, F(1, 49), 1)
    anchor_carrier = pu.values[0].carrier
    moved = [x for x in sorted(res.pu.values)
             if res.pu.values[x] != pu.values[x]]
    assert moved  # some value really changed
    for x in moved:
        gx = res.pu.values[x]
        assert gx.carrier <= anchor_carrier
        assert gx.carrier <= pu.values[x].carrier | anchor_carrier
        assert res.max_shift >= l1_distance(gx, pu.values[x]) > 0
    assert res.max_shift == max(l1_distance(res.pu.values[x], pu.values[x]) for x in moved)


def test_retract_target_is_the_anchor_vertex_of_largest_weight():
    u = gen_line(3).space.gauge
    moving = BarycentricPoint({0: F(1, 2), 1: F(1, 4), 2: F(1, 4)})
    for anchor, kept in (({0: F(1, 4), 1: F(3, 4)}, {0: F(1, 2), 1: F(1, 2)}),
                         ({0: F(1, 2), 1: F(1, 2)}, {0: F(3, 4), 1: F(1, 4)})):  # tie: least id
        pu = PartitionOfUnity({0: BarycentricPoint(anchor), 1: moving, 2: moving}, 3, (0, 1, 2))
        res = skeletal_retract(pu, {0}, 1, u, F(1, 100), 1)
        assert res.pu.values[1].weights == kept
        assert res.max_shift == F(1, 2)


def test_retract_refuses_a_cover_over_other_points():
    # the result has a value at every point of f, so the chain graph must be over them
    pu = barycentric_map(gen_line(10).space.gauge, Cover.of([range(10)], 10))
    for size in (8, 12):
        with pytest.raises(InputError, match=f"^PartitionOfUnity of 10 points and Cover of {size} "
                                             "points are over different point sets$"):
            skeletal_retract(pu, range(3), 1, gen_line(size).space.gauge, F(1, 100), 1)


def test_retract_refuses_an_empty_anchor_subset():
    pu = barycentric_map(gen_line(6).space.gauge, Cover.of([range(6)], 6))
    with pytest.raises(InputError, match="^the anchor subset must be nonempty$"):
        skeletal_retract(pu, set(), 1, gen_line(6).space.gauge, F(1, 100), 0)


def test_retract_requires_small_shift_budget():
    line = gen_line(10)
    u = line.space.gauge
    whole = Cover.of([range(10)], 10)
    pu = barycentric_map(u, whole)
    with pytest.raises(PreconditionError):
        skeletal_retract(pu, range(3), 4, u, F(1, 10), 1)


# --- filler -----------------------------------------------------------------------------

def _line_filler_instance(n_points, eps, n):
    line = gen_line(n_points)
    space = line.space
    params = choose_filler_params(eps, n)
    coarse = line.staggered(2 * params.k + 1)
    blocks = line.blocks((n_points + 1) // 2)
    base = build_skeleton_pu(space, coarse, blocks, 1, n, n_points - 1)
    return line, space, params, coarse, base


def test_filler_rejects_full_subset():
    line, space, params, coarse, base = _line_filler_instance(600, 1, 1)
    with pytest.raises(InputError):
        filler(space, base.pu, range(600), space.gauge, coarse, params, 599)


def test_filler_constant_input_stays_certified():
    line, space, params, coarse, base = _line_filler_instance(600, 1, 1)
    result = filler(space, base.pu, range(200), space.gauge, coarse, params, 599)
    assert result.certificate.ok
    assert result.budget_ok
    assert result.max_deviation_on_anchors == 0
    assert result.max_carrier_size <= 2 * (params.n + 1)
    assert result.measured_variation < min(params.eps, F(1, params.n + 1))


def test_filler_min_peak_weight_is_the_least_largest_weight():
    line, space, params, coarse, base = _line_filler_instance(600, 1, 1)
    result = filler(space, base.pu, range(200), space.gauge, coarse, params, 599)
    peaks = [max(bp.weights.values()) for bp in result.pu.values.values()]
    assert type(result.min_peak_weight) is Fraction
    assert result.min_peak_weight == min(peaks) < 1


def test_filler_constant_vertex_input_gives_constant_output():
    line, space, params, coarse, base = _line_filler_instance(600, 1, 1)
    from coarsedim import BarycentricPoint, PartitionOfUnity

    values = {x: BarycentricPoint.vertex(0) for x in range(600)}
    const = PartitionOfUnity(values, 600, (0, 1), base.pu.complex)
    result = filler(space, const, range(200), space.gauge, coarse, params, 599)
    assert result.certificate.ok
    assert result.measured_variation == 0
    assert all(bp.weights == {0: Fraction(1)} for bp in result.pu.values.values())


def test_filler_gates_on_input_certificate():
    line, space, params, coarse, base = _line_filler_instance(600, 1, 1)
    # a map varying too fast against the coarse cover is rejected up front
    fast = barycentric_map(space.gauge, line.staggered(5))
    with pytest.raises(PreconditionError):
        filler(space, fast, range(200), space.gauge, coarse, params, 599)


def test_filler_gate_witness_is_the_least_k_fold_star_that_fits_nowhere():
    line, space, params, coarse, base = _line_filler_instance(600, 1, 1)
    # element t's star is t-257..t+258: inside range(400) up to t = 141, in range(100, 600) from 357
    narrow = Cover.of([range(400), range(100, 600)], 600)
    const = PartitionOfUnity({x: BarycentricPoint.vertex(0) for x in range(600)}, 600, (0, 1))
    bad = is_refinement(iterated_star(space.gauge, params.k), narrow).counterexample
    assert bad == 142
    with pytest.raises(PreconditionError, match=f"element {bad} fits") as info:
        filler(space, const, range(200), space.gauge, narrow, params, 599)
    assert info.value.witness == bad


def test_filler_relabels_each_nerve_map_value_once(monkeypatch):
    line, space, params, coarse, base = _line_filler_instance(600, 1, 1)
    nerve_maps, relabels = [], []
    build_map, build_point = asdim.barycentric_map, BarycentricPoint._from_ints
    monkeypatch.setattr(asdim, "barycentric_map", lambda *args: nerve_maps.append(
        build_map(*args)) or nerve_maps[-1])

    def from_ints(cls, num, den):
        point = build_point(num, den)
        if sys._getframe(1).f_code is filler.__code__:
            relabels.append(point)
        return point

    monkeypatch.setattr(BarycentricPoint, "_from_ints", classmethod(from_ints))
    result = filler(space, base.pu, range(200), space.gauge, coarse, params, 599)
    (nerve_map,) = nerve_maps
    shared = {id(bp) for bp in nerve_map.values.values()}
    assert len(relabels) == len(shared) < 600
    alpha = blend_alpha(range(200), params.m, space.gauge).values
    # points where the blend takes the nerve map alone hold its relabel itself
    kept = {id(result.pu.values[x]) for x in range(600) if alpha[x] == 0}
    assert kept and kept <= {id(bp) for bp in relabels}


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000), st.booleans(), st.integers(1, 3))
def test_nearest_anchor_and_star_regions_match_references(n, seed, connected, m):
    rng = random.Random(seed)
    cover = random_cover(rng, n, connected=connected)
    region = frozenset(rng.sample(range(n), rng.randrange(1, n)))
    assert _nearest_anchor(cover.chain, region) == nearest_source_all_pairs(cover, region)

    star = region
    for _ in range(m):
        star = star_set_bruteforce(star, cover)
    assert blend_alpha(region, m, cover).star_region == star
    # vertex 0 on the anchors and an even split elsewhere: the retract moves exactly
    # the points of the m-star off the anchors, and equals f everywhere else
    half = BarycentricPoint({0: F(1, 2), 1: F(1, 2)})
    f = PartitionOfUnity({x: BarycentricPoint.vertex(0) if x in region else half
                          for x in range(n)}, n, (0, 1))
    retract = skeletal_retract(f, region, m, cover, F(1, 16 * m), 0)
    assert {x for x in range(n) if retract.pu.values[x] != f.values[x]} == star - region
