"""Space and cover generators: shapes, multiplicities, determinism."""

from fractions import Fraction

import pytest

from coarsedim import (
    InputError,
    Lcg,
    check_asdim_pair,
    gen_grid2d,
    gen_line,
    gen_random_geometric,
)

F = Fraction


def test_line_two_points():
    line = gen_line(2)
    assert line.space.gauge.sets == (frozenset({0, 1}),)
    with pytest.raises(InputError):
        gen_line(1)


def test_line_staggered_worked_example():
    line = gen_line(6)
    v = line.staggered(2)
    assert [sorted(s) for s in v.sets] == [[0, 1, 2, 3], [2, 3, 4, 5]]
    assert v.max_multiplicity() == 2


def test_line_staggered_element_count():
    line = gen_line(200)
    v = line.staggered(25)
    assert len(v.sets) == 7
    assert v.max_multiplicity() == 2


def test_line_staggered_last_interval_is_clipped_not_contained():
    # the sweep uses staggered covers as they come, without normalize()
    cases = [(n, half) for n in range(2, 130) for half in range(1, n + 1)]
    cases += [(n, half) for n in (200, 1999) for half in (3, 7, 25)]
    for n, half in cases:
        v = gen_line(n).staggered(half)
        assert v.normalize() == v  # no duplicate or contained elements
        assert v.max_multiplicity() <= 2


def test_line_blocks():
    line = gen_line(200)
    w = line.blocks(50)
    assert len(w.sets) == 4
    assert all(len(s) == 50 for s in w.sets)
    assert w.max_multiplicity() == 1


def test_grid_rejects_degenerate_sides():
    with pytest.raises(InputError):
        gen_grid2d(1, 8)


def test_grid_brick_multiplicity():
    grid = gen_grid2d(4, 4)
    assert grid.bricks(2).max_multiplicity() <= 3


def test_grid_bricks_partition_the_grid():
    grid = gen_grid2d(40, 40)
    bricks = grid.bricks(10)
    assert bricks.max_multiplicity() == 1
    assert sum(len(s) for s in bricks.sets) == 1600


def test_grid_brick_asdim_counts():
    grid = gen_grid2d(40, 40)
    cert = check_asdim_pair(grid.space.gauge, grid.bricks(10), 2)
    assert cert.ok


def test_random_geometric_single_point():
    inst = gen_random_geometric(1, F(1, 4), seed=1)
    assert inst.space.gauge.sets == (frozenset({0}),)


def test_random_geometric_is_deterministic():
    a = gen_random_geometric(40, F(1, 4), seed=9)
    b = gen_random_geometric(40, F(1, 4), seed=9)
    assert a.coords == b.coords
    assert a.space.gauge == b.space.gauge
    assert a.metric == b.metric
    c = gen_random_geometric(40, F(1, 4), seed=10)
    assert c.coords != a.coords


def test_random_geometric_connectivity_at_generous_radius():
    inst = gen_random_geometric(100, F(1, 2), seed=4)
    assert inst.space.chain.is_connected()


def test_random_geometric_seed_is_any_int():
    # a negative seed is the seed it is congruent to; a bool or a float is not a seed
    assert (gen_random_geometric(6, F(1, 2), -3).coords
            == gen_random_geometric(6, F(1, 2), 2 ** 31 - 3).coords)
    for seed in (True, 1.5, "3", None):
        with pytest.raises(InputError) as err:
            gen_random_geometric(6, F(1, 2), seed)
        assert str(err.value) == f"seed = {seed!r} is not an int"


def test_lcg_sequence_is_reproducible():
    a = Lcg(42)
    first = [a.next_int() for _ in range(5)]
    b = Lcg(42)
    assert [b.next_int() for _ in range(5)] == first
    assert all(0 <= Lcg(7).next_fraction() < 1 for _ in range(5))
