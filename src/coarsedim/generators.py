"""Deterministic space and cover generators, plus samplers for property tests.

Every generator is a pure function of its arguments; the random-geometric
model uses a small linear congruential generator with rational outputs so the
same seed reproduces the same space on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .covers import Cover, FiniteCoarseSpace, _check_int, _check_rational
from .errors import InputError
from .metric import FiniteMetricSpace, ball_cover


@dataclass(frozen=True)
class LineInstance:
    """A segment 0..n-1 whose gauge is the adjacent pairs."""

    space: FiniteCoarseSpace

    @property
    def n(self) -> int:
        return self.space.n_points

    def staggered(self, half: int) -> Cover:
        """Intervals of length 2*half at stride ``half`` (multiplicity <= 2).

        Starts run 0, half, 2*half, ... up to the least start whose interval
        reaches the end of the line; the last interval is clipped.  Any window
        of at most half+1 consecutive points fits inside a single interval.
        """
        _check_int(half, 1, "half")
        n = self.n
        if 2 * half >= n:
            return Cover.of([range(n)], n)
        sets = []
        start = 0
        while True:
            end = min(start + 2 * half, n)
            sets.append(range(start, end))
            if start + 2 * half >= n:
                break
            start += half
        return Cover.of(sets, n)

    def blocks(self, length: int) -> Cover:
        """Disjoint intervals of the given length (last one clipped)."""
        _check_int(length, 1, "length")
        n = self.n
        sets = [range(start, min(start + length, n)) for start in range(0, n, length)]
        return Cover.of(sets, n)


def gen_line(n: int) -> LineInstance:
    _check_int(n, 2, "n")
    gauge = Cover.of([{i, i + 1} for i in range(n - 1)], n)
    return LineInstance(FiniteCoarseSpace(n, gauge))


@dataclass(frozen=True)
class GridInstance:
    """A width x height grid whose gauge is the unit-neighbor pairs."""

    space: FiniteCoarseSpace
    width: int
    height: int

    def bricks(self, brick: int) -> Cover:
        """Brick partition with alternate rows offset by half a brick."""
        _check_int(brick, 1, "brick")
        width, height = self.width, self.height
        sets = []
        for band_start in range(0, height, brick):
            band = range(band_start, min(band_start + brick, height))
            offset = (brick // 2) if (band_start // brick) % 2 else 0
            start = -offset
            while start < width:
                xs = range(max(start, 0), min(start + brick, width))
                if xs:
                    sets.append({y * width + x for y in band for x in xs})
                start += brick
        return Cover.of(sets, width * height)


def gen_grid2d(width: int, height: int) -> GridInstance:
    _check_int(width, 2, "width")
    _check_int(height, 2, "height")
    n = width * height

    def pid(x, y):
        return y * width + x

    sets = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                sets.append({pid(x, y), pid(x + 1, y)})
            if y + 1 < height:
                sets.append({pid(x, y), pid(x, y + 1)})
    gauge = Cover.of(sets, n)
    return GridInstance(FiniteCoarseSpace(n, gauge), width, height)


class Lcg:
    """Linear congruential generator with rational outputs.

    state' = (1103515245 * state + 12345) mod 2^31; fractions are state/2^31.
    Chosen for easy cross-language reproduction, not for statistical quality.
    """

    MULTIPLIER = 1103515245
    INCREMENT = 12345
    MODULUS = 2 ** 31

    def __init__(self, seed: int):
        self.state = seed % self.MODULUS

    def next_int(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) % self.MODULUS
        return self.state

    def next_fraction(self) -> Fraction:
        return Fraction(self.next_int(), self.MODULUS)


@dataclass(frozen=True)
class GeometricInstance:
    space: FiniteCoarseSpace
    metric: FiniteMetricSpace
    coords: tuple[tuple[Fraction, Fraction], ...]


def gen_random_geometric(n: int, radius, seed: int) -> GeometricInstance:
    """n seeded rational points in the unit square with l1 distances.

    The gauge holds one singleton per point plus every pair within the radius,
    so the chain graph is exactly the geometric graph at that radius.
    """
    _check_int(n, 1, "n")
    radius = _check_rational(radius, 0, "radius")
    if type(seed) is not int:  # any int, negative ones too; a bool is not one
        raise InputError(f"seed = {seed!r} is not an int")
    rng = Lcg(seed)
    coords = tuple((rng.next_fraction(), rng.next_fraction()) for _ in range(n))
    metric = FiniteMetricSpace.from_l1_points(coords)
    sets: list[set[int]] = [{i} for i in range(n)]
    for i, ball in enumerate(ball_cover(metric, radius).sets):
        sets.extend({i, j} for j in sorted(ball) if j > i)
    space = FiniteCoarseSpace(n, Cover.of(sets, n))
    return GeometricInstance(space, metric, coords)


# ---------------------------------------------------------------------------
# samplers for randomized checks (driven by a caller-supplied random.Random)

def random_cover(rng, n_points: int, max_size: int = 4, connected: bool = False) -> Cover:
    """A random cover; with ``connected`` the chain graph is made connected."""
    for _ in range(200):
        sets = []
        for _ in range(rng.randrange(1, n_points + 4)):
            size = rng.randrange(1, min(max_size, n_points) + 1)
            sets.append(frozenset(rng.sample(range(n_points), size)))
        covered = set().union(*sets) if sets else set()
        for x in range(n_points):
            if x not in covered:
                sets.append(frozenset((x,)))
        cover = Cover(tuple(sets), n_points)
        if not connected or cover.chain.is_connected():
            return cover
    # deterministic fallback: thread a path through the space
    sets = list(cover.sets) + [frozenset((i, i + 1)) for i in range(n_points - 1)]
    return Cover(tuple(sets), n_points)


def random_refinement_pair(rng, n_points: int) -> tuple[Cover, Cover]:
    """A cover together with a random coarsening of it."""
    fine = random_cover(rng, n_points)
    groups = rng.randrange(1, len(fine.sets) + 1)
    assignment = [rng.randrange(groups) for _ in fine.sets]
    merged: dict[int, set[int]] = {}
    for t, g in enumerate(assignment):
        merged.setdefault(g, set()).update(fine.sets[t])
    coarse_sets = []
    for g in sorted(merged):
        s = set(merged[g])
        for _ in range(rng.randrange(0, 3)):
            s.add(rng.randrange(n_points))
        coarse_sets.append(frozenset(s))
    return fine, Cover(tuple(coarse_sets), n_points)

