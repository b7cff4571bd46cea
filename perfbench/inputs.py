"""Seeded input generator: natural instances, relabelled, written as text.

Seed 0 keeps the natural point labels.  Seed s relabels the points of every
space, cover and metric of a workload with one permutation drawn from
``random.Random(s)``; cover index order is kept.  Relabelling leaves every
certificate value unchanged and only moves tie-breaks, so a held-out seed
runs the same work under different labels.

The files use the library's text formats and are read back with
``formats.load_*``.  A subset of points (the filler's anchors) is written as
element 0 of a two-element partition cover, since the formats have no subset
file.
"""

from __future__ import annotations

import random
from pathlib import Path

from coarsedim import formats, generators
from coarsedim.asdim import choose_filler_params
from coarsedim.covers import Cover, FiniteCoarseSpace
from coarsedim.metric import FiniteMetricSpace

# Instance sizes.  "full" is what the benchmark measures: each criterion of
# the acceptance suite scaled down so that one pass takes at most about 3 s
# and a run of 20 s holds several passes (README.md says how).  "tiny" is for
# the benchmark's own tests.
SIZES = {
    "full": {
        "sweep": {"n": 640, "k_max": 20},
        "filler": {"n": 1201, "anchors": 400},
        "roundtrip2d": {"width": 32, "height": 32, "brick": 20},
        "bridge": {"n": 32, "radius": 8},
    },
    "tiny": {
        "sweep": {"n": 96, "k_max": 3},
        "filler": {"n": 60, "anchors": 20},
        "roundtrip2d": {"width": 12, "height": 12, "brick": 12},
        "bridge": {"n": 20, "radius": 8},
    },
}


def permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def _relabel_cover(cover: Cover, perm: list[int]) -> Cover:
    return Cover(tuple(frozenset(perm[x] for x in s) for s in cover.sets),
                 cover.n_points, cover.allow_empty)


def _relabel_space(space: FiniteCoarseSpace, perm: list[int]) -> FiniteCoarseSpace:
    return FiniteCoarseSpace(space.n_points, _relabel_cover(space.gauge, perm))


def _relabel_metric(metric: FiniteMetricSpace, perm: list[int]) -> FiniteMetricSpace:
    n = metric.n_points
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = metric.dist[i][j]
    return FiniteMetricSpace(n, rows, check_triangle=False)


def _subset_cover(points, n: int) -> Cover:
    inside = frozenset(points)
    return Cover((inside, frozenset(range(n)) - inside), n)


def natural_files(workload: str, size: dict) -> dict[str, object]:
    """The workload's inputs under natural labels, keyed by file name."""
    if workload == "sweep":
        line = generators.gen_line(size["n"])
        files = {"space.txt": line.space}
        for k in range(1, size["k_max"] + 1):
            files[f"witness{k}.cover.txt"] = line.staggered(2 * k + 1).normalize()
        return files
    if workload == "filler":
        n = size["n"]
        line = generators.gen_line(n)
        params = choose_filler_params(1, 1)
        return {
            "space.txt": line.space,
            "coarse.cover.txt": line.staggered(2 * params.k + 1),
            "blocks.cover.txt": line.blocks((n + 1) // 2),
            "anchors.cover.txt": _subset_cover(range(size["anchors"]), n),
        }
    if workload == "roundtrip2d":
        grid = generators.gen_grid2d(size["width"], size["height"])
        return {"space.txt": grid.space, "witness.cover.txt": grid.bricks(size["brick"])}
    if workload == "bridge":
        n = size["n"]
        return {"space.txt": generators.gen_line(n).space,
                "metric.txt": FiniteMetricSpace.line(n)}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, size: dict, seed: int, directory: Path) -> None:
    """Write the workload's relabelled inputs into ``directory``."""
    files = natural_files(workload, size)
    n = next(iter(files.values())).n_points
    perm = permutation(n, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        if isinstance(obj, FiniteCoarseSpace):
            text = formats.dump_space(_relabel_space(obj, perm))
        elif isinstance(obj, Cover):
            text = formats.dump_cover(_relabel_cover(obj, perm))
        else:
            text = formats.dump_metric(_relabel_metric(obj, perm))
        (directory / name).write_text(text)
