"""Machine-speed calibration.

The benchmark's host is shared and its speed drifts. A fast state and a state
about 1.5x slower alternate, for periods from under a second to over a
minute, so one run's median wall time can land 25-45% away from another's.
``calibrate`` times a fixed computation that mixes the library's kinds of
work: ``Fraction`` sums and comparisons, dict lookups, set unions, BFS over
adjacency lists and sorting. It imports nothing from ``coarsedim``, so no
change to the library moves it. The benchmark runs it between passes and
reports times rescaled to a machine on which it takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
from collections import deque
from fractions import Fraction
from time import perf_counter

# The calibration's time on a 2-vCPU cloud VM with CPython 3.11, in its fast state.
REFERENCE_S = 0.1


def _work() -> int:
    total = Fraction(0)
    third = Fraction(1, 3)
    weights = {}
    for i in range(1, 9000):
        w = abs(Fraction(i % 13 + 1, i % 97 + 1) - third)
        weights[i % 211] = weights.get(i % 211, 0) + w
        if w > total:
            total = w
    n = 2000
    adj = [((i + 1) % n, (i * 7) % n, (i + 13) % n) for i in range(n)]
    reached = 0
    for source in range(0, n, 50):
        dist = {source: 0}
        queue = deque([source])
        seen: set[int] = set()
        while queue:
            x = queue.popleft()
            seen |= {x}
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        reached += len(sorted(dist, key=dist.get))
    return reached + len(weights)


def calibrate() -> float:
    """Seconds the fixed calibration computation takes right now.

    The garbage collector is off while it runs, so that a collection of the
    program's heap that falls due here is paid in the program's next step, as
    in a CLI run, and not in the calibration.
    """
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        gc.enable()


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` on a machine where the calibration takes ``REFERENCE_S``.

    ``before`` and ``after`` are the calibrations taken on either side of the
    measured interval.
    """
    return seconds * REFERENCE_S * 2 / (before + after)
