"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured runtimes.  Every comparison is an exact rational one.
"""

import random
import time
from fractions import Fraction

from coarsedim import (
    BarycentricPoint,
    Cover,
    FiniteMetricSpace,
    PartitionOfUnity,
    ball_cover,
    barycentric_map,
    build_skeleton_pu,
    certify_delta_pu,
    certify_pu,
    chain_index,
    check_asdim_pair,
    choose_filler_params,
    comparison_backward,
    comparison_forward,
    filler,
    gen_grid2d,
    gen_line,
    is_refinement,
    iterated_star,
    quotient_variation_bound,
    scalar_variation,
    shrink_with_multiplicity,
    trim_to_cover,
    variation,
)
from coarsedim.formats import (
    doc_dumps,
    doc_loads,
    dump_cover,
    dump_pu,
    dump_space,
    load_cover,
    load_pu,
    load_space,
)
from coarsedim.generators import random_cover, random_refinement_pair
from coarsedim.oracles import chain_index_by_enumeration, shrink_clause_violation
from oracles import random_fraction

F = Fraction


class Criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.start = time.monotonic()

    def finish(self, ok, detail):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"[criterion {self.number}] {status} {self.label}: "
              f"{detail} ({elapsed:.1f}s < {self.budget}s)")
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed < self.budget, f"criterion {self.number} overran its time budget"


def test_criterion_1_index_oracle_equivalence():
    crit = Criterion(1, "chain index equals exhaustive enumeration", 10)
    rng = random.Random(101)
    instances = 0
    checks = 0
    while instances < 500:
        n = rng.randrange(2, 9)
        cover = random_cover(rng, n, connected=True)
        regions = [frozenset(), frozenset(range(n)),
                   frozenset(x for x in range(n) if rng.random() < 0.6)]
        for region in regions:
            for x in range(n):
                got = chain_index(cover, x, region)
                want = chain_index_by_enumeration(cover, x, region)
                assert got == want, (cover, x, region, got, want)
                checks += 1
        instances += 1
    crit.finish(True, f"{instances} instances, {checks} index comparisons, 0 mismatches")


def test_criterion_2_shrinking_clauses():
    crit = Criterion(2, "shrinking satisfies all four clauses", 30)
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randrange(2, 31)
        fine, coarse = random_refinement_pair(rng, n)
        shrunk = shrink_with_multiplicity(fine, coarse)
        assert shrink_clause_violation(fine, coarse, shrunk) is None, (fine, coarse, shrunk)
    crit.finish(True, "500 refinement pairs, all clauses exact")


def test_criterion_3_quotient_variation_bound():
    crit = Criterion(3, "quotient variation stays within (n+1)/m", 30)
    rng = random.Random(303)
    for _ in range(1000):
        n_pts = rng.randrange(2, 16)
        cover = random_cover(rng, n_pts)
        m = random_fraction(rng, 1, 3)
        q = [m + random_fraction(rng, 0, 3) for _ in range(n_pts)]
        p = [random_fraction(rng, 0, 1) for _ in range(n_pts)]
        n_bound = scalar_variation(q, cover).value
        measured = scalar_variation([pi / qi for pi, qi in zip(p, q)], cover).value
        assert measured <= quotient_variation_bound(m, n_bound)
    crit.finish(True, "1000 sampled triples, bound held exactly")


def test_criterion_4_variation_bound_sweep():
    crit = Criterion(4, "staggered-witness variation obeys 16/k and is nonincreasing", 60)
    line = gen_line(2000)
    gauge = line.space.gauge
    previous = None
    worst_margin = None
    for k in range(1, 65):
        witness = line.staggered(2 * k + 1).normalize()
        assert is_refinement(iterated_star(gauge, k), witness).ok
        assert witness.max_multiplicity() <= 2
        value = variation(barycentric_map(gauge, witness), gauge).value
        bound = F(16, k)
        assert value <= bound, (k, value)
        if previous is not None:
            assert value <= previous, (k, value, previous)
        previous = value
        margin = bound - value
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    crit.finish(True, f"k=1..64, all rows within 16/k, nonincreasing "
                      f"(final variation {previous})")


def test_criterion_5_skeleton_and_trim_round_trip():
    crit = Criterion(5, "witness -> certified map -> trimmed witness on line and grid", 120)
    details = []
    for name, space_inst, witness, k, n, diam in (
        ("line", gen_line(200), None, 10, 1, 120),
        ("grid", gen_grid2d(40, 40), None, 2, 2, 80),
    ):
        space = space_inst.space
        witness = space_inst.blocks(50) if name == "line" else space_inst.bricks(20)
        built = build_skeleton_pu(space, space.gauge, witness, k, n, diam)
        assert built.certificate.ok
        assert built.certificate.eps == F((2 * n + 2) ** 2, k)
        assert built.pu.complex.dimension <= n
        assert built.pu.max_carrier_size() <= n + 1
        wide = certify_pu(built.pu, iterated_star(space.gauge, 2), space, None, diam)
        assert wide.ok
        trimmed = trim_to_cover(built.pu, space.gauge, n)
        assert trimmed.certificate.ok
        assert trimmed.certificate.max_count <= n + 1
        details.append(f"{name}: variation {built.certificate.variation_value}, "
                       f"trim count {trimmed.certificate.max_count}")
    crit.finish(True, "; ".join(details))


def test_criterion_6_filler_budget():
    crit = Criterion(6, "filler certifies at eps within the four-term budget", 300)
    line = gen_line(2001)
    space = line.space
    params = choose_filler_params(1, 1)
    assert (params.m, params.k, params.delta) == (25, 257, F(1, 816))
    coarse = line.staggered(2 * params.k + 1)
    base = build_skeleton_pu(space, coarse, line.blocks(1001), 1, 1, 2000)
    assert base.certificate.ok
    result = filler(space, base.pu, range(667), space.gauge, coarse, params, 2000)
    assert result.certificate.ok
    assert result.certificate.eps == min(params.eps, F(1, 2))
    assert result.measured_variation < min(params.eps, F(1, 2))
    assert result.budget_ok
    assert result.measured_variation <= params.variation_budget()
    assert result.retract.max_shift <= result.retract.shift_bound
    assert result.min_peak_weight >= F(1, params.n + 1)
    at_eps = certify_pu(result.pu, space.gauge, space, params.eps, 2000)
    assert at_eps.ok
    crit.finish(True, f"variation {result.measured_variation} <= budget "
                      f"{result.budget}, deviation on anchors "
                      f"{result.max_deviation_on_anchors}")


def test_criterion_7_scale_bridge_both_directions():
    crit = Criterion(7, "metric and cover certificates convert both ways", 60)
    metric = FiniteMetricSpace.line(100)
    line = gen_line(100)
    gauge = line.space.gauge
    checked = 0
    for delta, fine_maps in (
        (F(1, 2), [barycentric_map(gauge, ball_cover(metric, 32)),
                   _constant_map(100)]),
        (F(1, 4), [barycentric_map(gauge, ball_cover(metric, 120)),
                   _constant_map(100)]),
    ):
        for f in fine_maps:
            gate = certify_delta_pu(f, metric, delta * delta / 4, 99)
            assert gate.ok
            forward = comparison_forward(f, metric, delta, 99)
            assert forward.ok
            backward = comparison_backward(f, metric, delta, 99)
            assert backward.ok and backward.delta == 2 * delta
            checked += 1
    crit.finish(True, f"{checked} certified maps crossed the bridge both ways")


def _constant_map(n):
    return PartitionOfUnity({x: BarycentricPoint.vertex(0) for x in range(n)},
                            n, (0, 1))


def test_criterion_8_exactness_and_round_trip():
    crit = Criterion(8, "exact unit sums and lossless serialization", 10)
    line = gen_line(60)
    space = line.space
    staggered = line.staggered(7)
    pu = barycentric_map(space.gauge, staggered)
    built = build_skeleton_pu(space, space.gauge, line.blocks(20), 3, 1, 59)
    points_checked = 0
    for f in (pu, built.pu):
        for x in range(60):
            assert sum(f.values[x].weights.values()) == 1
            points_checked += 1
    cert = certify_pu(pu, space.gauge, space, F(1), 59)
    for doc_obj in (cert, built.certificate,
                    check_asdim_pair(space.gauge, staggered, 1)):
        text = doc_dumps(doc_obj)
        assert doc_dumps(doc_loads(text)) == text
    assert load_space(dump_space(space)) == space
    assert load_cover(dump_cover(staggered)) == staggered
    assert load_pu(dump_pu(pu)) == pu
    crit.finish(True, f"{points_checked} exact unit sums, documents and files round-trip")


def test_criterion_9_determinism():
    crit = Criterion(9, "repeated runs emit byte-identical documents", 60)
    outputs = []
    for _ in range(2):
        line = gen_line(300)
        space = line.space
        built = build_skeleton_pu(space, space.gauge, line.blocks(60), 5, 1, 299)
        trimmed = trim_to_cover(built.pu, space.gauge, 1)
        params = choose_filler_params(1, 1)
        coarse = line.staggered(2 * params.k + 1)
        base = build_skeleton_pu(space, coarse, line.blocks(150), 1, 1, 299)
        blended = filler(space, base.pu, range(100), space.gauge, coarse, params, 299)
        chunk = "".join([
            dump_space(space),
            dump_pu(built.pu),
            doc_dumps(built.certificate),
            dump_cover(trimmed.cover),
            dump_pu(blended.pu),
            doc_dumps(blended.certificate),
        ])
        outputs.append(chunk)
    assert outputs[0] == outputs[1]
    crit.finish(True, f"two pipeline runs, {len(outputs[0])} bytes identical")
