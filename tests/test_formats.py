"""Serialization: text formats and tagged JSON documents round-trip losslessly."""

import dataclasses
import random
import re
import tracemalloc
from enum import IntEnum
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import (
    BarycentricPoint,
    Cover,
    ExtNat,
    FiniteMetricSpace,
    INFINITY,
    InputError,
    PartitionOfUnity,
    ball_cover,
    barycentric_map,
    build_skeleton_pu,
    certify_delta_pu,
    certify_pu,
    check_asdim_pair,
    choose_filler_params,
    gen_line,
    gen_random_geometric,
    is_refinement,
    trim_to_cover,
    variation,
)
from coarsedim import formats
from coarsedim.formats import (
    doc_dumps,
    doc_loads,
    dump_cover,
    dump_metric,
    dump_pu,
    dump_space,
    load_cover,
    load_metric,
    load_pu,
    load_space,
    parse_fraction,
)
from coarsedim.generators import random_cover
from oracles import doc_dumps_reference, dump_metric_fractions, dump_pu_fractions

F = Fraction


def test_cover_round_trip():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randrange(2, 12)
        cover = random_cover(rng, n)
        assert load_cover(dump_cover(cover)) == cover


def test_relaxed_cover_round_trip_keeps_flag():
    c = Cover.of([[0, 1], []], 2, allow_empty=True)
    loaded = load_cover(dump_cover(c))
    assert loaded == c and loaded.allow_empty


def test_space_round_trip():
    space = gen_line(25).space
    assert load_space(dump_space(space)) == space


def test_pu_round_trip():
    line = gen_line(12)
    pu = barycentric_map(line.space.gauge, line.staggered(3))
    loaded = load_pu(dump_pu(pu))
    assert loaded == pu  # equality covers values, point count, and vertices


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000),
       st.lists(st.integers(1, 10**15), min_size=1, max_size=5), st.integers(2, 10**12))
def test_dump_pu_matches_fraction_writer_and_loads_back(n, seed, raw, q):
    """Nerve maps, blends at a large denominator q and large raw numerators over their sum."""
    rng = random.Random(seed)
    pu = barycentric_map(random_cover(rng, n), random_cover(rng, n))
    values = dict(pu.values)
    for x in range(n):
        kind = rng.randrange(3)
        if kind == 1:
            other = pu.values[rng.randrange(n)]
            values[x] = values[x].blend(other, F(rng.randrange(1, q), q))
        elif kind == 2:
            verts = rng.sample(pu.vertices, min(len(raw), len(pu.vertices)))
            nums = raw[:len(verts)]
            values[x] = BarycentricPoint._from_ints(dict(zip(verts, nums)), sum(nums))
    f = PartitionOfUnity(values, n, pu.vertices)
    text = dump_pu(f)
    assert text == dump_pu_fractions(f)
    assert load_pu(text) == f


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 6), st.integers(0, 10_000))
def test_metric_round_trip(n, dim, k, seed):
    # each case gives one list of distances several ways: l1 distances of int
    # points as ints and as Fractions; the same over k as Fractions and with
    # the whole ones as ints; a line, built by line() and from Fractions
    rng = random.Random(seed)
    coords = [tuple(rng.randrange(-6, 7) for _ in range(dim)) for _ in range(n)]
    ints = [[sum(abs(a - b) for a, b in zip(p, q)) for q in coords] for p in coords]
    over_k = [[F(d, k) for d in row] for row in ints]
    line = [[abs(i - j) for j in range(n)] for i in range(n)]
    cases = [
        (ints, [FiniteMetricSpace(n, ints), FiniteMetricSpace(n, [list(map(F, r)) for r in ints])]),
        (over_k, [FiniteMetricSpace(n, over_k),
                  FiniteMetricSpace(n, [[int(d) if d.denominator == 1 else d for d in row]
                                        for row in over_k])]),
        (line, [FiniteMetricSpace.line(n), FiniteMetricSpace(n, [list(map(F, r)) for r in line])]),
    ]
    for rows, spaces in cases:
        for m in spaces + [load_metric(dump_metric(spaces[0]))]:
            assert m == spaces[0] and hash(m) == hash(spaces[0])
            assert m._scaled[0] == lcm(*(F(d).denominator for row in rows for d in row))
            assert [m.d(x, y) for x in range(n) for y in range(n)] == [
                F(d) for row in rows for d in row]
            s = rng.sample(range(n), rng.randrange(n + 1))
            assert m.set_diameter(s) == max((F(rows[x][y]) for x in s for y in s), default=0)
            text = dump_metric(m)
            assert "dist" not in m.__dict__  # none of the reads above builds it
            assert text == dump_metric_fractions(m)
            assert m.dist == tuple(tuple(map(F, row)) for row in rows)
            assert all(type(d) is F for row in m.dist for d in row)
    geometric = gen_random_geometric(n, F(1, 4), seed).metric
    assert load_metric(dump_metric(geometric)) == geometric
    assert dump_metric(geometric) == dump_metric_fractions(geometric)


def test_metric_loader_checks_its_lines_before_building_rows():
    # a file that declares many points and gives no pairs fails without the n x n rows
    for points in (2000, 100_000):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"^no distance line for the pair \(0, 1\)$"):
                load_metric(f"metric-space\npoints {points}\nend\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    with pytest.raises(InputError, match=r"^no distance line for the pair \(0, 2\)$"):
        load_metric("metric-space\npoints 3\ndistance 1 1 0 1\ndistance 1 0 1 1\n"
                    "distance 2 1 1 1\nend\n")


@pytest.mark.parametrize("n", [150, 151])
def test_metric_files_over_the_limit_load_without_the_triangle_check(n):
    # d(0, n-1) = 3n breaks the triangle inequality through every other point
    lines = [f"distance {i} {j} {3 * n if (i, j) == (0, n - 1) else j - i} 1"
             for i in range(n) for j in range(i + 1, n)]
    text = f"metric-space\npoints {n}\n" + "\n".join(lines) + "\nend\n"
    if n <= formats.TRIANGLE_CHECK_LIMIT:
        with pytest.raises(InputError, match=rf"^triangle inequality fails on \(0, {n - 1}, 1\)$"):
            load_metric(text)
    else:
        metric = load_metric(text)
        assert metric.d(n - 1, 0) == 3 * n
        with pytest.raises(InputError, match="^triangle inequality fails"):
            FiniteMetricSpace(n, metric.dist)  # the constructor always checks by default


def test_dump_is_byte_stable():
    line = gen_line(30)
    pu = barycentric_map(line.space.gauge, line.staggered(4))
    assert dump_pu(pu) == dump_pu(pu)
    cert = certify_pu(pu, line.space.gauge, line.space, F(1), 29)
    assert doc_dumps(cert) == doc_dumps(cert)


def test_doc_round_trip_with_tagged_scalars():
    doc = {
        "name": "example",
        "bound": F(22, 7),
        "diameter": INFINITY,
        "count": ExtNat(3),
        "items": [F(1, 2), 5, "text", None, True],
        "nested": {"a": F(-3, 4)},
    }
    again = doc_loads(doc_dumps(doc))
    assert again["bound"] == F(22, 7)
    assert again["diameter"] == INFINITY
    assert again["count"] == ExtNat(3)
    assert again["items"] == [F(1, 2), 5, "text", None, True]
    assert again["nested"]["a"] == F(-3, 4)


def test_certificate_document_round_trip():
    line = gen_line(40)
    pu = barycentric_map(line.space.gauge, line.staggered(6))
    cert = certify_pu(pu, line.space.gauge, line.space, F(1, 2), 39)
    text = doc_dumps(cert)
    doc = doc_loads(text)
    assert doc["variation_value"] == cert.variation_value
    assert doc["ok"] == cert.ok
    assert doc_dumps(doc) == text  # second pass is byte-identical


def test_floats_are_refused():
    for dumps in (doc_dumps, doc_dumps_reference):
        with pytest.raises(InputError, match="^refusing to serialize a float; use Fraction$"):
            dumps({"x": 0.5})


class Level(IntEnum):
    LOW = 1
    HIGH = 2**70


@dataclasses.dataclass
class Holder:
    value: object
    name: str = "holder"


SKELETON_LINE = gen_line(24)
SKELETON = build_skeleton_pu(SKELETON_LINE.space, SKELETON_LINE.space.gauge,
                             SKELETON_LINE.blocks(6), 1, 1, 23)


def _library_dataclasses() -> list:
    """Certificates and results of the library on small instances, each a dataclass."""
    line = gen_line(16)
    gauge, space = line.space.gauge, line.space
    pu = barycentric_map(gauge, line.staggered(3))
    metric = FiniteMetricSpace.line(12)
    ball_map = barycentric_map(gen_line(12).space.gauge, ball_cover(metric, 3))
    return [
        certify_pu(pu, gauge, space, F(1, 2), 15),
        certify_pu(pu, gauge, space, None, 2),
        variation(pu, gauge),
        check_asdim_pair(line.staggered(3), line.blocks(4), 1),
        is_refinement(gauge, line.staggered(3)),
        is_refinement(line.staggered(3), gauge),
        choose_filler_params(F(1, 3), 1),
        SKELETON.certificate,
        SKELETON.precondition,
        trim_to_cover(SKELETON.pu, SKELETON_LINE.space.gauge, 1).certificate,
        certify_delta_pu(ball_map, metric, F(1), 20),
        certify_delta_pu(ball_map, metric, F(1, 2), 1),
        line.staggered(3),
        space,
    ]


LIBRARY_DATACLASSES = _library_dataclasses()
BAD_VALUES = [0.5, float("inf"), complex(1, 2), object(), LIBRARY_DATACLASSES[0].__class__,
              PartitionOfUnity, SKELETON]  # the skeleton result holds its map

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40),
    st.sampled_from(list(Level)), st.text(), st.text(st.characters(max_codepoint=0x2030)),
    st.fractions(), st.builds(ExtNat, st.integers(0, 10**30)), st.just(INFINITY),
    st.sampled_from(LIBRARY_DATACLASSES),
)
hashables = st.one_of(st.integers(), st.fractions(), st.text(max_size=4))
keys = st.one_of(st.integers(-20, 20), st.text(max_size=6), st.sampled_from(list(Level)))


def _documents(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=6).map(tuple),
        st.sets(st.integers(), max_size=6),
        st.frozensets(st.fractions(), max_size=4),
        st.sets(st.text(max_size=3), max_size=4),
        st.dictionaries(keys, inner, max_size=5),
        st.builds(Holder, inner, st.text(max_size=3)),
    ), max_leaves=30)


def _same_output(doc):
    try:
        expected = doc_dumps_reference(doc)
    except InputError as e:
        with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
            doc_dumps(doc)
    else:
        assert doc_dumps(doc) == expected


@settings(max_examples=300, deadline=None)
@given(_documents(scalars))
def test_doc_dumps_matches_json_dumps_of_the_tagged_copy(doc):
    assert doc_dumps(doc) == doc_dumps_reference(doc)


@settings(max_examples=300, deadline=None)
@given(_documents(st.one_of(scalars, st.sampled_from(BAD_VALUES))))
def test_doc_dumps_refuses_what_the_reference_refuses(doc):
    # with several bad values in one document, the first one found in key
    # insertion and field order is the one named, as in the reference
    _same_output(doc)


@pytest.mark.parametrize("bad, message", [
    pytest.param(0.25, "refusing to serialize a float; use Fraction", id="float"),
    pytest.param(object(), "cannot serialize value of type object", id="object"),
    pytest.param(PartitionOfUnity, "cannot serialize value of type type", id="class"),
])
@pytest.mark.parametrize("where", [
    pytest.param(lambda v: v, id="top-level"),
    pytest.param(lambda v: [1, F(1, 2), v], id="in-a-list"),
    pytest.param(lambda v: {"a": 1, "b": {"c": v}}, id="dict-value"),
    pytest.param(lambda v: Holder(v), id="dataclass-field"),
    pytest.param(lambda v: (Holder([v]), 2.5), id="before-a-later-float"),
])
def test_doc_dumps_refusal_at_any_depth(bad, message, where):
    for dumps in (doc_dumps, doc_dumps_reference):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            dumps(where(bad))


def test_doc_dumps_names_the_first_bad_value_in_insertion_order():
    doc = {"b": 0.5, "a": object()}  # "a" goes out first, but "b" was found first
    assert "float" in _message(doc) and _message(doc) == _message(doc, doc_dumps_reference)
    # the map is a dataclass too; its points are not
    assert (_message(SKELETON) == _message(SKELETON, doc_dumps_reference)
            == "cannot serialize value of type BarycentricPoint")


def _message(doc, dumps=doc_dumps) -> str:
    with pytest.raises(InputError) as info:
        dumps(doc)
    return str(info.value)


def test_parse_fraction_forms():
    assert parse_fraction("8/5") == F(8, 5)
    assert parse_fraction("3") == 3
    assert parse_fraction("inf") is None


def test_loaders_reject_wrong_headers():
    with pytest.raises(InputError):
        load_cover("coarse-space\npoints 2\nend\n")
    with pytest.raises(InputError):
        load_space("cover\npoints 2\nelement 0 : 0 1\nend\n")


DUPLICATE_VALUE_PU = ("partition-of-unity\npoints 2\nvertices 0 1\n"
                      "value 0 0 1 2\nvalue 0 0 1 2\nvalue 0 1 1 2\n"
                      "value 1 1 1 1\nend\n")


def test_load_pu_rejects_duplicate_value_line():
    with pytest.raises(InputError, match="'value 0 0 1 2'"):
        load_pu(DUPLICATE_VALUE_PU)


def test_load_pu_rejects_a_point_without_value_lines():
    # a map is total: the least point with no value line is named at load time
    text = ("partition-of-unity\npoints 4\nvertices 0 1\n"
            "value 0 0 1 1\nvalue 2 1 1 1\nend\n")
    with pytest.raises(InputError, match="^no value assigned to point 1$"):
        load_pu(text)


@pytest.mark.parametrize("values, message", [
    pytest.param("value 0 0 1 2\nvalue 0 1 1 0\n", "zero denominator in 'value 0 1 1 0'",
                 id="zero-denominator"),
    pytest.param("value 0 0 6 4\nvalue 0 1 2 -4\nvalue 0 2 -3 6\n",
                 "negative weight -1/2 at vertex 1", id="first-negative-reduced"),
    pytest.param("value 0 0 -4 -6\nvalue 0 1 2 4\n", "weights sum to 7/6, need exactly 1",
                 id="bad-sum"),
    pytest.param("value 0 0 0 -3\nvalue 0 1 0 5\n", "weights sum to 0, need exactly 1",
                 id="all-zero"),
])
def test_load_pu_weight_messages(values, message):
    text = "partition-of-unity\npoints 1\nvertices 0 1 2\n" + values + "end\n"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load_pu(text)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(-3, 9), st.sampled_from([1, 2, 3, -4, 6, 9])),
                         min_size=1, max_size=3), min_size=1, max_size=3))
def test_load_pu_matches_points_built_from_fractions(rows):
    # each weight is read as ints over the lcm of the reduced denominators; the
    # points and the messages are those of the Fraction constructor
    lines = [f"value {x} {v} {num} {den}" for x, row in enumerate(rows)
             for v, (num, den) in enumerate(row)]
    text = (f"partition-of-unity\npoints {len(rows)}\nvertices 0 1 2\n"
            + "\n".join(lines) + "\nend\n")
    try:
        expected = {x: BarycentricPoint({v: F(num, den) for v, (num, den) in enumerate(row)})
                    for x, row in enumerate(rows)}
    except InputError as e:
        with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
            load_pu(text)
    else:
        loaded = load_pu(text)
        assert loaded.values == expected
        assert all((bp.num, bp.den) == (expected[x].num, expected[x].den)
                   for x, bp in loaded.values.items())


LOADER_FILES = [
    pytest.param(load_cover, "cover\npoints 2\nelement 0 : 0 1\nend\n", id="cover"),
    pytest.param(load_space, "coarse-space\npoints 2\ngauge 0 : 0 1\nend\n", id="space"),
    pytest.param(load_pu, "partition-of-unity\npoints 1\nvertices 0\nvalue 0 0 1 1\nend\n",
                 id="pu"),
    pytest.param(load_metric, "metric-space\npoints 2\ndistance 0 1 1 1\nend\n", id="metric"),
]


@pytest.mark.parametrize("char", ["\u3000", "\u00a0", "\u0085", "\u2028", "\x0c", "\x1c"])
@pytest.mark.parametrize("load, text", LOADER_FILES)
def test_loaders_refuse_non_ascii_and_separator_characters(load, text, char):
    # split() and splitlines() would read each of these as a space or a line break
    body = text.split("\n")[-3]
    bad = body[::-1].replace(" ", char[::-1], 1)[::-1]  # the last space of the body line
    for line, changed in ((bad, text.replace(body, bad)),
                          ("end " + char, text.replace("end", "end " + char))):
        message = f"non-ASCII or separator character in {line!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load(changed)


@pytest.mark.parametrize("load, text", LOADER_FILES)
def test_loaders_read_tabs_and_crlf(load, text):
    expected = load(text)
    body = text.split("\n")[-3]
    assert load(text.replace(body, body.replace(" ", "\t"))) == expected
    assert load(text.replace("\n", "\r\n")) == expected
