"""Serialization: line-oriented text files for spaces, covers, maps, and
metric spaces; tagged JSON documents for certificates.

Rationals are always written as explicit numerator/denominator pairs and
infinity is spelled out, so every file round-trips losslessly and two runs on
the same inputs produce byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction
from math import gcd, lcm

from .covers import Cover, FiniteCoarseSpace
from .errors import InputError
from .extnat import ExtNat
from .metric import FiniteMetricSpace
from .pou import BarycentricPoint, PartitionOfUnity

FRACTION_TAG = "frac"
EXTNAT_TAG = "extnat"
TRIANGLE_CHECK_LIMIT = 150  # load_metric checks the triangle inequality up to this many points

_string = json.encoder.encode_basestring_ascii
_INT_ONLY = frozenset({int})
_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x1f"  # ASCII separators of split() and splitlines()


def _write(value, ind: str) -> str:
    """``value`` as ``json.dumps`` writes a tagged document at indent ``ind``.

    A ``Fraction`` and an ``ExtNat`` go out as their tagged blocks, a set is sorted, and
    dict and dataclass items go out in sorted key order. Children are written in the
    order they are found, so the first float or unknown type found is the one refused.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _string(value)
    inner = ind + " "
    if isinstance(value, Fraction):
        return (f'{{\n{inner}"{FRACTION_TAG}": [\n{inner} {value.numerator},\n'
                f'{inner} {value.denominator}\n{inner}]\n{ind}}}')
    if isinstance(value, ExtNat):
        raw = value.value if value.is_finite else '"inf"'
        return f'{{\n{inner}"{EXTNAT_TAG}": {raw}\n{ind}}}'
    if isinstance(value, (list, tuple, set, frozenset)):
        if not value:
            return "[]"
        if not isinstance(value, (list, tuple)):
            value = sorted(value)
        if _INT_ONLY.issuperset(map(type, value)):
            parts = map(int.__repr__, value)
        else:
            parts = [_write(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{ind}]"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = {f.name: _write(getattr(value, f.name), inner) for f in dataclasses.fields(value)}
    elif isinstance(value, dict):
        items = {str(k): _write(v, inner) for k, v in value.items()}
    elif isinstance(value, float):
        raise InputError("refusing to serialize a float; use Fraction")
    else:
        raise InputError(f"cannot serialize value of type {type(value).__name__}")
    if not items:
        return "{}"
    return (f"{{\n{inner}" + f",\n{inner}".join(f"{_string(k)}: {items[k]}" for k in sorted(items))
            + f"\n{ind}}}")


def decode(value):
    if isinstance(value, dict):
        if set(value) == {FRACTION_TAG}:
            num, den = value[FRACTION_TAG]
            return Fraction(num, den)
        if set(value) == {EXTNAT_TAG}:
            raw = value[EXTNAT_TAG]
            return ExtNat(None) if raw == "inf" else ExtNat(raw)
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


def doc_dumps(doc) -> str:
    """The document's bytes: sorted keys, one-space indent, tagged rationals, a final newline."""
    return _write(doc, "") + "\n"


def doc_loads(text: str):
    return decode(json.loads(text))


def parse_fraction(text: str) -> Fraction | None:
    """Parse 'p/q', an integer, or 'inf' (None); p, q and the integer are ``_ints`` tokens."""
    text = text.strip()
    if text == "inf":
        return None
    parts = _ints(text.split("/", 1), text)
    return _fraction(*parts, text) if len(parts) == 2 else Fraction(parts[0])


# ---------------------------------------------------------------------------
# line-oriented text formats

def _ids(points) -> str:
    return " ".join(str(x) for x in sorted(points))


def dump_cover(cover: Cover) -> str:
    lines = ["cover relaxed" if cover.allow_empty else "cover",
             f"points {cover.n_points}"]
    for i, s in enumerate(cover.sets):
        lines.append(f"element {i} : {_ids(s)}".rstrip())
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_cover(text: str) -> Cover:
    head, n, body = _read(text, ("cover", "cover relaxed"), 2)
    sets = [_parse_element(ln, "element", i, n) for i, ln in enumerate(body)]
    return Cover(tuple(sets), n, head[0] == "cover relaxed")


def dump_space(space: FiniteCoarseSpace) -> str:
    lines = ["coarse-space", f"points {space.n_points}"]
    for i, s in enumerate(space.gauge.sets):
        lines.append(f"gauge {i} : {_ids(s)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_space(text: str) -> FiniteCoarseSpace:
    _, n, body = _read(text, ("coarse-space",), 2)
    sets = [_parse_element(ln, "gauge", i, n) for i, ln in enumerate(body)]
    return FiniteCoarseSpace(n, Cover(tuple(sets), n))


def dump_pu(f: PartitionOfUnity) -> str:
    lines = ["partition-of-unity", f"points {f.n_points}",
             "vertices " + " ".join(str(v) for v in f.vertices)]
    for x in range(f.n_points):
        bp = f.values[x]
        den = bp.den
        for v, n in sorted(bp.num.items()):
            g = gcd(n, den)  # the reduction Fraction(n, den) would make
            lines.append(f"value {x} {v} {n // g} {den // g}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_pu(text: str) -> PartitionOfUnity:
    head, n, body = _read(text, ("partition-of-unity",), 3)
    tok = head[2].split()
    if tok[0] != "vertices":
        raise InputError(f"missing vertices line, got {head[2]!r}")
    vertices = tuple(_ints(tok[1:], head[2]))
    known = set(vertices)
    if len(known) != len(vertices):
        raise InputError(f"repeated vertex id in {head[2]!r}")
    weights: dict[int, dict[int, tuple[int, int]]] = {}  # each weight as (num, den)
    for ln in body:
        tok = ln.split()
        if len(tok) != 5 or tok[0] != "value":
            raise InputError(f"bad value line: {ln!r}")
        x, v, num, den = _ints(tok[1:], ln)
        if not 0 <= x < n or v not in known:
            raise InputError(f"unknown point or vertex in {ln!r}")
        row = weights.setdefault(x, {})
        if v in row:
            raise InputError(f"duplicate value line for point {x}, vertex {v}: {ln!r}")
        if den == 0:
            raise InputError(f"zero denominator in {ln!r}")
        row[v] = (num, den)
    values = {}
    for x, row in weights.items():
        # the lcm is positive, so den // q carries the sign of q; _from_ints reduces the point
        den = lcm(*(q for _, q in row.values()))
        values[x] = BarycentricPoint._from_ints({v: p * (den // q) for v, (p, q) in row.items()},
                                                den)
    return PartitionOfUnity(values, n, vertices)


def dump_metric(metric: FiniteMetricSpace) -> str:
    lines = ["metric-space", f"points {metric.n_points}"]
    for i in range(metric.n_points):
        for j in range(i + 1, metric.n_points):
            d = metric.d(i, j)
            lines.append(f"distance {i} {j} {d.numerator} {d.denominator}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_metric(text: str) -> FiniteMetricSpace:
    """Read a metric file; the triangle check runs up to TRIANGLE_CHECK_LIMIT points.

    Every line is checked, and every pair found, before the n x n rows are built.
    """
    _, n, body = _read(text, ("metric-space",), 2)
    given: dict[tuple[int, int], Fraction] = {}  # by (i, j) with i <= j
    for ln in body:
        tok = ln.split()
        if len(tok) != 5 or tok[0] != "distance":
            raise InputError(f"bad distance line: {ln!r}")
        i, j, num, den = _ints(tok[1:], ln)
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"unknown point in {ln!r}")
        if j < i:
            i, j = j, i
        if (i, j) in given:
            raise InputError(f"second distance line for one pair: {ln!r}")
        given[i, j] = _fraction(num, den, ln)
    if len(given) - sum((i, i) in given for i in range(n)) != n * (n - 1) // 2:
        missing = next((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in given)
        raise InputError(f"no distance line for the pair {missing}")
    zero = Fraction(0)
    rows = [[zero] * n for _ in range(n)]
    for (i, j), d in given.items():
        rows[i][j] = rows[j][i] = d
    return FiniteMetricSpace(n, rows, check_triangle=n <= TRIANGLE_CHECK_LIMIT)


def _read(text: str, kinds: tuple[str, ...], n_header: int) -> tuple[list[str], int, list[str]]:
    """The header lines, the point count and the lines between the header and ``end``.

    The first header line names the file kind and the second is the points line. The
    text must be ASCII without the separators that ``split`` and ``splitlines`` know
    besides space, tab, CR and LF.
    """
    if not text.isascii() or any(c in text for c in _SEPARATORS):
        bad = next(ln for ln in text.split("\n")
                   if not ln.isascii() or any(c in ln for c in _SEPARATORS))
        raise InputError(f"non-ASCII or separator character in {bad!r}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] not in kinds:
        raise InputError(f"not a {kinds[0]} file")
    if len(lines) <= n_header:
        raise InputError(f"file ends inside its header, after {lines[-1]!r}")
    if "end" not in lines[n_header:]:
        raise InputError(f"no end line after {lines[-1]!r}")
    n = _parse_points(lines[1])
    return lines[:n_header], n, lines[n_header:lines.index("end", n_header)]


_int_chars = re.compile(r"[0-9+-]*").fullmatch


def _ints(tokens: list[str], line: str) -> list[int]:
    """The one integer-token rule of text input: an optional sign, then ASCII digits 0-9.
    On digits and signs alone ``int`` refuses just what the rule does, so a line costs
    one regex test."""
    if _int_chars("".join(tokens)):
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    raise InputError(f"non-integer token in {line!r}")


def _fraction(num: int, den: int, line: str) -> Fraction:
    if den == 0:
        raise InputError(f"zero denominator in {line!r}")
    return Fraction(num, den)


def _parse_points(line: str) -> int:
    tok = line.split()
    if len(tok) != 2 or tok[0] != "points":
        raise InputError(f"expected a points line, got {line!r}")
    n = _ints(tok[1:], line)[0]
    if n < 1:
        raise InputError(f"point count below 1 in {line!r}")
    return n


def _parse_element(line: str, keyword: str, expect_index: int, n: int) -> frozenset[int]:
    head, _, tail = line.partition(":")
    tok = head.split()
    if len(tok) != 2 or tok[0] != keyword or _ints(tok[1:], line) != [expect_index]:
        raise InputError(f"bad {keyword} line: {line!r}")
    points = frozenset(_ints(tail.split(), line))
    if points and (min(points) < 0 or max(points) >= n):
        raise InputError(f"unknown point in {line!r}")
    return points
