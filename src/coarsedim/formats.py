"""Serialization: line-oriented text files for spaces, covers, maps, and
metric spaces; tagged JSON documents for certificates.

Rationals are always written as explicit numerator/denominator pairs and
infinity is spelled out, so every file round-trips losslessly and two runs on
the same inputs produce byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

from .covers import Cover, FiniteCoarseSpace
from .errors import InputError
from .extnat import ExtNat
from .metric import FiniteMetricSpace
from .pou import BarycentricPoint, PartitionOfUnity

FRACTION_TAG = "frac"
EXTNAT_TAG = "extnat"


def encode(value):
    """Recursively convert a value into JSON-ready form with tagged rationals."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return {FRACTION_TAG: [value.numerator, value.denominator]}
    if isinstance(value, ExtNat):
        return {EXTNAT_TAG: value.value if value.is_finite else "inf"}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [encode(v) for v in sorted(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, float):
        raise InputError("refusing to serialize a float; use Fraction")
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


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
    return json.dumps(encode(doc), sort_keys=True, indent=1) + "\n"


def doc_loads(text: str):
    return decode(json.loads(text))


def fraction_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction | None:
    """Parse 'p/q', an integer literal, or 'inf' (None)."""
    text = text.strip()
    if text == "inf":
        return None
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] not in ("cover", "cover relaxed"):
        raise InputError("not a cover file")
    allow_empty = lines[0] == "cover relaxed"
    n = _parse_points(lines[1])
    sets = []
    for ln in lines[2:]:
        if ln == "end":
            break
        sets.append(_parse_element(ln, "element", len(sets)))
    return Cover(tuple(sets), n, allow_empty)


def dump_space(space: FiniteCoarseSpace) -> str:
    lines = ["coarse-space", f"points {space.n_points}"]
    for i, s in enumerate(space.gauge.sets):
        lines.append(f"gauge {i} : {_ids(s)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_space(text: str) -> FiniteCoarseSpace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "coarse-space":
        raise InputError("not a coarse-space file")
    n = _parse_points(lines[1])
    sets = []
    for ln in lines[2:]:
        if ln == "end":
            break
        sets.append(_parse_element(ln, "gauge", len(sets)))
    return FiniteCoarseSpace(n, Cover(tuple(sets), n))


def dump_pu(f: PartitionOfUnity) -> str:
    if not f.is_total:
        raise InputError("only total assignments are serialized")
    lines = ["partition-of-unity", f"points {f.n_points}",
             "vertices " + " ".join(str(v) for v in f.vertices)]
    for x in range(f.n_points):
        for v, w in sorted(f.values[x].weights.items()):
            lines.append(f"value {x} {v} {w.numerator} {w.denominator}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_pu(text: str) -> PartitionOfUnity:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "partition-of-unity":
        raise InputError("not a partition-of-unity file")
    n = _parse_points(lines[1])
    if not lines[2].startswith("vertices"):
        raise InputError("missing vertices line")
    vertices = tuple(int(tok) for tok in lines[2].split()[1:])
    weights: dict[int, dict[int, Fraction]] = {}
    for ln in lines[3:]:
        if ln == "end":
            break
        tok = ln.split()
        if len(tok) != 5 or tok[0] != "value":
            raise InputError(f"bad value line: {ln!r}")
        x, v, num, den = (int(t) for t in tok[1:])
        row = weights.setdefault(x, {})
        if v in row:
            raise InputError(f"duplicate value line for point {x}, vertex {v}: {ln!r}")
        row[v] = Fraction(num, den)
    values = {x: BarycentricPoint(w) for x, w in weights.items()}
    return PartitionOfUnity(values, n, vertices)


def dump_metric(metric: FiniteMetricSpace) -> str:
    lines = ["metric-space", f"points {metric.n_points}"]
    for i in range(metric.n_points):
        for j in range(i + 1, metric.n_points):
            d = metric.dist[i][j]
            lines.append(f"distance {i} {j} {d.numerator} {d.denominator}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_metric(text: str) -> FiniteMetricSpace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "metric-space":
        raise InputError("not a metric-space file")
    n = _parse_points(lines[1])
    rows = [[Fraction(0)] * n for _ in range(n)]
    for ln in lines[2:]:
        if ln == "end":
            break
        tok = ln.split()
        if len(tok) != 5 or tok[0] != "distance":
            raise InputError(f"bad distance line: {ln!r}")
        i, j, num, den = (int(t) for t in tok[1:])
        rows[i][j] = rows[j][i] = Fraction(num, den)
    return FiniteMetricSpace(n, rows)


def _parse_points(line: str) -> int:
    tok = line.split()
    if len(tok) != 2 or tok[0] != "points":
        raise InputError(f"expected a points line, got {line!r}")
    return int(tok[1])


def _parse_element(line: str, keyword: str, expect_index: int) -> frozenset[int]:
    head, _, tail = line.partition(":")
    tok = head.split()
    if len(tok) != 2 or tok[0] != keyword or int(tok[1]) != expect_index:
        raise InputError(f"bad {keyword} line: {line!r}")
    return frozenset(int(t) for t in tail.split())
