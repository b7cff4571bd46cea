"""Natural numbers extended with an infinity element."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True, eq=False)
class ExtNat:
    """A value in {0, 1, 2, ...} plus infinity.  ``None`` encodes infinity.

    Comparisons treat infinity as larger than every finite value.  Infinity
    is never coerced to an int.
    """

    value: int | None = None

    def __post_init__(self):
        if self.value is not None and (type(self.value) is not int or self.value < 0):
            raise ValueError(f"ExtNat takes a nonnegative int or None, got {self.value!r}")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __eq__(self, other):
        if isinstance(other, ExtNat):
            return self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(("ExtNat", self.value))

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.is_finite:
            return False
        if not other.is_finite:
            return True
        return self.value < other.value

    def __repr__(self):
        return "ExtNat(inf)" if self.value is None else f"ExtNat({self.value})"

    def __str__(self):
        return "inf" if self.value is None else str(self.value)


def _coerce(other):
    if isinstance(other, ExtNat):
        return other
    if isinstance(other, int) and not isinstance(other, bool):
        return ExtNat(other)
    return NotImplemented


INFINITY = ExtNat(None)
