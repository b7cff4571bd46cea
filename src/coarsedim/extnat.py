"""Natural numbers extended with an infinity element."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


@total_ordering
@dataclass(frozen=True, eq=False)
class ExtNat:
    """A value in {0, 1, 2, ...} plus infinity.  ``None`` encodes infinity.

    An ExtNat compares with another and with an int or a Fraction, never a
    bool or a float; infinity is larger than every finite value and is never
    coerced to a number.
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
        if type(other) in (int, Fraction):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(("ExtNat", self.value))

    def __lt__(self, other):
        if isinstance(other, ExtNat):
            other = other.value
        elif type(other) not in (int, Fraction):
            return NotImplemented
        if self.value is None:
            return False
        return other is None or self.value < other

    def __repr__(self):
        return "ExtNat(inf)" if self.value is None else f"ExtNat({self.value})"

    def __str__(self):
        return "inf" if self.value is None else str(self.value)


INFINITY = ExtNat(None)
