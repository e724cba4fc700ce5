"""Exact rational intervals with per-endpoint closure.

Endpoints are `fractions.Fraction` throughout; nothing in this module (or in
the rest of the package) ever rounds.  Closure is tracked separately for each
endpoint because the parameter partitions we manipulate mix open, closed,
half-open and singleton intervals, and intersection at a boundary point has
to be decided exactly.

The canonical textual form every emitter in the package writes: rationals
render as ``p/q`` (plain ``n`` for integers), intervals as ``[lo,hi]`` /
``[lo,hi)`` / ``(lo,hi]`` / ``(lo,hi)``, singletons as ``[r]``.  Only
rationals are parsed back (`parse_rational`); a JSON atlas stores each
endpoint and closure as separate fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or ``n`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _lo_key(value: Fraction, closed: bool) -> tuple[Fraction, int]:
    # Position of an interval's infimum on the (value, side) scale:
    # (v, 0) includes v itself, (v, 1) starts just after it.
    return (value, 0 if closed else 1)


def _hi_key(value: Fraction, closed: bool) -> tuple[Fraction, int]:
    # Position of the supremum: (v, 0) includes v, (v, -1) ends just before it.
    return (value, 0 if closed else -1)


@dataclass(frozen=True)
class Interval:
    """A non-empty rational interval; equal closed endpoints make a singleton."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        # Fraction(v) on a Fraction still pays the numbers.Rational check.
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        # lo - hi cross-multiplied: a Fraction comparison pays an ABC check
        lo, hi = self.lo, self.hi
        cmp = lo.numerator * hi.denominator - hi.numerator * lo.denominator
        if cmp > 0:
            raise ValueError(f"reversed interval: lo={self.lo} > hi={self.hi}")
        if cmp == 0 and not (self.lo_closed and self.hi_closed):
            raise ValueError(
                f"empty interval at {self.lo}: a singleton needs both ends closed"
            )

    @classmethod
    def open(cls, lo, hi) -> "Interval":
        return cls(lo, hi, False, False)

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        """The arithmetic mean of the endpoints (the point itself for a singleton)."""
        return (self.lo + self.hi) / 2

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Set intersection with exact endpoint closure; None if empty."""
        lo_k = max(_lo_key(self.lo, self.lo_closed), _lo_key(other.lo, other.lo_closed))
        hi_k = min(_hi_key(self.hi, self.hi_closed), _hi_key(other.hi, other.hi_closed))
        return make_interval(lo_k[0], lo_k[1] == 0, hi_k[0], hi_k[1] == 0)

    def __str__(self) -> str:
        if self.is_singleton:
            return f"[{self.lo}]"
        lo_br = "[" if self.lo_closed else "("
        hi_br = "]" if self.hi_closed else ")"
        return f"{lo_br}{self.lo},{self.hi}{hi_br}"


def make_interval(lo, lo_closed: bool, hi, hi_closed: bool) -> Optional[Interval]:
    """Interval from raw endpoint data, or None if the set would be empty."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)
