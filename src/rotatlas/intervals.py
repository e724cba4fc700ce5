"""Exact rational intervals with per-endpoint closure.

Endpoints are `fractions.Fraction` throughout; nothing in this module (or in
the rest of the package) ever rounds.  Closure is tracked separately for each
endpoint because the parameter partitions we manipulate mix open, closed,
half-open and singleton intervals, and which interval owns a boundary point
has to be decided exactly.

The canonical textual form every emitter in the package writes: rationals
render as ``p/q`` (plain ``n`` for integers), intervals as ``[lo,hi]`` /
``[lo,hi)`` / ``(lo,hi]`` / ``(lo,hi)``, singletons as ``[r]``.  Only
rationals are parsed back (`parse_rational`); a JSON atlas stores each
endpoint and closure as separate fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or ``n`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


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
        # identity, then numerator and denominator: Fractions are reduced,
        # and Fraction.__eq__ pays a numbers.Rational check
        lo, hi = self.lo, self.hi
        return lo is hi or (lo.numerator == hi.numerator and lo.denominator == hi.denominator)

    def midpoint(self) -> Fraction:
        """The arithmetic mean of the endpoints (the point itself for a singleton)."""
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        if self.is_singleton:
            return f"[{self.lo}]"
        lo_br = "[" if self.lo_closed else "("
        hi_br = "]" if self.hi_closed else ")"
        return f"{lo_br}{self.lo},{self.hi}{hi_br}"
