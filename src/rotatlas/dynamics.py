"""Rotation parameters and the two orbit loops: cycle detection and the march kernel.

The exact map with rotation parameter ``lam = p/q`` sends ``(x, y)`` to
``(y, z)`` where ``z`` is the unique integer with ``0 <= z + lam*y + x < 1``,
i.e. ``z = ceil(-lam*y - x)``.  The one-sided variants realize the pointwise
limits ``lam -> p/q + 0`` and ``lam -> p/q - 0``: they add 1 to the ceiling
exactly on the lattice lines where the tie would flip, namely ``q | y`` with
``y < 0`` (plus side) or ``y > 0`` (minus side).

The boundary specializations are the interesting extremes: ``minus_zero`` at
2 is the always-periodic map whose cycles are cyclic palindromes, and
``plus_zero`` at -2 is the map that fixes the non-negative diagonal and blows
every other orbit up.  For the latter, ``x - y`` never increases along an
orbit, which yields the divergence certificate used by `detect_cycle`.

The step is written out in each of the two loops, `detect_cycle` and
`orbit_interval`, and the word's interval is solved a third time by
`constraints.cycle_bounds`.  The three are kept apart on purpose:

- speed: marching every pair with max(|a0|,|a1|) <= 7 through
  `detect_cycle` + `interval_for_cycle` instead of the fused
  `orbit_interval` took about 36% longer, and through `detect_cycle` +
  `cycle_bounds` about 21% longer (serial, CPython 3.11, 2-vCPU VM);
- independence: `partition.verify_atlas` re-checks the march with its own
  solve, `constraints.cycle_bounds`, and runs no orbit for its certificate,
  so a fault in the march kernel cannot certify itself; `detect_cycle`
  serves verification only as the opt-in probe cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval

DEFAULT_ORBIT_CAP = 10**7

_KINDS = ("exact", "plus_zero", "minus_zero")

LatticePoint = tuple[int, int]
Word = tuple[int, ...]


@dataclass(frozen=True)
class ParamSpec:
    """A rotation parameter: an exact rational, or a one-sided limit at one."""

    kind: str
    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {_KINDS}")
        v = self.value
        if self.kind == "exact" and not (-2 < v < 2):
            raise ValueError(f"exact parameter must lie in (-2,2), got {v}")
        if self.kind == "plus_zero" and not (-2 <= v < 2):
            raise ValueError(f"plus-side parameter must lie in [-2,2), got {v}")
        if self.kind == "minus_zero" and not (-2 < v <= 2):
            raise ValueError(f"minus-side parameter must lie in (-2,2], got {v}")

    @classmethod
    def exact(cls, value) -> "ParamSpec":
        return cls("exact", value)

    @classmethod
    def plus_zero(cls, value) -> "ParamSpec":
        return cls("plus_zero", value)

    @classmethod
    def minus_zero(cls, value) -> "ParamSpec":
        return cls("minus_zero", value)


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of iterating one orbit to first return.

    outcome is "cycle" (word holds one full period starting at the initial
    pair), "cap_exceeded" (no return within the step cap), or "diverged"
    (a certificate proves the orbit unbounded).
    """

    outcome: str
    cycle: Optional[Word]
    steps_used: int
    max_abs: int


def detect_cycle(
    spec: ParamSpec, start: LatticePoint, cap: int = DEFAULT_ORBIT_CAP
) -> OrbitResult:
    """Iterate from ``start`` until the state pair returns to ``start``.

    The map is a bijection, so any periodic orbit is purely periodic and the
    first return yields the minimal period; the returned word is the orbit
    values of one full period starting at ``start``.  ``cap_exceeded`` after
    ``cap`` steps is a result, not an error.  ``diverged`` is reported early
    only under the plus-side map at -2, where a drop of ``x - y`` below zero
    certifies an unbounded orbit (``x - y`` is non-increasing there, and once
    negative the orbit values increase strictly forever).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    x0, y0 = start
    p, q = spec.value.numerator, spec.value.denominator
    plus = spec.kind == "plus_zero"
    minus = spec.kind == "minus_zero"
    tie = plus or minus  # exact orbits never test the tie
    certify_divergence = plus and p == -2 * q

    word: list[int] = []
    append = word.append
    x, y = x0, y0
    for steps in range(cap):
        if certify_divergence and x - y < 0:
            return OrbitResult("diverged", None, steps, _max_abs(word, x, y))
        append(x)
        z = -((p * y + q * x) // q)
        if tie and y % q == 0:
            if plus and y < 0:
                z += 1
            elif minus and y > 0:
                z += 1
        x, y = y, z
        if x == x0 and y == y0:
            return OrbitResult("cycle", tuple(word), steps + 1, _max_abs(word, x, y))
    return OrbitResult("cap_exceeded", None, cap, _max_abs(word, x, y))


def _max_abs(word: list[int], x: int, y: int) -> int:
    # Every orbit value so far is a letter of `word` or one of `(x, y)`.
    return max(abs(x), abs(y), max(word, default=0), -min(word, default=0))


def orbit_interval(
    spec: ParamSpec, start: LatticePoint, cap: int = DEFAULT_ORBIT_CAP
) -> Optional[tuple[Word, Interval, int]]:
    """`detect_cycle` and `constraints.interval_for_cycle` in one orbit pass.

    Each step's ``(x, y, z)`` is one cyclic triple of the word, so the
    interval's bounds are folded, by integer cross-multiplication, while the
    orbit runs.  Returns ``(word, interval, steps_used)``, or None when the
    orbit does not return to ``start`` within ``cap`` steps.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    x0, y0 = start
    p, q = spec.value.numerator, spec.value.denominator
    plus = spec.kind == "plus_zero"
    minus = spec.kind == "minus_zero"
    tie = plus or minus
    # Running bounds as (num, den, strict) with den > 0, starting from the
    # open ambient interval (-2, 2).
    lo_n, lo_d, lo_strict = -2, 1, True
    hi_n, hi_d, hi_strict = 2, 1, True
    word: list[int] = []
    append = word.append
    x, y = x0, y0
    for steps in range(1, cap + 1):
        append(x)
        z = -((p * y + q * x) // q)
        if tie and y % q == 0:
            if plus and y < 0:
                z += 1
            elif minus and y > 0:
                z += 1
        # y == 0 gives z == -x: no bound, and always feasible.
        if y > 0:
            # lam >= (-x - z)/y (weak), lam < (1 - x - z)/y (strict)
            a = -x - z
            if a * lo_d > lo_n * y:
                lo_n, lo_d, lo_strict = a, y, False
            cmp = (a + 1) * hi_d - hi_n * y
            if cmp < 0 or (cmp == 0 and not hi_strict):
                hi_n, hi_d, hi_strict = a + 1, y, True
        elif y < 0:
            # lam <= (x + z)/-y (weak), lam > (x + z - 1)/-y (strict)
            a, d = x + z, -y
            if a * hi_d < hi_n * d:
                hi_n, hi_d, hi_strict = a, d, False
            cmp = (a - 1) * lo_d - lo_n * d
            if cmp > 0 or (cmp == 0 and not lo_strict):
                lo_n, lo_d, lo_strict = a - 1, d, True
        x, y = y, z
        if x == x0 and y == y0:
            ival = Interval(
                Fraction(lo_n, lo_d), Fraction(hi_n, hi_d), not lo_strict, not hi_strict
            )
            return tuple(word), ival, steps
    return None
