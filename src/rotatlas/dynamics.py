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

Every step ``(x, y) -> (y, z)`` has ``x + z = ceil(-lam*y)`` (one more on
the tie lines of the one-sided maps): the sum depends on the middle letter
``y`` alone.  So the step inequalities of a cycle word give one constraint
per distinct letter, and `orbit_bounds` folds the word's bounds once per
letter of ``set(word)`` after the orbit closes, not once per step.

`orbit_bounds` is the march kernel: it runs the exact map or the plus-side
map (the only two the march visits) and returns the cycle word with its
integer bounds; `partition.compute_atlas` builds the intervals.  Words that
`orbit_bounds` returns, and that `report.atlas_from_json` reads, hold one
shared ``int`` object per letter value (`_canonical`, one dict lookup per
letter: a miss stores its key).  Letters below -5 are not among CPython's
cached small ints, so without the sharing every letter of an atlas is an
object of its own, about three times the memory.  A mirrored word is a
slice of its twin, so it shares the objects too.  `detect_cycle` keeps
plain ints: its words are transient.

Because ``x`` is an integer, ``ceil(-lam*y - x) = c(y) - x`` with
``c(y) = -((p*y) // q)``.  Each of the two kernels runs one loop per side:
the exact loop, that bare step with no tie test and no divergence test, is
written once, in `_exact_orbit`, which both kernels call (so the exact
probes run it too); the one-sided loops add 1 on the tie lines and, in
`detect_cycle`, test the divergence certificate.  The loops the march and
the probes run take two steps per pass, ``x = c(y) - x`` and then
``y = c(x) - y``, testing for the start after each: no tuple swap, and
half the loop overhead.  `detect_cycle`'s one-sided loop, which no
workload runs, keeps one step per pass.  The loops call ``word.append``,
which CPython 3.11 specialises, rather than a bound-method local.

The one-sided step is written out in each of the two kernels,
`detect_cycle` and `orbit_bounds`, and the word's bounds are solved a third
time by `constraints.cycle_bounds`.  The three are kept apart on purpose:

- speed: the fused kernel folds the bounds once per distinct letter, where
  marching through `detect_cycle` and a separate solve pays for a second
  pass over the whole word;
- independence: `certificate.certify` re-checks the march with its own
  solve, `constraints.cycle_bounds`, runs no orbit and imports no orbit
  code, so a fault in the march kernel cannot certify itself;
  `detect_cycle` serves verification only as the opt-in probe cross-check
  of `partition.verify_atlas`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .constraints import Bounds, Word

DEFAULT_ORBIT_CAP = 10**7


class _Letters(dict):
    """Letter value -> the one int object of that value; a miss stores its key."""

    def __missing__(self, letter: int) -> int:
        self[letter] = letter
        return letter


# One int object per letter value, shared by every word `_canonical` returns.
_LETTERS = _Letters()

_KINDS = ("exact", "plus_zero", "minus_zero")

LatticePoint = tuple[int, int]


@dataclass(frozen=True)
class ParamSpec:
    """A rotation parameter: an exact rational, or a one-sided limit at one."""

    kind: str
    value: Fraction

    def __post_init__(self) -> None:
        # isinstance against Fraction would go through ABCMeta.__instancecheck__
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {_KINDS}")
        v = self.value
        # v against +-2 as n against +-2d, in integers
        n, two = v.numerator, 2 * v.denominator
        if self.kind == "exact" and not (-two < n < two):
            raise ValueError(f"exact parameter must lie in (-2,2), got {v}")
        if self.kind == "plus_zero" and not (-two <= n < two):
            raise ValueError(f"plus-side parameter must lie in [-2,2), got {v}")
        if self.kind == "minus_zero" and not (-two < n <= two):
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
    (a certificate proves the orbit unbounded).  ``visited`` holds every
    orbit value so far; only `max_abs` reads it, so a caller that never
    asks, such as a verification probe, pays for no scan.
    """

    outcome: str
    cycle: Optional[Word]
    steps_used: int
    visited: list[int] = field(compare=False, repr=False)

    @property
    def max_abs(self) -> int:
        """The largest ``|a_n|`` over the orbit so far, scanned on each access."""
        return max(max(self.visited), -min(self.visited))


def _exact_orbit(p: int, q: int, start: LatticePoint, cap: int) -> tuple[list[int], int, int]:
    """The exact orbit of ``start`` at ``p/q``, two steps per pass: ``(word, x, y)``.

    After ``cap // 2 + 1`` passes the word may be one value past the cap,
    so callers test the cap on its length.  ``(x, y)`` is the state after
    the word's last value, in order: ``start`` again if the orbit closed.
    """
    x0, y0 = x, y = start
    word: list[int] = []
    for _ in range(cap // 2 + 1):
        word.append(x)
        x = -((p * y) // q) - x
        if y == x0 and x == y0:
            return word, y, x
        word.append(y)
        y = -((p * x) // q) - y
        if x == x0 and y == y0:
            break
    return word, x, y


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
    p, q = spec.value.numerator, spec.value.denominator
    if spec.kind == "exact":
        word, x, y = _exact_orbit(p, q, start, cap)
        if len(word) <= cap:
            # the word holds one period, from the start
            return OrbitResult("cycle", tuple(word), len(word), word)
    else:
        x0, y0 = x, y = start
        word = []
        plus = spec.kind == "plus_zero"
        certify_divergence = plus and p == -2 * q
        for steps in range(cap):
            if certify_divergence and x - y < 0:
                word += (x, y)
                return OrbitResult("diverged", None, steps, word)
            word.append(x)
            z = -((p * y) // q) - x
            if y % q == 0 and (y < 0 if plus else y > 0):
                z += 1
            x, y = y, z
            if x == x0 and y == y0:
                return OrbitResult("cycle", tuple(word), steps + 1, word)
    # ``visited`` ends two values past the cap.  (x, y) follow the word's
    # last value (they are the start again when an exact orbit closed past
    # the cap), and the cut drops what an exact pass ran beyond.
    word += (x, y)
    del word[cap + 2 :]
    return OrbitResult("cap_exceeded", None, cap, word)


def _canonical(word) -> Word:
    """``word`` as a tuple of the shared letter objects (see the module docstring)."""
    return tuple(map(_LETTERS.__getitem__, word))


def orbit_bounds(
    lam: Fraction, plus: bool, start: LatticePoint, cap: int = DEFAULT_ORBIT_CAP
) -> Optional[tuple[Word, Bounds, int]]:
    """`detect_cycle` and `constraints.cycle_bounds` in one orbit pass.

    The orbit runs at ``lam`` itself, or just right of it when ``plus`` is
    set, with no bound bookkeeping; once it closes, the bounds are folded,
    by integer cross-multiplication, once per distinct letter (see the
    module docstring).  Returns ``(word, bounds, steps_used)``, with
    ``bounds`` in the form of `constraints.Bounds` and equal in value to
    ``cycle_bounds(word)``, or None when the orbit does not return to
    ``start`` within ``cap`` steps.  The word holds the shared letter
    objects.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    p, q = lam.numerator, lam.denominator
    if plus:
        x0, y0 = x, y = start
        word: list[int] = []
        # Two steps per pass, as in `_exact_orbit`; the word may outgrow the cap.
        for _ in range(cap // 2 + 1):
            word.append(x)
            x = -((p * y) // q) - x
            if y < 0 and y % q == 0:
                x += 1
            if y == x0 and x == y0:
                break
            word.append(y)
            y = -((p * x) // q) - y
            if x < 0 and x % q == 0:
                y += 1
            if x == x0 and y == y0:
                break
    else:
        word = _exact_orbit(p, q, start, cap)[0]
    steps = len(word)
    if steps > cap:
        return None
    # Running bounds as (num, den, strict) with den > 0, starting from the
    # open ambient interval (-2, 2).
    lo_n, lo_d, lo_strict = -2, 1, True
    hi_n, hi_d, hi_strict = 2, 1, True
    for y in set(word):
        # every step with middle letter y has x + z == s; y == 0 gives no bound
        s = -((p * y) // q)
        if y > 0:
            # lam >= -s/y (weak), lam < (1 - s)/y (strict)
            a = -s
            if a * lo_d > lo_n * y:
                lo_n, lo_d, lo_strict = a, y, False
            a += 1
            if a * hi_d <= hi_n * y and (a * hi_d < hi_n * y or not hi_strict):
                hi_n, hi_d, hi_strict = a, y, True
        elif y < 0:
            if plus and y % q == 0:
                s += 1
            # lam <= s/-y (weak), lam > (s - 1)/-y (strict)
            d = -y
            if s * hi_d < hi_n * d:
                hi_n, hi_d, hi_strict = s, d, False
            s -= 1
            if s * lo_d >= lo_n * d and (s * lo_d > lo_n * d or not lo_strict):
                lo_n, lo_d, lo_strict = s, d, True
    return _canonical(word), (lo_n, lo_d, not lo_strict, hi_n, hi_d, not hi_strict), steps
