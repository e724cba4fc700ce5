"""Structure of the partition near the left end of the parameter interval.

Every integer initial pair carries a label ``(s, d)``; when ``d > 0`` the
pair sits inside an explicit family of cycles built from an arithmetic ramp
and triangular-number ramps, one cycle per index ``k``.  The k-th cycle is
realized exactly on

    [ -2 + 1/(s + (k+1)d),  -2 + 1/(s + kd) )

and these windows tile a whole left neighbourhood ``(-2, -2 + 1/(s + Kd))``
of the parameter interval, where ``K`` is the least admissible index.  For
``d = 0`` the tail is a single window with a constant cycle.  This module
computes labels, the cycles, their windows, and the assembled tail; the
finite remainder of the parameter interval is the partitioner's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .constraints import Word
from .intervals import Interval


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2."""
    if n < 0:
        raise ValueError("triangular numbers need n >= 0")
    return n * (n + 1) // 2


@dataclass(frozen=True)
class Label:
    """The (s, d) class of an initial pair.

    For d > 0 the invariant 0 <= s < d holds; d = 0 marks the constant
    diagonal pairs.
    """

    s: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 0 or self.s < 0:
            raise ValueError(f"label components must be non-negative: {self}")
        if self.d > 0 and not 0 <= self.s < self.d:
            raise ValueError(f"label needs 0 <= s < d when d > 0: {self}")

    @property
    def K(self) -> Optional[int]:
        """The least admissible index ceil((T_d - s)/d), or None when d = 0."""
        s, d = self.s, self.d
        return -((s - triangular(d)) // d) if d > 0 else None


def _ramp_index_closed_form(t: int, m: int) -> int:
    # min{l >= 0 : m + l*t + T_l >= 0}, which is
    # ceil((-1 - 2t + sqrt((2t+1)^2 - 8m)) / 2), evaluated in exact integers:
    # the least r with (2r + 2t + 1)^2 >= (2t+1)^2 - 8m.
    c = 2 * t + 1
    disc = c * c - 8 * m
    root = isqrt(disc)
    num = (root - c) if root * root == disc else (root + 1 - c)
    return max(0, -(-num // 2))


def label_of(a0: int, a1: int) -> Label:
    """Classify an initial pair; the six cases are exhaustive and disjoint."""
    if 0 <= a0 < a1:
        d = a1 - a0
        s = a0 % d
    elif 0 <= a1 < a0:
        d = a0 - a1
        s = a1 % d
    elif a0 == a1 and a0 >= 0:
        s, d = a0, 0
    elif a0 < 0 <= a1:
        s, d = a1, a1 - a0
    elif a1 < 0 <= a0:
        s, d = a0, a0 - a1
    else:
        t = abs(a0 - a1)
        m = max(a0, a1)
        r = _ramp_index_closed_form(t, m)
        s = m + r * t + triangular(r)
        d = t + r
    return Label(s, d)


def occurrence_index(a0: int, a1: int) -> int:
    """The least window index whose ramp cycle contains the pair adjacently.

    The arithmetic ramp of the k-th cycle only reaches up to s + (k+1)d, so a
    pair of non-negative unequal values sits on it only once k reaches the
    pair's own rung, floor(min(a0,a1)/d); in every other labelled case the
    pair sits on the descending ramp or at a junction, which exist for all
    k >= 1.  Only defined for labels with d > 0.
    """
    label = label_of(a0, a1)
    if label.d == 0:
        raise ValueError(f"pair ({a0},{a1}) has a constant tail; no window index")
    if 0 <= a0 < a1 or 0 <= a1 < a0:
        return max(1, min(a0, a1) // label.d)
    return 1


def triangular_cycle(s: int, d: int, k: int) -> Word:
    """One period of the k-th ramp cycle for label (s, d), d > 0.

    The word is A B rev(B) rev(A) C rev(C) with
    A = (s, s+d, ..., s+kd),
    B = (s+kd + T_d - T_{d-1}, ..., s+kd + T_d - T_0),
    C = (s - (T_d - T_{d-1}), ..., s - (T_d - T_0));
    its length is 2(k+1) + 4d.
    """
    if d <= 0 or not 0 <= s < d:
        raise ValueError(f"need 0 <= s < d with d > 0, got s={s} d={d}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    t_d = triangular(d)
    a = [s + i * d for i in range(k + 1)]
    b = [s + k * d + (t_d - triangular(d - j)) for j in range(1, d + 1)]
    c = [s - (t_d - triangular(d - j)) for j in range(1, d + 1)]
    return tuple(a + b + b[::-1] + a[::-1] + c + c[::-1])


def z_interval(s: int, d: int, k: int) -> Interval:
    """The parameter window realizing the k-th ramp cycle: closed left, open right."""
    if d <= 0 or not 0 <= s < d:
        raise ValueError(f"need 0 <= s < d with d > 0, got s={s} d={d}")
    if k * d < triangular(d) - s:
        raise ValueError(f"need k >= (T_d - s)/d, got s={s} d={d} k={k}")
    lo = -2 + Fraction(1, s + (k + 1) * d)
    hi = -2 + Fraction(1, s + k * d)
    return Interval(lo, hi, True, False)


@dataclass(frozen=True)
class TailDescription:
    """The infinite left part of one initial pair's partition.

    ``interval`` is the full parameter range the tail covers.  For d > 0 it
    is the disjoint union of the per-k windows for k >= ``k_start``, listed
    up to a given index by `pieces_through`; for d = 0 the tail is a single
    window with a constant cycle and ``k_start`` is None.

    ``k_start`` is max(K, occurrence index): K alone makes every window's
    cycle occupy exactly that window, but the pair itself only rides the
    cycles from its occurrence index on, and the windows below that belong
    to the marched body.
    """

    label: Label
    interval: Interval
    k_start: Optional[int]

    def pieces_through(self, k_max: int) -> list[tuple[Interval, Word]]:
        """(window, cycle word) pairs for k = k_start, ..., ``k_max``.

        For d > 0 the windows march down toward the left end of the parameter
        interval as k grows; for d = 0 the single constant window is returned
        whatever ``k_max`` is.
        """
        s, d = self.label.s, self.label.d
        if d == 0:
            return [(self.interval, (s,))]
        return [
            (z_interval(s, d, k), triangular_cycle(s, d, k))
            for k in range(self.k_start, k_max + 1)
        ]


def tail_of(a0: int, a1: int) -> TailDescription:
    """Assemble the tail description of an initial pair from its label."""
    label = label_of(a0, a1)
    s, d = label.s, label.d
    if d == 0:
        if s == 0:
            interval = Interval.open(Fraction(-2), Fraction(2))
        else:
            interval = Interval.open(Fraction(-2), -2 + Fraction(1, s))
        return TailDescription(label, interval, None)
    k_start = max(label.K, occurrence_index(a0, a1))
    interval = Interval.open(Fraction(-2), -2 + Fraction(1, s + k_start * d))
    return TailDescription(label, interval, k_start)
