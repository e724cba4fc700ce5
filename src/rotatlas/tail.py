"""Structure of the partition near the left end of the parameter interval.

Every integer initial pair carries a label ``(s, d)``; when ``d > 0`` the
pair sits inside an explicit family of cycles built from an arithmetic ramp
and triangular-number ramps, one cycle per index ``k``.  The k-th cycle is
realized exactly on

    [ -2 + 1/(s + (k+1)d),  -2 + 1/(s + kd) )

and these windows tile a whole left neighbourhood ``(-2, -2 + 1/(s + Kd))``
of the parameter interval, where ``K`` is the least admissible index.  For
``d = 0`` the tail is a single window with a constant cycle.  This module
computes labels, the cycles, their windows (each edge is `Label.edge`), and
the tail, which is fixed by its label and first window index, with the
ranges derived from it; what the body holds is the partitioner's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import isqrt
from typing import Iterator, Optional

from .constraints import Word, pack_word
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
        if self.s < 0 or self.d < 0 or 0 < self.d <= self.s:
            raise ValueError(f"label needs s, d >= 0, and s < d when d > 0: {self!r}")

    def __str__(self) -> str:
        """The label as listings print it: ``s=1 d=2 K=1``, with no K when d = 0."""
        return f"s={self.s} d={self.d}" + (f" K={self.K}" if self.d else "")

    @property
    def K(self) -> Optional[int]:
        """The least admissible index ceil((T_d - s)/d), or None when d = 0."""
        s, d = self.s, self.d
        return -((s - triangular(d)) // d) if d > 0 else None

    def edge(self, k: int) -> Fraction:
        """-2 + 1/(s + kd): window k is [edge(k+1), edge(k)); -2 + 1/s at d = 0."""
        return -2 + Fraction(1, self.s + k * self.d)


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
    """Classify an initial pair; the four cases are exhaustive and disjoint.

    The cases read only the unordered pair ``lo <= hi``, so the label is
    swap-symmetric by construction.
    """
    lo, hi = min(a0, a1), max(a0, a1)
    if lo == hi >= 0:
        s, d = lo, 0
    elif lo >= 0:
        d = hi - lo
        s = lo % d
    elif hi >= 0:
        s, d = hi, hi - lo
    else:
        t = hi - lo
        r = _ramp_index_closed_form(t, hi)
        s = hi + r * t + triangular(r)
        d = t + r
    return Label(s, d)


def triangular_cycle(s: int, d: int, k: int) -> Word:
    """One period of the k-th ramp cycle for label (s, d), d > 0.

    The word is A B rev(B) rev(A) C rev(C) with
    A = (s, s+d, ..., s+kd),
    B = (s+kd + T_d - T_{d-1}, ..., s+kd + T_d - T_0),
    C = (s - (T_d - T_{d-1}), ..., s - (T_d - T_0));
    its length is 2(k+1) + 4d.
    """
    if Label(s, d).d == 0 or k < 1:  # the label itself needs 0 <= s < d
        raise ValueError(f"need d > 0 and k >= 1, got s={s} d={d} k={k}")
    t_d = triangular(d)
    a = [s + i * d for i in range(k + 1)]
    b = [s + k * d + (t_d - triangular(d - j)) for j in range(1, d + 1)]
    c = [s - (t_d - triangular(d - j)) for j in range(1, d + 1)]
    return pack_word(a + b + b[::-1] + a[::-1] + c + c[::-1])


def z_interval(s: int, d: int, k: int) -> Interval:
    """The parameter window realizing the k-th ramp cycle: closed left, open right."""
    label = Label(s, d)  # the label itself needs 0 <= s < d
    if d == 0 or k < label.K:
        raise ValueError(f"need d > 0 and k >= (T_d - s)/d, got s={s} d={d} k={k}")
    return Interval(label.edge(k + 1), label.edge(k), True, False)


@dataclass(frozen=True)
class TailDescription:
    """The infinite left part of a pair's partition, fixed by its label and ``k_start``.

    For d > 0 its ``interval`` is the disjoint union of the per-k windows
    for k >= ``k_start``, which `windows` yields in order, one at a time;
    for d = 0 it is one window with a constant cycle, and ``k_start`` is
    None.  ``k_start`` is max(K, occurrence index), as `tail_of` finds it:
    K alone makes every window's cycle occupy exactly that window, but the
    pair itself only rides the cycles from its occurrence index on, and
    the windows below that belong to the marched body.  The ranges an atlas
    reads, ``body_range`` and ``table_range``, are derived here too.
    """

    label: Label
    k_start: Optional[int]

    @cached_property
    def kind(self) -> str:
        """``"triangular"`` for d > 0, ``"full"`` for (0, 0), tail (-2, 2), else ``"constant"``."""
        label = self.label
        return "triangular" if label.d else ("constant" if label.s else "full")

    @cached_property
    def interval(self) -> Interval:
        """All the tail covers: from -2 to window ``k_start``'s edge (to 2 for (0, 0)), open."""
        hi = Fraction(2) if self.kind == "full" else self.label.edge(self.k_start or 0)
        return Interval.open(Fraction(-2), hi)

    @cached_property
    def body_range(self) -> Interval:
        """The marched range: from the tail's right edge, closed, to 2, open; a full tail's own."""
        if self.kind == "full":
            return self.interval
        return Interval(self.interval.hi, Fraction(2), True, False)

    @cached_property
    def table_range(self) -> Interval:
        """The range the summary tables count: from window K's edge, closed, to 2, open.

        A constant or full tail has no K, and the tables count its body range.
        """
        if self.kind != "triangular":
            return self.body_range
        label = self.label
        return Interval(label.edge(label.K), Fraction(2), True, False)

    def windows(self) -> Iterator[tuple[Interval, Word]]:
        """(window, cycle word) pairs for k = k_start, k_start + 1, ..., made as they are read.

        For d > 0 the windows march down toward -2 as k grows, without end;
        for d = 0 the single constant window is the only item.
        """
        s, d = self.label.s, self.label.d
        if d == 0:
            yield self.interval, pack_word((s,))
            return
        for k in count(self.k_start):
            yield z_interval(s, d, k), triangular_cycle(s, d, k)


def tail_of(a0: int, a1: int) -> TailDescription:
    """The tail description of an initial pair, from its label (classified once).

    For d > 0, ``k_start`` is the larger of K and the pair's rung
    floor(min(a0, a1)/d).  The arithmetic ramp of the k-th cycle only
    reaches up to s + (k+1)d, so a pair of non-negative values sits on it
    only from its own rung on; any other pair sits on the descending ramp
    or at a junction, which exist for all k >= 1, and K >= 1 since
    T_d >= d > s.  The label and the rung read only the unordered pair, so
    ``tail_of(a0, a1) == tail_of(a1, a0)`` by construction.
    """
    label = label_of(a0, a1)
    if label.d == 0:
        return TailDescription(label, None)
    return TailDescription(label, max(label.K, min(a0, a1) // label.d))
