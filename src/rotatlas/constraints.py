"""Inverse problem: the exact set of parameters realizing a given cycle word.

A word ``(b_0, ..., b_{n-1})`` is a cycle for parameter ``x`` exactly when
``0 <= b_{i+2} + x*b_{i+1} + b_i < 1`` holds for every cyclic index ``i``.
Each inequality with ``b_{i+1} != 0`` clips a half-line off the parameter
axis; with ``b_{i+1} = 0`` it contributes nothing but forces
``b_{i+2} = -b_i`` (an integer in [0,1) is 0), otherwise the word is
infeasible.  The intersection of all half-lines with the ambient open
interval (-2,2) is the word's parameter interval: possibly empty, possibly
a single point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .intervals import Interval, make_interval


def interval_for_cycle(word: Sequence[int]) -> Optional[Interval]:
    """The parameter interval of a cycle word within the ambient (-2,2).

    Endpoint closure comes from the strictest binding constraint: a point is
    closed only if every constraint admits equality there.  Singletons are
    legitimate results.  None means infeasible or empty.

    Bounds are compared by integer cross-multiplication, without a Fraction
    per constraint; `dynamics.orbit_interval` folds the same bounds while the
    orbit runs, and `partition.verify_atlas` uses this routine as its
    independent check.
    """
    word = tuple(word)
    if not word:
        raise ValueError("cycle words are non-empty")
    n = len(word)
    # Running lower bound as (num, den, strict), den > 0; likewise upper.
    lo_n, lo_d, lo_strict = -2, 1, True
    hi_n, hi_d, hi_strict = 2, 1, True
    for i in range(n):
        b0, b1, b2 = word[i], word[(i + 1) % n], word[(i + 2) % n]
        if b1 == 0:
            if b2 != -b0:
                return None
            continue
        a_n, c_n = -b0 - b2, 1 - b0 - b2
        if b1 > 0:
            # x >= a_n/b1 (weak), x < c_n/b1 (strict)
            cmp = a_n * lo_d - lo_n * b1
            if cmp > 0:
                lo_n, lo_d, lo_strict = a_n, b1, False
            # equal bound: weak never tightens an existing bound
            cmp = c_n * hi_d - hi_n * b1
            if cmp < 0 or (cmp == 0 and not hi_strict):
                hi_n, hi_d, hi_strict = c_n, b1, True
        else:
            # dividing by b1 < 0 flips: x <= a_n/b1, x > c_n/b1
            # normalize to positive denominator
            a2_n, c2_n, d2 = -a_n, -c_n, -b1
            cmp = a2_n * hi_d - hi_n * d2
            if cmp < 0:
                hi_n, hi_d, hi_strict = a2_n, d2, False
            cmp = c2_n * lo_d - lo_n * d2
            if cmp > 0 or (cmp == 0 and not lo_strict):
                lo_n, lo_d, lo_strict = c2_n, d2, True
    return make_interval(
        Fraction(lo_n, lo_d), not lo_strict, Fraction(hi_n, hi_d), not hi_strict
    )
