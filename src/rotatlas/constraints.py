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

from array import array
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from .intervals import Interval

# A cycle word: the orbit values of one period, from the initial pair on,
# packed by `pack_word` into 2-byte letters, or 8-byte ones for a word
# with a letter outside the 16-bit range.
Word = array
# (lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed): the bounds lo_n/lo_d and
# hi_n/hi_d, denominators positive and not necessarily reduced.
Bounds = tuple[int, int, bool, int, int, bool]


def pack_word(letters: Sequence[int]) -> Word:
    """``letters`` as a word: an array of 2-byte letters, or of 8-byte ones if need be.

    A letter outside 64 bits raises OverflowError, one that is not an
    integer TypeError.  The array takes a ``bool`` as 1 or 0.
    """
    try:
        return array("h", letters)
    except OverflowError:
        return array("q", letters)


def pair_index(word: Word, a0: int, a1: int, i: int) -> int:
    """The first cyclic index ``j >= i`` with ``(word[j], word[(j+1) % n]) == (a0, a1)``, or -1.

    The pair, packed as the word is, is searched for in the word's bytes,
    and a match that does not start on a letter is skipped; the pair that
    wraps around, at ``n - 1``, is compared last.  A pair that the word's
    letter size cannot hold is not in the word.
    """
    n, size = len(word), word.itemsize
    try:
        pair = array(word.typecode, (a0, a1)).tobytes()
    except OverflowError:
        return -1
    data = word.tobytes()
    j = data.find(pair, i * size)
    while j > 0 and j % size:
        j = data.find(pair, j + 1)
    if j >= 0:
        return j // size
    return n - 1 if i < n and word[-1] == a0 and word[0] == a1 else -1


def cycle_bounds(word: Sequence[int]) -> Optional[Bounds]:
    """The integer bounds of a cycle word's parameter set within (-2,2).

    One pass over the cyclic triples ``(b_i, b_{i+1}, b_{i+2})``; bounds are
    compared by integer cross-multiplication, without a Fraction per
    constraint.  Each constraint depends only on the middle letter
    ``b_{i+1}`` and the outer sum ``b_i + b_{i+2}``, so the loop runs over
    those two, the sums made by one `map` in C, and tests the sign of the
    middle letter, positive first: zero letters are the rarest.  The plain
    triple loop is kept as the test oracle.  The strict bound is compared
    in place, ``a += 1`` and then ``<=``, with ``<`` or the closure
    deciding a tie, which saves a difference temporary per constraint.
    Endpoint closure comes from the strictest binding constraint: a point
    is closed only if every constraint admits equality there.  None means
    infeasible (a zero letter whose neighbours do not sum to 0); otherwise
    the bounds may still describe an empty set, which `Interval` rejects.

    Most orbit words are their own mirror, and then half the pass is
    enough.  With ``j`` the index of ``(b_1, b_0)`` and ``k = (j + 1) % n``,
    the reflection ``u -> k - u (mod n)`` maps ``(b_0, b_1)`` onto it;
    whether the word equals its reflection is decided letter by letter, by
    one array comparison.  If it does, the triple at ``i`` is the triple at
    ``k - 2 - i`` read backwards: the same middle letter and the same outer
    sum, so the same constraint.  Folding a constraint a second time
    changes no running bound (it is already at least that tight, with that
    closure on a tie), so only the first triple of each mirrored pair, in
    the original order, is folded, and the tuple returned is the full
    pass's.  Any other word takes the full pass.

    ``word`` is packed (`pack_word`; a copy of a word that already is),
    searched and compared as an array, and unpacked once for the fold.
    """
    word = pack_word(word)
    n = len(word)
    if not n:
        raise ValueError("cycle words are non-empty")
    j = pair_index(word, word[1 % n], word[0], 0)
    k = (j + 1) % n
    mirror = j >= 0 and word[k::-1] + word[:k:-1] == word
    word = word.tolist()
    # b_0 .. b_{n-1}, b_0, b_1: the triples' letters, cyclically
    ext = word + word[:2] if n > 1 else word * 3
    if mirror:
        # triples 0..m/2, then m+1..(m+n)/2, with m = k - 2 (mod n)
        m = (k - 2) % n
        e, f = m // 2 + 1, (m + n) // 2 + 1
        mids = ext[1 : e + 1] + ext[m + 2 : f + 1]
        sums = map(add, ext[:e] + ext[m + 1 : f], ext[2 : e + 2] + ext[m + 3 : f + 2])
    else:
        mids = ext[1:-1]
        sums = map(add, word, ext[2:])
    # Running lower bound as (num, den, strict), den > 0; likewise upper.
    lo_n, lo_d, lo_strict = -2, 1, True
    hi_n, hi_d, hi_strict = 2, 1, True
    # (b_{i+1}, b_i + b_{i+2}) for the folded cyclic i, in order
    for b1, a in zip(mids, sums):
        if b1 > 0:
            # x >= -a/b1 (weak), x < (1 - a)/b1 (strict)
            a = -a
            if a * lo_d > lo_n * b1:
                lo_n, lo_d, lo_strict = a, b1, False
            # equal bound: weak never tightens an existing bound
            a += 1
            if a * hi_d <= hi_n * b1 and (a * hi_d < hi_n * b1 or not hi_strict):
                hi_n, hi_d, hi_strict = a, b1, True
        elif b1 < 0:
            # dividing by b1 < 0 flips: x <= a/-b1, x > (a - 1)/-b1
            d = -b1
            if a * hi_d < hi_n * d:
                hi_n, hi_d, hi_strict = a, d, False
            a -= 1
            if a * lo_d >= lo_n * d and (a * lo_d > lo_n * d or not lo_strict):
                lo_n, lo_d, lo_strict = a, d, True
        elif a:
            return None
    return lo_n, lo_d, not lo_strict, hi_n, hi_d, not hi_strict


def interval_for_cycle(word: Sequence[int]) -> Optional[Interval]:
    """The parameter interval of a cycle word within the ambient (-2,2).

    `cycle_bounds` as an `Interval`.  Singletons are legitimate results.
    None means infeasible, or empty, which `Interval` rejects.
    `dynamics.orbit_bounds` finds the same bounds, for a set that starts at
    the march point, by another algorithm, a walk up the Farey sequence
    over the word's letter set;
    `certificate.certify` uses `cycle_bounds` as its independent check.
    """
    bounds = cycle_bounds(word)
    if bounds is None:
        return None
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    try:
        return Interval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d), lo_closed, hi_closed)
    except ValueError:
        return None
