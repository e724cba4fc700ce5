"""Rotation parameters and the two orbit loops: cycle detection and the march kernel.

The exact map with rotation parameter ``lam = p/q`` sends ``(x, y)`` to
``(y, z)`` where ``z`` is the unique integer with ``0 <= z + lam*y + x < 1``,
i.e. ``z = ceil(-lam*y - x)``.  Because ``x`` is an integer, that is
``c(y) - x`` with ``c(y) = -((p*y) // q)``.  The one-sided variants realize
the pointwise limits ``lam -> p/q + 0`` and ``lam -> p/q - 0``.  Just right
of ``p/q``, a letter ``y < 0`` lifts ``-lam*y`` by an infinitesimal, and
``ceil(v + 0) = floor(v) + 1`` for every ``v``: so the plus step is
``floor(-p*y/q) + 1 - x`` for ``y < 0``, and the exact step otherwise.  The
minus step is the same for ``y > 0``.  Both differ from the exact step only
on the tie lines ``q | y``, yet no loop tests divisibility: the closed form
holds on every line.

The boundary specializations are the interesting extremes: ``minus_zero`` at
2 is the always-periodic map whose cycles are cyclic palindromes, and
``plus_zero`` at -2 is the map that fixes the non-negative diagonal and blows
every other orbit up.  For the latter, ``x - y`` never increases along an
orbit, which yields the divergence certificate used by `detect_cycle`.

Every step ``(x, y) -> (y, z)`` has ``x + z = ceil(-lam*y)`` (one more on
the tie lines of the one-sided maps): the sum depends on the middle letter
``y`` alone.  So the step inequalities of a cycle word give one constraint
per distinct letter: at ``r = p/q`` the letter ``y`` confines the parameter
between the fractions of denominator ``|y|`` nearest ``r``.  After the orbit
closes, `orbit_bounds` finds the word's bounds from its letter set by a
walk along the Farey sequence out from ``r`` (`_farey_bounds`), which stops
at the first fraction whose denominator divides a letter, not once per
letter or per step.

`orbit_bounds` is the march kernel: it runs the exact map or the plus-side
map (the only two the march visits) and returns the cycle word with its
integer bounds; `partition.compute_atlas` builds the intervals.  Words that
`orbit_bounds` returns, and that `report.atlas_from_json` reads, hold one
shared ``int`` object per letter value (`_LETTERS`, one dict lookup per
letter: a miss stores its key).  Letters below -5 are not among CPython's
cached small ints, so without the sharing every letter of an atlas is an
object of its own, about three times the memory.  A mirrored word is a
slice of its twin, so it shares the objects too.  `detect_cycle` keeps
plain ints: its words are transient.

`detect_cycle`'s exact loop, which the probes run, takes two steps per
pass, ``x = c(y) - x`` and then ``y = c(x) - y``, testing for the start
after each; its one-sided loop takes one step per pass and also tests the
divergence certificate.  The march's one loop, in `_arc`, serves both of
its maps: three steps per pass over three names, each new letter tested
against the two before it (see `orbit_bounds`).  The loops call
``word.append``, which CPython 3.11 specialises, rather than a
bound-method local.

The step is written out in each of the two kernels, `detect_cycle` and
`orbit_bounds` (in `_arc`), and the word's bounds are solved a third time
by `constraints.cycle_bounds`.  The three are kept apart on purpose:

- speed: the fused kernel finds the bounds by a Farey walk of a few terms
  from its letter set, where marching through `detect_cycle` and a
  separate solve pays for a second pass over the whole word;
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


class Memo(dict):
    """A dict that makes a missing value once, as ``make(key)``, and keeps it."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


# One int object per letter value, shared by every word `orbit_bounds` returns.
_LETTERS = Memo(lambda letter: letter)

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
    x0, y0 = x, y = start
    if spec.kind == "exact":
        # Two steps per pass; after ``cap // 2 + 1`` passes the word may be
        # one value past the cap, so the cap is tested on its length.
        # ``(x, y)`` ends as the state after the word's last value.
        word: list[int] = []
        for _ in range(cap // 2 + 1):
            word.append(x)
            x = -((p * y) // q) - x
            if y == x0 and x == y0:
                x, y = y, x
                break
            word.append(y)
            y = -((p * x) // q) - y
            if x == x0 and y == y0:
                break
        if len(word) <= cap:
            # the word holds one period, from the start
            return OrbitResult("cycle", tuple(word), len(word), word)
    else:
        word = []
        plus = spec.kind == "plus_zero"
        certify_divergence = plus and p == -2 * q
        m = -p
        for steps in range(cap):
            if certify_divergence and x - y < 0:
                word += (x, y)
                return OrbitResult("diverged", None, steps, word)
            word.append(x)
            if y < 0 if plus else y > 0:
                z = (m * y) // q + 1 - x
            else:
                z = -((p * y) // q) - x
            x, y = y, z
            if x == x0 and y == y0:
                return OrbitResult("cycle", tuple(word), steps + 1, word)
    # ``visited`` ends two values past the cap.  (x, y) follow the word's
    # last value (they are the start again when an exact orbit closed past
    # the cap), and the cut drops what an exact pass ran beyond.
    word += (x, y)
    del word[cap + 2 :]
    return OrbitResult("cap_exceeded", None, cap, word)


def _arc(
    p: int, q: int, plus: bool, x: int, y: int, limit: int
) -> tuple[list[int], Optional[bool]]:
    """The orbit ``w`` of ``(x, y)`` up to its return or its first axis.

    The map is the one at ``p/q``, or just right of it if ``plus``: the
    step is ``c(y) - x`` with ``c(y) = -((p*y) // q)``, except that the
    plus side steps by ``(-p*y) // q + 1 - x`` for ``y < 0`` (see the
    module docstring).  ``-p`` is bound once, so the exact side pays one
    test of a local bool per step.

    Returns ``(letters, vertex)``.  On a return to ``(x, y)``, ``letters``
    is one period and ``vertex`` None.  An axis is the first letter
    ``w[k]``, ``k >= 2``, with ``w[k] == w[k-2]`` (a vertex: the orbit is
    its own mirror about ``w[k-1]``) or ``w[k] == w[k-1]`` (an edge: about
    the middle of the two); then ``letters`` is ``w[0..k-1]`` and
    ``vertex`` tells which.  A return that is also an axis counts as the
    return.  After ``limit // 3 + 1`` passes of three steps with neither,
    ``letters`` has more than ``limit`` values and ``vertex`` is None.
    """
    x0, y0 = x, y
    m = -p
    word = [x, y]
    for _ in range(limit // 3 + 1):
        z = (m * y) // q + 1 - x if plus and y < 0 else -((p * y) // q) - x
        word.append(z)
        if z == x or z == y or z == y0 and y == x0:
            break
        x = (m * z) // q + 1 - y if plus and z < 0 else -((p * z) // q) - y
        word.append(x)
        if x == y or x == z or x == y0 and z == x0:
            break
        y = (m * x) // q + 1 - z if plus and x < 0 else -((p * x) // q) - z
        word.append(y)
        if y == z or y == x or y == y0 and x == x0:
            break
    else:
        return word, None
    z = word.pop()
    if z == y0 and word[-1] == x0:
        word.pop()
        return word, None
    return word, z == word[-2]


def _farey_bounds(p: int, q: int, plus: bool, letters: set[int]) -> Bounds:
    """The bounds of a cycle at ``r = p/q`` (just right of ``r`` if ``plus``) from its letters.

    Equal in value and closure to ``cycle_bounds(word)`` for a cycle word
    at ``r`` whose letter set is ``letters``, found by walking the Farey
    sequence ``F_n``, ``n = max |y|``, from ``r`` out to each side.  ``r``
    lies in (-2, 2), or is -2 on the plus side.

    A step with middle letter ``y > 0`` confines the parameter to the cell
    ``[k/y, (k+1)/y)``, ``k = floor(r*y)``, closed below; with ``y = -d <
    0``, to ``((s-1)/d, s/d]``, ``s = ceil(r*d)``, closed above, where the
    plus side takes ``s + 1`` when ``q | d``, so the cell lies right of
    ``r``.  ``y = 0`` confines nothing.  The bounds are the largest lower
    and the smallest upper cell end over the letters, cut to the open
    (-2, 2); an end is closed only if every letter admits equality there.

    Away from ``r``.  A cell end of ``y`` is a multiple of ``1/|y|``, so in
    lowest terms its denominator ``b`` divides ``|y| <= n``: it is a term
    of ``F_n``.  Conversely a term of ``F_n`` above ``r`` whose ``b``
    divides some ``|y|`` is a multiple of ``1/|y|``, so the upper end of
    ``y``'s cell is that term or nearer ``r``.  So the smallest upper end
    above ``r`` is the first term of ``F_n`` above ``r`` whose
    denominator divides a letter, and the largest lower end below ``r``
    the first such term below it.  The letters ending their cells there
    are exactly the multiples of ``b``; an upper end is open for a
    positive letter and closed for a negative one, so the upper bound is
    closed iff no positive letter is a multiple of ``b``, the lower iff no
    negative one is.  At ±2, a term of denominator 1, the walk always
    stops, and the bound is open.

    At ``r``.  Only a letter divisible by ``q`` has a cell end at ``r``
    itself.  On the exact side a positive one puts the lower bound at
    ``r``, closed, and a negative one the upper bound, closed.  On the
    plus side a positive one's cell starts at ``r`` closed and a negative
    one's ``(r, r + 1/d]`` open, so either puts the lower bound at ``r``,
    open iff a negative one does, and the upper bound is always walked.

    The walk.  If ``q <= n``, ``r`` is a term, and its neighbour below,
    ``a/b``, has ``p*b - q*a = 1`` and ``n - q < b <= n``, so ``b`` is the
    largest ``b <= n`` congruent to ``p^-1`` mod ``q``; otherwise ``r``
    lies between two consecutive terms, the last convergent and
    semiconvergent within ``n``, from the continued-fraction loop of
    `Fraction.limit_denominator`.  From consecutive terms ``e/f, g/h``
    the next one on, in either direction, is ``(k*g - e)/(k*h - f)`` with
    ``k = (n + f) // h``.  A term costs one membership test of ``±m`` per
    multiple ``m <= n`` of its denominator: one when ``h > n/2``, as for
    most terms near ``r``.  A sparse letter set can walk O(n) terms.
    """
    top, bottom = max(letters), min(letters)
    n = top if top > -bottom else -bottom
    if not n:
        return -2, 1, False, 2, 1, False
    lo = hi = None
    if q <= n:
        # r's neighbours in F_n: a/b below it, then c/d, the term after r
        inv = pow(p, -1, q)
        b = n - (n - inv) % q
        a = (p * b - 1) // q
        k = (n + b) // q
        c, d = k * p - a, k * q - b
        # each walk: (the term before, the first term)
        down, up = (p, q, a, b), (p, q, c, d)
        # the letters divisible by q, by sign
        above = below = False
        for m in range(q, n + 1, q):
            if m in letters:
                above = True
            if -m in letters:
                below = True
        if plus:
            if above or below:
                lo = p, q, not below and p > -2 * q
        else:
            if above:
                lo = p, q, True
            if below:
                hi = p, q, True
    else:
        # convergents e/f, g/h of r while g's denominator stays within n;
        # r lies between g/h and the semiconvergent a/b
        e, f, g, h = 0, 1, 1, 0
        num, den = p, q
        while True:
            k = num // den
            t = f + k * h
            if t > n:
                break
            e, f, g, h = g, h, e + k * g, t
            num, den = den, num - k * den
        k = (n - f) // h
        a, b, c, d = e + k * g, f + k * h, g, h
        if c * q < p * d:
            a, b, c, d = c, d, a, b
        down, up = (c, d, a, b), (a, b, c, d)
    bounds = ()
    # Letters of ``sign`` open the bound they end on, the others close it:
    # ``hit`` is 2 if a multiple of h is a letter of that sign, 1 if only
    # of the other.
    for end, (e, f, g, h), sign in ((lo, down, -1), (hi, up, 1)):
        if end is None:
            while True:
                hit = 0
                for m in range(h, n + 1, h):
                    if sign * m in letters:
                        hit = 2
                        break
                    if -sign * m in letters:
                        hit = 1
                if hit:
                    break
                k = (n + f) // h
                e, f, g, h = g, h, k * g - e, k * h - f
            end = g, h, hit == 1 and -2 * h < g < 2 * h
        bounds += end
    return bounds


def orbit_bounds(
    lam: Fraction, plus: bool, start: LatticePoint, cap: int = DEFAULT_ORBIT_CAP
) -> Optional[tuple[Word, Bounds]]:
    """`detect_cycle` and `constraints.cycle_bounds` in one orbit pass, or half of one.

    The orbit runs at ``lam`` itself, or just right of it when ``plus`` is
    set, with no bound bookkeeping; once it closes, `_farey_bounds` finds
    the bounds from the set of its letters.  Returns ``(word, bounds)``,
    with ``bounds`` in the form of `constraints.Bounds`, in lowest terms,
    and equal in value and closure to ``cycle_bounds(word)``, or None when
    the orbit does not return to ``start`` within ``cap`` steps.  The word
    holds the shared letter objects, and its length is the steps the orbit
    took.

    The step inequality is symmetric in its outer letters, so the orbit run
    backwards is the orbit of the swapped state: from ``(a1, a0)`` the map
    spells ``a1, a0, w[-1], w[-2], ...``.  An orbit that reaches an axis
    (see `_arc`) is therefore its own mirror about it, and about a second
    axis half a period away.  So the orbit runs forward only to the first
    axis ahead (or to its return, when it has none), and, from ``(a1,
    a0)``, back to the first axis behind, unless ``a0 == a1`` is that axis
    itself; the arc between the two axes is half the word, and the rest is
    its reversal.  The backward run starts after an axis was found, so the
    period is twice the distance between the axes, and ``cap // 2 + 2``
    letters bound it.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    p, q = lam.numerator, lam.denominator
    a0, a1 = start
    arc, vertex = _arc(p, q, plus, a0, a1, cap)
    if vertex is None:
        word = tuple(map(_LETTERS.__getitem__, arc))
    else:
        if a0 == a1:
            # an edge axis between w[0] and w[1]: w[u] == w[1 - u]
            behind, lead = 0, 2
        else:
            back, back_vertex = _arc(p, q, plus, a1, a0, cap // 2 + 2)
            if back_vertex is None:
                # no axis within half the cap behind: the period exceeds the cap
                return None
            # ``back`` spells a1, a0, w[-1], ..., w[-behind]
            back.reverse()
            del back[-2:]
            behind, lead = len(back), back_vertex
            back += arc
            arc = back
        # ``arc`` runs from the axis behind to the one ahead, w[-behind..];
        # the word is w[0..], then ``arc`` reversed without the letters on
        # an axis (a vertex ahead; a vertex, or w[0] and w[1], behind), then
        # w[-behind..-1].  Built in a list, so it makes one tuple.
        arc = list(map(_LETTERS.__getitem__, arc))
        word = arc[behind:]
        word += arc[-1 - vertex : lead - 1 - len(arc) : -1]
        word += arc[:behind]
        word = tuple(word)
    if len(word) > cap:
        return None
    return word, _farey_bounds(p, q, plus, set(arc))
