"""Reference code the tests compare the package against.

The package's orbit loops inline the step map and its verifier solves whole
words in integers; these are the plain, one-step-at-a-time definitions, plus
the textual interval parser, membership test, set intersection and
empty-or-interval constructor that tests use to state expected intervals,
the triple-loop word solve, the per-letter fold of a word's bounds and the
SVG coordinate on exact Fractions.
"""

from fractions import Fraction

from rotatlas import Interval, ParamSpec, parse_rational


def step(spec: ParamSpec, point):
    """One application of the rotation map."""
    x, y = point
    p, q = spec.value.numerator, spec.value.denominator
    # ceil(-(p*y + q*x)/q) via floor division; q > 0 always.
    z = -((p * y + q * x) // q)
    if y % q == 0:
        if spec.kind == "plus_zero" and y < 0:
            z += 1
        elif spec.kind == "minus_zero" and y > 0:
            z += 1
    return (y, z)


def step_inverse(spec: ParamSpec, point):
    """Inverse of `step`; the defining inequality is symmetric in x and z.

    So the predecessor of ``(x, y)`` is read off the step from the swapped
    pair ``(y, x)``, and the one-sided tie rule lives in `step` alone.
    """
    x, y = point
    return (step(spec, (y, x))[1], x)


def word_is_cycle_at(word, lam) -> bool:
    """Exact check that one period ``word`` satisfies every step inequality at ``lam``."""
    lam = Fraction(lam)
    u, v = lam.numerator, lam.denominator
    n = len(word)
    for i in range(n):
        b0, b1, b2 = word[i], word[(i + 1) % n], word[(i + 2) % n]
        val = v * b2 + u * b1 + v * b0  # v * (b2 + lam*b1 + b0)
        if not 0 <= val < v:
            return False
    return True


def point(r) -> Interval:
    """The singleton interval ``[r]``."""
    return Interval(r, r, True, True)


def contains(ival: Interval, r) -> bool:
    """Whether the rational ``r`` lies in ``ival``."""
    above = ival.lo < r or (ival.lo_closed and ival.lo == r)
    below = r < ival.hi or (ival.hi_closed and r == ival.hi)
    return above and below


def make_interval(lo, lo_closed: bool, hi, hi_closed: bool):
    """Interval from raw endpoint data, or None if the set would be empty."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def intersect(a: Interval, b: Interval):
    """The set intersection of ``a`` and ``b`` with exact closure, or None if empty.

    Each end is placed on a (value, side) scale: a lower end at ``(v, 0)``
    includes ``v``, at ``(v, 1)`` starts just after it; an upper end at
    ``(v, 0)`` includes ``v``, at ``(v, -1)`` ends just before it.
    """
    lo = max((a.lo, 0 if a.lo_closed else 1), (b.lo, 0 if b.lo_closed else 1))
    hi = min((a.hi, 0 if a.hi_closed else -1), (b.hi, 0 if b.hi_closed else -1))
    return make_interval(lo[0], lo[1] == 0, hi[0], hi[1] == 0)


def parse_interval(text: str) -> Interval:
    """Parse the canonical textual interval form, including singletons ``[r]``."""
    text = text.strip()
    if len(text) < 3 or text[0] not in "[(" or text[-1] not in "])":
        raise ValueError(f"not an interval: {text!r}")
    body = text[1:-1]
    if "," not in body:
        if text[0] != "[" or text[-1] != "]":
            raise ValueError(f"singleton must be written [r]: {text!r}")
        return point(parse_rational(body))
    lo_text, hi_text = body.split(",", 1)
    return Interval(
        parse_rational(lo_text),
        parse_rational(hi_text),
        text[0] == "[",
        text[-1] == "]",
    )


def cycle_bounds(word):
    """The triple-loop solve `rotatlas.constraints.cycle_bounds` is checked against.

    One cyclic triple ``(b0, b1, b2)`` per step, the zero letter tested
    first; the same running bounds in the same order, so the same tuple.
    """
    word = tuple(word)
    if not word:
        raise ValueError("cycle words are non-empty")
    lo_n, lo_d, lo_strict = -2, 1, True
    hi_n, hi_d, hi_strict = 2, 1, True
    for b0, b1, b2 in zip(word, word[1:] + word[:1], word[2:] + word[:2]):
        if b1 == 0:
            if b2 != -b0:
                return None
            continue
        a_n = -b0 - b2
        if b1 > 0:
            if a_n * lo_d > lo_n * b1:
                lo_n, lo_d, lo_strict = a_n, b1, False
            cmp = (a_n + 1) * hi_d - hi_n * b1
            if cmp < 0 or (cmp == 0 and not hi_strict):
                hi_n, hi_d, hi_strict = a_n + 1, b1, True
        else:
            a_n, d = -a_n, -b1
            if a_n * hi_d < hi_n * d:
                hi_n, hi_d, hi_strict = a_n, d, False
            cmp = (a_n - 1) * lo_d - lo_n * d
            if cmp > 0 or (cmp == 0 and not lo_strict):
                lo_n, lo_d, lo_strict = a_n - 1, d, True
    return lo_n, lo_d, not lo_strict, hi_n, hi_d, not hi_strict


def letter_bounds(p, q, plus, letters):
    """The bounds `rotatlas.dynamics._farey_bounds` is checked against: one fold per letter.

    Every step with middle letter ``y`` has outer sum ``s = -((p*y) // q)``
    at ``p/q`` (one more for ``y < 0`` with ``q | y`` just right of it), so
    each distinct letter gives one constraint, folded into the running
    bounds as in `cycle_bounds`; ``y == 0`` gives none.
    """
    lo_n, lo_d, lo_strict = -2, 1, True
    hi_n, hi_d, hi_strict = 2, 1, True
    for y in letters:
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
    return lo_n, lo_d, not lo_strict, hi_n, hi_d, not hi_strict


def svg_x(value) -> float:
    """The SVG x coordinate of ``value``, computed on the exact Fraction."""
    frac = (Fraction(value) - Fraction(-2)) / 4
    return round(30 + float(frac) * 840, 2)
