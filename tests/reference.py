"""Reference code the tests compare the package against.

The package's orbit loops inline the step map and its verifier solves whole
words in integers; these are the plain, one-step-at-a-time definitions, plus
the textual interval parser and membership test that tests use to state
expected intervals.
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
