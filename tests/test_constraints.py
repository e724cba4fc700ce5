import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction as F
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotatlas import ParamSpec, constraints, detect_cycle, interval_for_cycle
from rotatlas.constraints import cycle_bounds
from rotatlas.intervals import make_interval
from rotatlas.partition import _mirror_word
from reference import contains, parse_interval
from reference import cycle_bounds as triple_loop_bounds


@dataclass(frozen=True)
class HalfLineConstraint:
    """One half-line ``x sense bound``, with sense in ge/gt/le/lt."""

    bound: F
    sense: str

    def __post_init__(self):
        object.__setattr__(self, "bound", F(self.bound))
        if self.sense not in ("ge", "gt", "le", "lt"):
            raise ValueError(f"bad sense {self.sense!r}")

    def admits(self, x):
        if self.sense == "ge":
            return x >= self.bound
        if self.sense == "gt":
            return x > self.bound
        if self.sense == "le":
            return x <= self.bound
        return x < self.bound


def constraints_for_cycle(word):
    """Oracle: the 2n half-line constraints of a word, or None if it is infeasible.

    For ``b_{i+1} > 0`` the step inequality gives ``x >= (-b_i - b_{i+2}) / b_{i+1}``
    and ``x < (1 - b_i - b_{i+2}) / b_{i+1}``; for ``b_{i+1} < 0`` the senses flip.
    """
    word = tuple(word)
    if not word:
        raise ValueError("cycle words are non-empty")
    n = len(word)
    out = []
    for i in range(n):
        b0, b1, b2 = word[i], word[(i + 1) % n], word[(i + 2) % n]
        if b1 == 0:
            if b2 != -b0:
                return None
            continue
        lo_bound = F(-b0 - b2, b1)
        hi_bound = F(1 - b0 - b2, b1)
        if b1 > 0:
            out += [HalfLineConstraint(lo_bound, "ge"), HalfLineConstraint(hi_bound, "lt")]
        else:
            out += [HalfLineConstraint(lo_bound, "le"), HalfLineConstraint(hi_bound, "gt")]
    return out


def detected_word(lam, start, cap=10**6):
    r = detect_cycle(ParamSpec.exact(lam), start, cap)
    assert r.outcome == "cycle"
    return r.cycle


def fold_constraints(word):
    # reference implementation: intersect the half-lines one by one
    constraints = constraints_for_cycle(word)
    if constraints is None:
        return None
    lo, lo_closed = F(-2), False
    hi, hi_closed = F(2), False
    for c in constraints:
        if c.sense in ("ge", "gt"):
            if c.bound > lo or (c.bound == lo and c.sense == "gt" and lo_closed):
                lo, lo_closed = c.bound, c.sense == "ge"
        else:
            if c.bound < hi or (c.bound == hi and c.sense == "lt" and hi_closed):
                hi, hi_closed = c.bound, c.sense == "le"
    return make_interval(lo, lo_closed, hi, hi_closed)


def test_trivial_word():
    assert constraints_for_cycle((0,)) == []
    assert interval_for_cycle((0,)) == parse_interval("(-2,2)")


def test_zero_middle_forces_negation():
    assert constraints_for_cycle((0, 0, 1)) is None
    assert interval_for_cycle((0, 0, 1)) is None


def test_known_open_interval():
    assert interval_for_cycle((-1, 1, 2, 1, -1)) == parse_interval("(-1,-1/2)")


def test_known_closed_interval():
    assert interval_for_cycle((-2, -2, 1, 3, 1)) == parse_interval("[-2/3,-1/2]")


def test_known_half_open_interval():
    assert interval_for_cycle((0, 1, 2, 2, 1, 0, -1, -1)) == parse_interval("[-3/2,-1)")


def test_singleton_interval():
    word = detected_word(F(8, 5), (-1, -1))
    assert interval_for_cycle(word) == parse_interval("[8/5]")


def test_constraint_senses():
    # word (2, 1): cyclic triples (2,1,2) and (1,2,1), giving
    # 0 <= 2 + x + 2 < 1 and 0 <= 1 + 2x + 1 < 1
    got = constraints_for_cycle((2, 1))
    assert got == [
        HalfLineConstraint(F(-4), "ge"),
        HalfLineConstraint(F(-3), "lt"),
        HalfLineConstraint(F(-1), "ge"),
        HalfLineConstraint(F(-1, 2), "lt"),
    ]


def test_negative_coefficient_flips_sense():
    # (-1) forces x <= -2 and x > -3, empty once clipped to the ambient range
    got = constraints_for_cycle((-1,))
    assert {c.sense for c in got} == {"le", "gt"}
    assert interval_for_cycle((-1,)) is None


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        constraints_for_cycle(())
    with pytest.raises(ValueError):
        interval_for_cycle(())
    with pytest.raises(ValueError):
        cycle_bounds(())


def test_cycle_bounds_examples():
    # (-1, 1, 2, 1, -1) solves to (-1,-1/2); (0,) to the open ambient range
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = cycle_bounds((-1, 1, 2, 1, -1))
    assert (F(lo_n, lo_d), lo_closed, F(hi_n, hi_d), hi_closed) == (F(-1), False, F(-1, 2), False)
    assert cycle_bounds((0,)) == (-2, 1, False, 2, 1, False)
    assert cycle_bounds((0, 0, 1)) is None
    # (-1,) has no zero letter, but its bounds describe an empty set:
    # -2 < x <= -2
    assert cycle_bounds((-1,)) == (-2, 1, False, -2, 1, True)
    assert interval_for_cycle((-1,)) is None


def _from_bounds(bounds):
    if bounds is None:
        return None
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    assert lo_d > 0 and hi_d > 0
    return make_interval(F(lo_n, lo_d), lo_closed, F(hi_n, hi_d), hi_closed)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
def test_interval_for_cycle_is_make_interval_of_cycle_bounds(word):
    assert interval_for_cycle(word) == _from_bounds(cycle_bounds(word))
    assert interval_for_cycle(word) == fold_constraints(word)


@contextmanager
def _folded_triples():
    """The number of triples each `cycle_bounds` call folds: one outer sum each."""
    counts = []

    def counting_add(a, b):
        counts[-1] += 1
        return add(a, b)

    def count(word):
        counts.append(0)
        bounds = cycle_bounds(word)
        return bounds, counts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constraints, "add", counting_add)
        yield count


def _expected_folds(word):
    """How many triples the solve folds: half of a self-mirror word's, else all.

    The mirror is taken about the first index ``j`` of ``(w1, w0)``:
    ``u -> j + 1 - u (mod n)``.  If the word equals it, triple ``i`` and
    triple ``j - 1 - i`` are one inequality, and one of each pair is folded.
    """
    n = len(word)
    j = next((j for j in range(n) if (word[j], word[(j + 1) % n]) == (word[1 % n], word[0])), -1)
    if j < 0 or any(word[u] != word[(j + 1 - u) % n] for u in range(n)):
        return n
    return sum(1 for i in range(n) if i <= (j - 1 - i) % n)


def _self_mirror(half, shape):
    """A word equal to its reflection, from the arc ``half`` between its two axes.

    vertex/vertex and edge/edge words have even length, vertex/edge odd.
    """
    if shape == "vertex/vertex":
        return half + half[-2:0:-1]
    if shape == "edge/edge":
        return half + half[::-1]
    return half + half[-2::-1]


MIRROR_SHAPES = ("vertex/vertex", "edge/edge", "vertex/edge")

# Words where zero letters are common: feasible ones (b_{i+2} == -b_i
# around each zero) are rare otherwise.
letters = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**4, 10**4))
words_with_zeros = st.lists(letters, min_size=1, max_size=12)


@given(words_with_zeros)
def test_cycle_bounds_is_the_triple_loop(word):
    # mostly words that are not their own mirror: the full pass
    with _folded_triples() as count:
        bounds, folded = count(word)
    assert bounds == triple_loop_bounds(word)
    if bounds is not None:
        assert folded == _expected_folds(word)


@given(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=6))
def test_cycle_bounds_is_the_triple_loop_on_feasible_zero_letters(word):
    # each non-zero b as (b, 0, -b): every zero letter is feasible
    wrapped = tuple(letter for b in word for letter in (b, 0, -b))
    bounds = cycle_bounds(wrapped)
    assert bounds == triple_loop_bounds(wrapped) and bounds is not None


def test_cycle_bounds_is_the_triple_loop_on_every_m4_word(atlas):
    for a0 in range(-4, 5):
        for a1 in range(-4, 5):
            at = atlas(a0, a1)
            pieces = at.tail.pieces_through((at.tail.k_start or 0) + 3)
            for _, word in at.body + tuple(pieces):
                assert cycle_bounds(word) == triple_loop_bounds(word), (a0, a1, word)


@given(
    st.lists(letters, min_size=1, max_size=7).map(tuple),
    st.sampled_from(MIRROR_SHAPES),
    st.booleans(),
)
def test_cycle_bounds_is_the_triple_loop_on_self_mirror_words(half, shape, doubled):
    # Every rotation, so (w1, w0) sits at every index, n - 1 included, and
    # the axes fall on every pair of positions.
    word = _self_mirror(half, shape)
    if doubled:
        word += word
    n = len(word)
    with _folded_triples() as count:
        for r in range(n):
            rotated = word[r:] + word[:r]
            bounds, folded = count(rotated)
            assert bounds == triple_loop_bounds(rotated), rotated
            if bounds is not None:
                assert folded == _expected_folds(rotated), rotated
                if len(set(zip(rotated, rotated[1:] + rotated[:1]))) == n:
                    # distinct states, as in an orbit: (w1, w0) is the mirror's
                    assert folded <= n // 2 + 1, rotated


def test_cycle_bounds_takes_both_paths():
    with _folded_triples() as count:
        # each axis shape at every rotation: half of the triples, plus the
        # ones that are their own mirror
        for half in ((3, -1, 4, 1, -5), (2, 0, -2, 7)):
            for shape in MIRROR_SHAPES:
                word = _self_mirror(half, shape)
                for r in range(len(word)):
                    rotated = word[r:] + word[:r]
                    bounds, folded = count(rotated)
                    assert bounds == triple_loop_bounds(rotated)
                    assert folded == _expected_folds(rotated) <= len(word) // 2 + 1
        # (w1, w0) at index n - 1: the mirror is u -> -u, not about n
        assert count((5, 2, -3, 2)) == (triple_loop_bounds((5, 2, -3, 2)), 3)
        # n = 1, 2, 3 and a zero letter
        assert count((4,)) == (triple_loop_bounds((4,)), 1)
        assert count((4, -1)) == (triple_loop_bounds((4, -1)), 2)
        assert count((2, 2, -1)) == (triple_loop_bounds((2, 2, -1)), 2)
        assert count((1, 0, -1, 0)) == (triple_loop_bounds((1, 0, -1, 0)), 3)
        # no mirror, or not about the first (w1, w0): the full pass
        for word in ((1, 0, -1), (1, 2, 4, 3), (3, 1, 4, 1, 5, 9, 2, 6), (1, 1, -1, 1)):
            assert count(word) == (triple_loop_bounds(word), len(word))


def _bound_values(bounds):
    if bounds is None:
        return None
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    return F(lo_n, lo_d), lo_closed, F(hi_n, hi_d), hi_closed


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=8).map(tuple))
def test_mirrored_word_has_the_same_bounds(word):
    # The swapped pair's cycle: the triples (b0, b1, b2) read as (b2, b1, b0).
    mirror = _mirror_word(word)
    assert sorted(mirror) == sorted(word) and _mirror_word(mirror) == word
    assert _bound_values(cycle_bounds(mirror)) == _bound_values(cycle_bounds(word))


def test_half_line_validation():
    with pytest.raises(ValueError):
        HalfLineConstraint(F(0), "above")
    c = HalfLineConstraint(F(1, 2), "ge")
    assert c.admits(F(1, 2)) and not HalfLineConstraint(F(1, 2), "gt").admits(F(1, 2))


def test_interval_matches_constraint_fold():
    rng = random.Random(10)
    for _ in range(300):
        q = rng.randint(1, 30)
        lam = F(rng.randint(-2 * q + 1, 2 * q - 1), q)
        word = detected_word(lam, (rng.randint(-6, 6), rng.randint(-6, 6)))
        assert interval_for_cycle(word) == fold_constraints(word)


def test_interval_matches_constraint_fold_exhaustively():
    # every word of length <= 3 over {-2..2}, including infeasible and
    # empty ones; exercises all sense/tie combinations at shared bounds
    from itertools import product

    values = range(-2, 3)
    for n in (1, 2, 3):
        for word in product(values, repeat=n):
            assert interval_for_cycle(word) == fold_constraints(word), word


def test_soundness_detected_parameter_inside():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.randint(1, 30)
        lam = F(rng.randint(-2 * q + 1, 2 * q - 1), q)
        word = detected_word(lam, (rng.randint(-8, 8), rng.randint(-8, 8)))
        ival = interval_for_cycle(word)
        assert ival is not None and contains(ival, lam)


def test_completeness_inside_and_outside_probes():
    rng = random.Random(12)
    eps = F(1, 10**6)
    for _ in range(150):
        q = rng.randint(1, 20)
        lam = F(rng.randint(-2 * q + 1, 2 * q - 1), q)
        start = (rng.randint(-5, 5), rng.randint(-5, 5))
        word = detected_word(lam, start)
        ival = interval_for_cycle(word)
        # random interior rational reproduces the word exactly
        t = F(rng.randint(1, 9), 10)
        inner = ival.lo + (ival.hi - ival.lo) * t
        if contains(ival, inner):
            assert detected_word(inner, start) == word
        # just beyond a closed endpoint the word changes
        for edge, closed, sign in ((ival.lo, ival.lo_closed, -1), (ival.hi, ival.hi_closed, +1)):
            probe = edge + sign * eps
            if closed and F(-2) < probe < F(2):
                assert detected_word(probe, start) != word


def test_reversal_has_same_interval():
    rng = random.Random(13)
    for _ in range(200):
        q = rng.randint(1, 25)
        lam = F(rng.randint(-2 * q + 1, 2 * q - 1), q)
        word = detected_word(lam, (rng.randint(-6, 6), rng.randint(-6, 6)))
        assert interval_for_cycle(word[::-1]) == interval_for_cycle(word)
