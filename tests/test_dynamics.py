import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotatlas import OrbitResult, ParamSpec, compute_atlas, detect_cycle, dynamics
from rotatlas import partition
from rotatlas.constraints import cycle_bounds
from rotatlas.dynamics import orbit_bounds
from reference import letter_bounds, make_interval, step, step_inverse, word_is_cycle_at
from words import is_cyclic_palindrome, rotation_equal

# one-sided boundary specializations: always-periodic at 2-0, blow-up at -2+0
PERIODIC_EDGE = ParamSpec.minus_zero(2)
DIVERGENT_EDGE = ParamSpec.plus_zero(-2)


pairs = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
inner_lambdas = st.integers(1, 40).flatmap(
    lambda q: st.builds(F, st.integers(-2 * q + 1, 2 * q - 1), st.just(q))
)
# Exact points with large denominators, as probe points have.
probe_lambdas = st.integers(10**6, 10**15).flatmap(
    lambda q: st.builds(F, st.integers(-2 * q + 1, 2 * q - 1), st.just(q))
)
# The parameters the march visits (a point itself, or just right of it),
# and probe points.
march_specs = st.one_of(
    st.builds(ParamSpec, st.sampled_from(("exact", "plus_zero")), inner_lambdas),
    st.builds(ParamSpec.exact, probe_lambdas),
)
# The march sides, with denominators <= 6 half the time, so plus-side ties
# (q | y) are common.
small_lambdas = st.integers(1, 6).flatmap(
    lambda q: st.builds(F, st.integers(-2 * q + 1, 2 * q - 1), st.just(q))
)
kernel_specs = st.builds(
    ParamSpec, st.sampled_from(("exact", "plus_zero")), st.one_of(inner_lambdas, small_lambdas)
)
# Every side, plus both boundary specializations.
all_specs = st.one_of(
    st.builds(ParamSpec, st.sampled_from(("exact", "plus_zero", "minus_zero")), inner_lambdas),
    st.builds(ParamSpec.exact, probe_lambdas),
    st.sampled_from((DIVERGENT_EDGE, PERIODIC_EDGE)),
)


def random_lambda(rng):
    q = rng.randint(1, 40)
    p = rng.randint(-2 * q + 1, 2 * q - 1)
    return F(p, q)


def test_step_examples():
    assert step(ParamSpec.exact(0), (5, 7)) == (7, -5)
    assert step(ParamSpec.exact(F(1, 2)), (3, 2)) == (2, -4)
    assert 0 <= F(-4) + F(1, 2) * 2 + 3 < 1
    assert step(PERIODIC_EDGE, (0, -1)) == (-1, 2)
    for m in range(6):
        assert step(DIVERGENT_EDGE, (m, m)) == (m, m)


def test_step_inverse_examples():
    assert step_inverse(ParamSpec.exact(0), (7, -5)) == (5, 7)
    assert step_inverse(PERIODIC_EDGE, (-1, 2)) == (0, -1)
    assert step_inverse(ParamSpec.exact(F(1, 2)), (2, -4)) == (3, 2)


def test_param_spec_validation():
    with pytest.raises(ValueError, match=r"^exact parameter must lie in \(-2,2\), got 2$"):
        ParamSpec.exact(2)
    with pytest.raises(ValueError, match=r"^exact parameter must lie in \(-2,2\), got -2$"):
        ParamSpec.exact(-2)
    with pytest.raises(ValueError, match=r"^plus-side parameter must lie in \[-2,2\), got 2$"):
        ParamSpec.plus_zero(2)
    with pytest.raises(ValueError, match=r"^minus-side parameter must lie in \(-2,2\], got -2$"):
        ParamSpec.minus_zero(-2)
    ParamSpec.plus_zero(-2)
    ParamSpec.minus_zero(2)
    with pytest.raises(ValueError, match="unknown kind 'sideways'"):
        ParamSpec("sideways", F(0))
    # just inside and just outside each edge, with a denominator above 1
    for kind in ("exact", "plus_zero", "minus_zero"):
        for value in (F(-7, 4), F(7, 4), F(-9, 4), F(9, 4)):
            if -2 < value < 2:
                assert ParamSpec(kind, value).value is value
            else:
                with pytest.raises(ValueError):
                    ParamSpec(kind, value)
    # ints and floats become Fractions
    assert type(ParamSpec.exact(1).value) is F and ParamSpec.exact(0.5).value == F(1, 2)


def test_step_soundness_random():
    rng = random.Random(1)
    for _ in range(500):
        lam = random_lambda(rng)
        x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        _, z = step(ParamSpec.exact(lam), (x, y))
        assert 0 <= z + lam * y + x < 1


def test_bijectivity_round_trip():
    rng = random.Random(2)
    for _ in range(500):
        lam = random_lambda(rng)
        kind = rng.choice(["exact", "plus_zero", "minus_zero"])
        if kind == "plus_zero" and lam == 2 or kind == "minus_zero" and lam == -2:
            kind = "exact"
        spec = ParamSpec(kind, lam)
        p = (rng.randint(-50, 50), rng.randint(-50, 50))
        assert step_inverse(spec, step(spec, p)) == p
        assert step(spec, step_inverse(spec, p)) == p


def test_periodic_edge_matches_two_branch_formula():
    rng = random.Random(3)
    for _ in range(500):
        x, y = rng.randint(-40, 40), rng.randint(-40, 40)
        expected = (y, -x - 2 * y) if y <= 0 else (y, -x - 2 * y + 1)
        assert step(PERIODIC_EDGE, (x, y)) == expected


def test_divergent_edge_matches_two_branch_formula():
    rng = random.Random(4)
    for _ in range(500):
        x, y = rng.randint(-40, 40), rng.randint(-40, 40)
        expected = (y, -x + 2 * y) if y >= 0 else (y, -x + 2 * y + 1)
        assert step(DIVERGENT_EDGE, (x, y)) == expected


def test_divergent_edge_gap_never_increases():
    rng = random.Random(5)
    for _ in range(200):
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        for _ in range(50):
            nx, ny = step(DIVERGENT_EDGE, (x, y))
            assert nx - ny <= x - y
            if y < 0:
                assert nx - ny == x - y - 1
            x, y = nx, ny


def test_detect_cycle_period_four_at_zero():
    r = detect_cycle(ParamSpec.exact(0), (5, 7))
    assert r == OrbitResult("cycle", (5, 7, -5, -7), 4, [5, 7, -5, -7]) and r.max_abs == 7
    rng = random.Random(6)
    for _ in range(200):
        p = (rng.randint(-30, 30), rng.randint(-30, 30))
        r = detect_cycle(ParamSpec.exact(0), p)
        assert r.outcome == "cycle" and 4 % len(r.cycle) == 0


def test_detect_cycle_longest_small_example():
    r = detect_cycle(ParamSpec.exact(F(8, 5)), (-1, -1))
    assert r.outcome == "cycle"
    assert len(r.cycle) == 38
    assert word_is_cycle_at(r.cycle, F(8, 5))


def test_detect_cycle_periodic_edge_word():
    r = detect_cycle(PERIODIC_EDGE, (1, 0))
    assert r.cycle == (1, 0, -1, 2, -2, 2, -1, 0, 1, -1)
    assert is_cyclic_palindrome(r.cycle)


def test_periodic_edge_small_grid_palindromic_cycles():
    for x in range(-8, 9):
        for y in range(-8, 9):
            r = detect_cycle(PERIODIC_EDGE, (x, y), cap=10**5)
            assert r.outcome == "cycle", (x, y)
            assert is_cyclic_palindrome(r.cycle), (x, y)


def test_divergent_edge_outcomes_small_grid():
    for x in range(-8, 9):
        for y in range(-8, 9):
            r = detect_cycle(DIVERGENT_EDGE, (x, y), cap=10**5)
            if x == y >= 0:
                assert r.cycle == (x,)
            else:
                assert r.outcome == "diverged", (x, y)


def test_divergent_edge_immediate_certificate():
    r = detect_cycle(DIVERGENT_EDGE, (0, 1))
    assert r.outcome == "diverged"
    assert r.steps_used == 0


def test_cap_is_a_result_not_an_error():
    r = detect_cycle(ParamSpec.exact(0), (5, 7), cap=3)
    assert r.outcome == "cap_exceeded" and r.steps_used == 3
    with pytest.raises(ValueError):
        detect_cycle(ParamSpec.exact(0), (5, 7), cap=0)


def test_time_reversal_symmetry():
    rng = random.Random(7)
    for _ in range(200):
        lam = random_lambda(rng)
        p = (rng.randint(-10, 10), rng.randint(-10, 10))
        r = detect_cycle(ParamSpec.exact(lam), p, cap=10**6)
        assert r.outcome == "cycle"
        assert word_is_cycle_at(r.cycle, lam)
        assert word_is_cycle_at(r.cycle[::-1], lam)


def test_one_sided_maps_agree_with_nearby_exact_parameters():
    # A one-sided map is the pointwise limit of the exact dynamics: once the
    # limit orbit closes with value bound V, every exact parameter within
    # 1/(2qV) on that side must reproduce the same word.
    rng = random.Random(9)
    checked = 0
    while checked < 150:
        q = rng.randint(1, 12)
        p = rng.randint(-2 * q + 1, 2 * q - 1)
        start = (rng.randint(-6, 6), rng.randint(-6, 6))
        for kind, sign in (("plus_zero", 1), ("minus_zero", -1)):
            limit = detect_cycle(ParamSpec(kind, F(p, q)), start, cap=10**5)
            if limit.outcome != "cycle":
                continue
            v = F(1, 2 * q * max(1, limit.max_abs) * 2)
            nearby = detect_cycle(ParamSpec.exact(F(p, q) + sign * v), start, cap=10**5)
            assert nearby.cycle == limit.cycle, (p, q, kind, start)
            checked += 1


def test_rotation_equal_against_brute_force():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randint(1, 12)
        a = tuple(rng.randint(-12, 12) for _ in range(n))
        # half the time a genuine rotation, half a random word of equal length
        if rng.random() < 0.5:
            k = rng.randrange(n)
            b = a[k:] + a[:k]
        else:
            b = tuple(rng.choice(a + (1, -1, 11)) for _ in range(n))
        brute = any(a == b[i:] + b[:i] for i in range(n))
        assert rotation_equal(a, b) == brute, (a, b)


def test_rotation_helpers():
    assert rotation_equal((1, 2, 3), (3, 1, 2))
    assert not rotation_equal((1, 2, 3), (3, 2, 1))
    assert not rotation_equal((1, 2), (1, 2, 1, 2))
    assert not rotation_equal((1,), (11,)) and not rotation_equal((1, -1), (-1, -1))
    assert is_cyclic_palindrome((1, 2, 2, 1))
    assert is_cyclic_palindrome((0,))
    assert not is_cyclic_palindrome((0, 1, 1, 2))


def test_max_abs_tracks_whole_orbit():
    r = detect_cycle(ParamSpec.exact(F(8, 5)), (-1, -1))
    assert r.max_abs == max(abs(v) for v in r.cycle)


@settings(deadline=None)
@given(all_specs, pairs, st.integers(1, 40))
def test_max_abs_and_steps_used_on_every_outcome(spec, start, cap):
    r = detect_cycle(spec, start, cap)
    # walk the oracle through the steps the result reports
    values = list(start)
    point = start
    gaps = [point[0] - point[1]]
    for _ in range(r.steps_used):
        point = step(spec, point)
        values.append(point[1])
        gaps.append(point[0] - point[1])
    assert r.max_abs == max(map(abs, values))
    if r.outcome == "cycle":
        assert 1 <= r.steps_used <= cap and point == start
        assert r.cycle == tuple(values[: r.steps_used])
    elif r.outcome == "cap_exceeded":
        assert r.steps_used == cap
    else:
        # the certificate fires at the first negative x - y, before the cap
        assert r.outcome == "diverged" and spec == DIVERGENT_EDGE
        assert r.steps_used < cap
        assert gaps[-1] < 0 and all(g >= 0 for g in gaps[:-1])


def test_exact_loop_at_a_large_denominator():
    spec = ParamSpec.exact(F(1234567890123, 10**12))
    r = detect_cycle(spec, (1, 2), cap=5)
    assert (r.outcome, r.cycle, r.steps_used) == ("cap_exceeded", None, 5)
    values = [1, 2]
    point = (1, 2)
    for _ in range(5):
        point = step(spec, point)
        values.append(point[1])
    assert r.visited == values
    full = detect_cycle(spec, (1, 2))
    assert full.outcome == "cycle" and full.steps_used > 5
    assert full.cycle[:7] == tuple(values)
    assert _kernel(spec, (1, 2), 5) is None
    assert _kernel(spec, (1, 2))[0] == full.cycle


def _kernel(spec, start, cap=10**7):
    return orbit_bounds(spec.value, spec.kind == "plus_zero", start, cap)


def _values(bounds):
    """Bounds as (lo, lo_closed, hi, hi_closed), each edge one reduced Fraction."""
    lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = bounds
    return F(lo_n, lo_d), lo_closed, F(hi_n, hi_d), hi_closed


@settings(deadline=None)
@given(kernel_specs, pairs)
def test_orbit_bounds_is_one_pass_of_detect_cycle_and_cycle_bounds(spec, start):
    reference = detect_cycle(spec, start)
    assert reference.outcome == "cycle"
    word, bounds = _kernel(spec, start)
    assert word == reference.cycle
    assert len(word) == reference.steps_used
    assert _values(bounds) == _values(cycle_bounds(word))
    # both loop kernels inline `step`; the word must be its orbit
    point = start
    for letter in word:
        assert point[0] == letter
        point = step(spec, point)
    assert point == start


@st.composite
def farey_cases(draw):
    """``(p, q, plus, letters)``: a point of (-2, 2), or -2 if ``plus``, and a letter set.

    ``q`` is 1, small or large, so it lies at, below and above ``n = max
    |y|``; the letter sets run from one letter to dense, with 0 among the
    values, and often hold multiples of ``q`` of either sign.
    """
    q = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(13, 400)))
    plus = draw(st.booleans())
    r = F(draw(st.integers(-2 * q if plus else -2 * q + 1, 2 * q - 1)), q)
    n = draw(st.sampled_from((1, 2, 3, 7, 30, 150)))
    size = draw(st.sampled_from((1, 2, 3, 8, 40)))
    letters = draw(st.sets(st.integers(-n, n), min_size=1, max_size=size))
    letters |= draw(st.sets(st.integers(-3, 3).map(lambda k: k * r.denominator), max_size=2))
    return r.numerator, r.denominator, plus, letters


@settings(max_examples=400, deadline=None)
@given(farey_cases())
# all letters 0; walks that reach 2 and -2; -2 itself on the plus side;
# a sparse set with q > n; q | y with both signs at r, on each side
@example((1, 3, False, {0}))
@example((3, 2, False, {1, -1}))
@example((-3, 2, True, {0, -1}))
@example((-2, 1, True, {2, 3}))
@example((7, 400, True, {150}))
@example((1, 3, False, {3, -6, 5}))
@example((1, 3, True, {3, -6, 5}))
def test_farey_bounds_equal_the_per_letter_fold(case):
    p, q, plus, letters = case
    assert _values(dynamics._farey_bounds(p, q, plus, letters)) == _values(
        letter_bounds(p, q, plus, letters)
    )


def test_farey_bounds_examples():
    r = F(3, 2)
    # the letter 1 alone: the walks stop at the integers next to r, and at
    # 2 or -2 the bound is open whatever the letter's sign
    assert _values(dynamics._farey_bounds(3, 2, False, {1})) == (F(1), True, F(2), False)
    assert _values(dynamics._farey_bounds(-3, 2, True, {-1})) == (F(-2), False, F(-1), True)
    # q | y at r: exact, a positive letter closes below and a negative above
    assert _values(dynamics._farey_bounds(3, 2, False, {2, -4})) == (r, True, r, True)
    # plus side: a negative one opens the bound at r, a positive one alone closes it
    assert _values(dynamics._farey_bounds(3, 2, True, {2, -4}))[:2] == (r, False)
    assert _values(dynamics._farey_bounds(3, 2, True, {2, 5}))[:2] == (r, True)
    assert dynamics._farey_bounds(3, 2, True, {0}) == (-2, 1, False, 2, 1, False)


@settings(deadline=None)
@given(march_specs, pairs, st.integers(1, 40))
def test_orbit_bounds_cap_agrees_with_detect_cycle(spec, start, cap):
    found = _kernel(spec, start, cap)
    reference = detect_cycle(spec, start, cap)
    assert (found is None) == (reference.outcome == "cap_exceeded")
    if found is not None:
        assert (found[0], len(found[0])) == (reference.cycle, reference.steps_used)


def test_orbit_bounds_examples():
    word, bounds = orbit_bounds(F(0), False, (1, 0))
    assert (word, str(make_interval(*_values(bounds)))) == ((1, 0, -1, 0), "[0]")
    # just right of 8/5 the 38-cycle at [8/5] gives way to another cycle
    exact = orbit_bounds(F(8, 5), False, (-1, -1))
    plus = orbit_bounds(F(8, 5), True, (-1, -1))
    assert str(make_interval(*_values(exact[1]))) == "[8/5]" and len(exact[0]) == 38
    assert _values(plus[1])[:2] == (F(8, 5), False)
    assert orbit_bounds(F(0), False, (5, 7), cap=3) is None
    with pytest.raises(ValueError):
        orbit_bounds(F(0), False, (5, 7), cap=0)


def test_march_runs_half_of_each_self_mirror_orbit(monkeypatch):
    # Every march call of the pairs with m <= 3.  The letters are counted
    # from `_arc`'s return, the start pair included in each run.
    calls = []
    real_arc, real_kernel = dynamics._arc, partition.orbit_bounds

    def arc(*args):
        letters, vertex = real_arc(*args)
        calls[-1][1].append((len(letters), vertex))
        return letters, vertex

    def kernel(lam, plus, start, cap):
        calls.append(((lam, plus, start), []))
        return real_kernel(lam, plus, start, cap)

    monkeypatch.setattr(dynamics, "_arc", arc)
    monkeypatch.setattr(partition, "orbit_bounds", kernel)
    for a0 in range(-3, 4):
        for a1 in range(a0, 4):
            compute_atlas(a0, a1)
    monkeypatch.undo()
    mirrors, shapes = 0, set()
    for (lam, plus, start), runs in calls:
        word, _ = orbit_bounds(lam, plus, start)
        spec = ParamSpec("plus_zero" if plus else "exact", lam)
        assert word == detect_cycle(spec, start).cycle
        produced = sum(length for length, _ in runs)
        if is_cyclic_palindrome(word):
            mirrors += 1
            assert produced <= len(word) // 2 + 4, (lam, plus, start)
            shapes.add(tuple(vertex for _, vertex in runs))
        else:
            assert produced == len(word) and len(runs) == 1, (lam, plus, start)
    assert (len(calls), mirrors) == (1510, 1414)
    # vertex and edge axes ahead, behind, and at the start pair (one run)
    assert {(True, True), (False, False), (True, False), (False, True)} <= shapes
    assert {(True,), (False,)} <= shapes


@pytest.mark.parametrize(
    "lam, plus, start", [(F(17, 9), False, (-3, 0)), (F(7, 5), True, (-3, -1))]
)
def test_orbit_bounds_on_asymmetric_march_calls(lam, plus, start):
    # Two march calls of the pairs with m <= 7 whose cycle is not its own
    # mirror, so no axis stops the run: the kernel runs the whole orbit.
    word, bounds = orbit_bounds(lam, plus, start)
    reference = detect_cycle(ParamSpec("plus_zero" if plus else "exact", lam), start)
    assert not is_cyclic_palindrome(word)
    assert (word, len(word)) == (reference.cycle, reference.steps_used)
    assert _values(bounds) == _values(cycle_bounds(reference.cycle))


# Denominators 1..10 for plus-side ties; -199/100 fixes (m, m) for 1 <= m <= 4.
EDGE_LAMBDAS = (
    F(-199, 100), F(-19, 10), F(-3, 2), F(-1), F(-1, 3), F(0), F(2, 5), F(1), F(3, 2), F(7, 4),
)


def _walk(spec, start, steps):
    """The orbit values ``a_0 .. a_{steps+1}`` of the reference map, and the period if seen."""
    values = list(start)
    point = start
    period = None
    for n in range(1, steps + 1):
        point = step(spec, point)
        values.append(point[1])
        if period is None and point == start:
            period = n
    return values, period


def test_orbit_loops_at_every_cap_edge():
    # `detect_cycle`'s exact loop takes two steps per pass and the march's
    # `_arc` three; caps just below, at and just above the period put the
    # return at different points of a pass.
    periods = set()
    for lam in EDGE_LAMBDAS:
        for start in itertools.product(range(-4, 5), repeat=2):
            for spec in (ParamSpec.exact(lam), ParamSpec.plus_zero(lam)):
                _, period = _walk(spec, start, 2000)
                assert period is not None, (spec, start)
                periods.add(period)
                for cap in sorted({1, max(period - 1, 1), period, period + 1}):
                    values, _ = _walk(spec, start, cap)
                    word = tuple(values[:period])
                    found = _kernel(spec, start, cap)
                    if period > cap:
                        assert found is None, (spec, start, cap)
                    else:
                        assert (found[0], len(found[0])) == (word, period), (spec, start, cap)
                    if spec.kind != "exact":
                        continue
                    r = detect_cycle(spec, start, cap)
                    if period > cap:
                        assert (r.outcome, r.cycle, r.steps_used) == ("cap_exceeded", None, cap)
                        assert r.visited == values, (spec, start, cap)
                    else:
                        assert (r.outcome, r.cycle, r.steps_used) == ("cycle", word, period)
    # period 1 ((0, 0), and (m, m) near -2), and odd and even periods above it
    assert 1 in periods
    assert {p % 2 for p in periods if p > 1} == {0, 1}
    for m in range(1, 5):
        assert _kernel(ParamSpec.exact(F(-199, 100)), (m, m), 1)[0] == (m,)
